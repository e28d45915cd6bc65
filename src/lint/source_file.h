#ifndef DELPROP_LINT_SOURCE_FILE_H_
#define DELPROP_LINT_SOURCE_FILE_H_

#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "lint/lexer.h"

namespace delprop {
namespace lint {

/// One file prepared for linting: the token stream with comments stripped,
/// plus the suppressions and hot-path annotations extracted from those
/// comments.
///
/// A comment anywhere on a line may carry `delprop-lint: <rule>-ok`; it
/// suppresses diagnostics of that rule on the comment's own line and on the
/// following line, so both styles work:
///
///   std::thread t(Run);  // delprop-lint: raw-threading-ok (pool worker)
///
///   // delprop-lint: nondeterministic-iteration-ok (order folded into a sum)
///   for (const auto& [k, v] : counts) total += v;
///
/// Two further markers drive the call-graph analysis (see docs/lint.md):
/// `// delprop-hot` on (or one line above) a function signature makes that
/// function an extra hot root; `// delprop-hot-stop` marks an allocation
/// sink — the function is excluded from the hot set and the traversal does
/// not descend through it. Both expect a justification in the comment.
class SourceFile {
 public:
  /// Lexes `content`. `path` is kept verbatim for diagnostics and for
  /// path-sensitive rules (header guards, allowed-directory checks).
  SourceFile(std::string path, std::string content);

  const std::string& path() const { return path_; }
  const std::string& content() const { return content_; }

  /// Code tokens only (no comments).
  const std::vector<Token>& tokens() const { return tokens_; }

  /// True if `rule` is suppressed on `line` by a nearby suppression comment.
  bool IsSuppressed(std::string_view rule, int line) const;

  /// True if a `// delprop-hot` comment covers `line` (the comment's own
  /// line or the one after it).
  bool HasHotAnnotation(int line) const { return hot_lines_.count(line) > 0; }

  /// True if a `// delprop-hot-stop` comment covers `line`.
  bool HasHotStopAnnotation(int line) const {
    return hot_stop_lines_.count(line) > 0;
  }

 private:
  std::string path_;
  std::string content_;
  std::vector<Token> tokens_;
  // (line, rule) pairs with an active suppression.
  std::set<std::pair<int, std::string>> suppressions_;
  std::set<int> hot_lines_;
  std::set<int> hot_stop_lines_;
};

}  // namespace lint
}  // namespace delprop

#endif  // DELPROP_LINT_SOURCE_FILE_H_
