#ifndef DELPROP_LINT_LINTER_H_
#define DELPROP_LINT_LINTER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "lint/rule.h"

namespace delprop {
namespace lint {

/// Summary of one lint run.
struct LintReport {
  std::vector<Diagnostic> diagnostics;  // sorted by (file, line, rule)
  size_t files_checked = 0;
  size_t suppressed = 0;  // findings silenced by delprop-lint comments

  bool clean() const { return diagnostics.empty(); }
};

/// Owns a set of rules and runs them over files. Two-phase: every file is
/// shown to every rule's Collect() before any Check() runs, so rules can use
/// tree-wide knowledge (Status-returning function names, container aliases).
/// If any rule wants the SemanticModel, the Linter builds it once between
/// the phases and binds it to every rule that opted in.
class Linter {
 public:
  /// Registers the project rules (see docs/lint.md). `only` restricts
  /// to the named rules; empty means all.
  void AddDefaultRules(const std::vector<std::string>& only = {});

  void AddRule(std::unique_ptr<Rule> rule);

  /// Registered rule names, in registration order.
  std::vector<std::string> RuleNames() const;

  /// Rule name -> description pairs for --list-rules.
  std::vector<std::pair<std::string, std::string>> RuleDescriptions() const;

  /// Lints in-memory files (also the unit-test entry point). Diagnostics on
  /// lines covered by a `// delprop-lint: <rule>-ok` comment are dropped and
  /// counted in `suppressed`.
  LintReport Run(const std::vector<SourceFile>& files);

  /// Loads each file path verbatim and lints the lot.
  Result<LintReport> RunOnFiles(const std::vector<std::string>& files);

  /// Loads each path (file, or directory walked recursively for C++
  /// sources) and lints the lot. Paths are reported verbatim, so run from
  /// the repo root for canonical diagnostics.
  Result<LintReport> RunOnPaths(const std::vector<std::string>& paths);

 private:
  std::vector<std::unique_ptr<Rule>> rules_;
};

/// Expands `paths` to the sorted list of C++ source files under them
/// (.h/.cc/.cpp). A path that is neither a C++ file nor a directory is an
/// InvalidArgument.
Result<std::vector<std::string>> CollectSourceFiles(
    const std::vector<std::string>& paths);

}  // namespace lint
}  // namespace delprop

#endif  // DELPROP_LINT_LINTER_H_
