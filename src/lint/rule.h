#ifndef DELPROP_LINT_RULE_H_
#define DELPROP_LINT_RULE_H_

#include <string>
#include <string_view>
#include <vector>

#include "lint/source_file.h"

namespace delprop {
namespace lint {

class SemanticModel;

/// One finding: where, which rule, and a human-readable message.
struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;

  /// Renders "file:line: [rule] message" — the CLI output format.
  std::string ToString() const;

  friend bool operator==(const Diagnostic& a, const Diagnostic& b) {
    return a.file == b.file && a.line == b.line && a.rule == b.rule &&
           a.message == b.message;
  }
  friend bool operator<(const Diagnostic& a, const Diagnostic& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  }
};

/// A lint rule. Rules run in two phases: Collect() sees every file first and
/// may build tree-wide knowledge (e.g. which function names return Status);
/// Check() is then called per file to report findings. Single-file rules
/// implement only Check(). The Linter handles suppression comments — rules
/// report every finding unconditionally.
class Rule {
 public:
  virtual ~Rule() = default;

  /// Stable rule name used in diagnostics and suppression comments
  /// (`// delprop-lint: <name>-ok`).
  virtual std::string_view name() const = 0;

  /// One-line description for `delprop_lint --list-rules`.
  virtual std::string_view description() const = 0;

  /// Phase 1: observe a file (called once per file, before any Check()).
  virtual void Collect(const SourceFile& file) { (void)file; }

  /// Rules that analyze whole functions or the cross-TU call graph opt in
  /// to the shared SemanticModel. The Linter builds the model once per run
  /// (between the Collect and Check phases) and binds it to every rule that
  /// wants it; the pointer is valid for the duration of the Check phase.
  virtual bool wants_semantic_model() const { return false; }
  virtual void BindModel(const SemanticModel* model) { (void)model; }

  /// Phase 2: append findings for `file` to `out`.
  virtual void Check(const SourceFile& file,
                     std::vector<Diagnostic>* out) const = 0;
};

/// True if `path` starts with any of `prefixes` (after stripping a leading
/// "./") or contains one at a directory boundary — so "src/solvers/" scopes
/// both `src/solvers/x.cc` and `/abs/repo/src/solvers/x.cc`. An empty
/// prefix list matches nothing; an empty-string prefix matches everything.
/// Shared by the path-scoped rules.
bool PathHasAnyPrefix(std::string_view path,
                      const std::vector<std::string>& prefixes);

}  // namespace lint
}  // namespace delprop

#endif  // DELPROP_LINT_RULE_H_
