// delprop_lint — project-invariant static analysis for the delprop tree.
//
//   delprop_lint --check src tools bench tests           # lint these roots
//   delprop_lint --check --rules=raw-randomness src      # subset of rules
//   delprop_lint --list-rules                            # what is enforced
//
// Exit status: 0 clean, 1 violations found, 2 usage or I/O error. Run from
// the repo root — path-scoped rules key off the relative paths you pass.
// Suppress a finding with a comment on (or one line above) the flagged
// line:  // delprop-lint: <rule>-ok <justification>
#include <cstdio>
#include <string>
#include <vector>

#include "lint/linter.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: delprop_lint [--rules=r1,r2] [--list-rules] "
               "--check <path>...\n");
}

}  // namespace

int main(int argc, char** argv) {
  using delprop::lint::Linter;
  using delprop::lint::LintReport;

  bool list_rules = false;
  std::vector<std::string> only_rules;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--check") {
      // Default (and only) mode; accepted for a self-describing command
      // line in scripts and CMake.
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg.rfind("--rules=", 0) == 0 ||
               (arg == "--rules" && i + 1 < argc)) {
      // Both `--rules=a,b` and `--rules a,b` (the bench CLIs use the space
      // form, so scripts can treat the tools uniformly).
      std::string csv =
          arg == "--rules" ? argv[++i] : arg.substr(arg.find('=') + 1);
      size_t start = 0;
      while (start <= csv.size()) {
        size_t comma = csv.find(',', start);
        if (comma == std::string::npos) comma = csv.size();
        if (comma > start) {
          only_rules.push_back(csv.substr(start, comma - start));
        }
        start = comma + 1;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "delprop_lint: unknown option '%s'\n",
                   arg.c_str());
      Usage();
      return 2;
    } else {
      paths.push_back(arg);
    }
  }

  Linter linter;
  linter.AddDefaultRules(only_rules);
  if (!only_rules.empty() &&
      linter.RuleNames().size() != only_rules.size()) {
    std::fprintf(stderr, "delprop_lint: unknown rule in --rules=...\n");
    return 2;
  }

  if (list_rules) {
    for (const auto& [name, description] : linter.RuleDescriptions()) {
      std::printf("%-28s %s\n", name.c_str(), description.c_str());
    }
    return 0;
  }
  if (paths.empty()) {
    std::fprintf(stderr, "delprop_lint: no paths given\n");
    Usage();
    return 2;
  }

  delprop::Result<std::vector<std::string>> files =
      delprop::lint::CollectSourceFiles(paths);
  if (!files.ok()) {
    std::fprintf(stderr, "delprop_lint: %s\n",
                 files.status().ToString().c_str());
    return 2;
  }
  if (files->empty()) {
    std::fprintf(stderr,
                 "delprop_lint: no C++ sources found under the given "
                 "path(s) — nothing to lint\n");
    return 2;
  }

  delprop::Result<LintReport> report = linter.RunOnFiles(*files);
  if (!report.ok()) {
    std::fprintf(stderr, "delprop_lint: %s\n",
                 report.status().ToString().c_str());
    return 2;
  }

  for (const delprop::lint::Diagnostic& diag : report->diagnostics) {
    std::printf("%s\n", diag.ToString().c_str());
  }
  std::fprintf(stderr,
               "delprop_lint: %zu file(s), %zu violation(s), %zu "
               "suppressed\n",
               report->files_checked, report->diagnostics.size(),
               report->suppressed);
  return report->clean() ? 0 : 1;
}
