#include "lint/linter.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "lint/rules.h"
#include "lint/semantic_model.h"

namespace delprop {
namespace lint {
namespace {

bool HasSourceExtension(const std::filesystem::path& path) {
  std::string ext = path.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp";
}

}  // namespace

void Linter::AddDefaultRules(const std::vector<std::string>& only) {
  auto wanted = [&only](std::string_view name) {
    return only.empty() ||
           std::find(only.begin(), only.end(), name) != only.end();
  };
  if (wanted("nondeterministic-iteration")) {
    AddRule(std::make_unique<NondeterministicIterationRule>());
  }
  if (wanted("raw-randomness")) AddRule(std::make_unique<RawRandomnessRule>());
  if (wanted("raw-threading")) AddRule(std::make_unique<RawThreadingRule>());
  if (wanted("hot-path-hashing")) {
    AddRule(std::make_unique<HotPathHashingRule>());
  }
  if (wanted("hot-path-allocation")) {
    AddRule(std::make_unique<HotPathAllocationRule>());
  }
  if (wanted("shared-core-mutation")) {
    AddRule(std::make_unique<SharedCoreMutationRule>());
  }
  if (wanted("epoch-protocol")) {
    AddRule(std::make_unique<EpochProtocolRule>());
  }
}

void Linter::AddRule(std::unique_ptr<Rule> rule) {
  rules_.push_back(std::move(rule));
}

std::vector<std::string> Linter::RuleNames() const {
  std::vector<std::string> names;
  for (const auto& rule : rules_) names.emplace_back(rule->name());
  return names;
}

std::vector<std::pair<std::string, std::string>> Linter::RuleDescriptions()
    const {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& rule : rules_) {
    out.emplace_back(std::string(rule->name()),
                     std::string(rule->description()));
  }
  return out;
}

LintReport Linter::Run(const std::vector<SourceFile>& files) {
  LintReport report;
  report.files_checked = files.size();
  for (const auto& rule : rules_) {
    for (const SourceFile& file : files) rule->Collect(file);
  }

  // Build the shared semantic model only when a registered rule asked for
  // it — token-level rules keep their zero-cost path.
  bool needs_model = false;
  for (const auto& rule : rules_) {
    if (rule->wants_semantic_model()) needs_model = true;
  }
  SemanticModel model;
  if (needs_model) {
    for (const SourceFile& file : files) model.AddFile(file);
    model.Finalize();
    for (const auto& rule : rules_) {
      if (rule->wants_semantic_model()) rule->BindModel(&model);
    }
  }

  // Check phase: every file gets its own diagnostic slot; the final sort
  // fixes the report's order.
  std::vector<std::vector<Diagnostic>> slots(files.size());
  for (size_t i = 0; i < files.size(); ++i) {
    for (const auto& rule : rules_) rule->Check(files[i], &slots[i]);
  }
  if (needs_model) {
    for (const auto& rule : rules_) {
      if (rule->wants_semantic_model()) rule->BindModel(nullptr);
    }
  }

  std::map<std::string_view, const SourceFile*> by_path;
  for (const SourceFile& file : files) by_path.emplace(file.path(), &file);
  std::vector<Diagnostic> raw;
  for (std::vector<Diagnostic>& slot : slots) {
    for (Diagnostic& diag : slot) raw.push_back(std::move(diag));
  }
  for (Diagnostic& diag : raw) {
    auto it = by_path.find(diag.file);
    if (it != by_path.end() &&
        it->second->IsSuppressed(diag.rule, diag.line)) {
      ++report.suppressed;
      continue;
    }
    report.diagnostics.push_back(std::move(diag));
  }
  std::sort(report.diagnostics.begin(), report.diagnostics.end());
  return report;
}

Result<LintReport> Linter::RunOnFiles(const std::vector<std::string>& files) {
  std::vector<SourceFile> sources;
  sources.reserve(files.size());
  for (const std::string& path : files) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::NotFound("cannot read " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    sources.emplace_back(path, std::move(buffer).str());
  }
  return Run(sources);
}

Result<LintReport> Linter::RunOnPaths(const std::vector<std::string>& paths) {
  Result<std::vector<std::string>> files = CollectSourceFiles(paths);
  if (!files.ok()) return files.status();
  return RunOnFiles(*files);
}

Result<std::vector<std::string>> CollectSourceFiles(
    const std::vector<std::string>& paths) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const std::string& path : paths) {
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      for (fs::recursive_directory_iterator it(path, ec), end;
           !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file() && HasSourceExtension(it->path())) {
          files.push_back(it->path().generic_string());
        }
      }
      if (ec) {
        return Status::Internal("error walking " + path + ": " +
                                ec.message());
      }
    } else if (fs::is_regular_file(path, ec)) {
      if (!HasSourceExtension(path)) {
        return Status::InvalidArgument(path + " is not a C++ source file");
      }
      files.push_back(path);
    } else {
      return Status::InvalidArgument(path + ": no such file or directory");
    }
  }
  // Deterministic order regardless of directory-entry order.
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

}  // namespace lint
}  // namespace delprop
