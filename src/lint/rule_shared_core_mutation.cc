#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "lint/rules.h"
#include "lint/semantic_model.h"

namespace delprop {
namespace lint {
namespace {

bool IsIdent(const Token& t) { return t.kind == TokenKind::kIdentifier; }

const std::unordered_set<std::string_view>& MutatingMethods() {
  static const std::unordered_set<std::string_view> kSet = {
      "push_back", "emplace_back", "pop_back", "resize", "assign",
      "clear",     "reserve",      "erase",    "insert", "emplace",
      "swap",      "shrink_to_fit"};
  return kSet;
}

const std::unordered_set<std::string_view>& AssignmentOps() {
  static const std::unordered_set<std::string_view> kSet = {
      "=",  "+=", "-=",  "*=",  "/=", "%=", "&=",
      "|=", "^=", "<<=", ">>=", "++", "--"};
  return kSet;
}

// Index just past a matched bracket group opening at `open`, or toks.size().
size_t SkipGroup(const std::vector<Token>& toks, size_t open,
                 std::string_view open_text, std::string_view close_text) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kPunct) continue;
    if (toks[i].text == open_text) ++depth;
    if (toks[i].text == close_text && --depth == 0) return i + 1;
  }
  return toks.size();
}

}  // namespace

SharedCoreMutationRule::SharedCoreMutationRule(
    std::vector<std::string> core_types,
    std::vector<std::string> mutation_points,
    std::vector<std::string> submit_exempt_paths)
    : core_types_(std::move(core_types)),
      mutation_points_(std::move(mutation_points)),
      submit_exempt_paths_(std::move(submit_exempt_paths)) {}

std::vector<std::string> SharedCoreMutationRule::DefaultMutationPoints() {
  // BuildCore/FinishCore fill a core before publication (a new one, or a
  // dropped one BuildCore holds the only reference to, through its
  // const_pointer_cast), and nothing writes it after; BuildFromCore owns
  // the overlay (including the sole-owner recycle const_cast).
  return {"BuildCore", "FinishCore", "BuildFromCore"};
}

bool SharedCoreMutationRule::Allowlisted(const SourceFile& file,
                                         size_t token_index) const {
  if (model_ == nullptr) return false;
  const FunctionInfo* fn =
      model_->EnclosingFunction(file.path(), token_index);
  if (fn == nullptr) return false;
  return std::find(mutation_points_.begin(), mutation_points_.end(),
                   fn->name) != mutation_points_.end();
}

void SharedCoreMutationRule::Check(const SourceFile& file,
                                   std::vector<Diagnostic>* out) const {
  const std::vector<Token>& toks = file.tokens();
  const size_t n = toks.size();
  auto is_core_type = [this](const Token& t) {
    for (const std::string& type : core_types_) {
      if (t.Is(type)) return true;
    }
    return false;
  };

  // Pass 1: collect variables declared with a mutable core type, and flag
  // const_cast / const_pointer_cast gateways directly.
  std::unordered_set<std::string> tracked;
  for (size_t i = 0; i < n; ++i) {
    if (!IsIdent(toks[i]) || !is_core_type(toks[i])) continue;
    bool const_qualified = i > 0 && toks[i - 1].Is("const");
    bool after_class_key =
        i > 0 && (toks[i - 1].Is("class") || toks[i - 1].Is("struct"));
    if (i >= 3 && toks[i - 1].Is("<") &&
        (toks[i - 2].Is("const_cast") ||
         toks[i - 2].Is("const_pointer_cast"))) {
      // const_cast<PlanCore&>/<CompiledInstance*> and
      // const_pointer_cast<PlanCore> — the only ways to write through the
      // shared pointer.
      if (!Allowlisted(file, i)) {
        out->push_back(Diagnostic{
            file.path(), toks[i].line, std::string(name()),
            std::string(toks[i - 2].text) + " to mutable " +
                std::string(toks[i].text) +
                " outside a sanctioned mutation point (allowed: BuildCore/"
                "FinishCore/BuildFromCore)"});
      }
      continue;
    }
    if (const_qualified || after_class_key) continue;
    // `Type* name` / `Type& name` (parameters and locals).
    if (i + 2 < n && (toks[i + 1].Is("*") || toks[i + 1].Is("&")) &&
        IsIdent(toks[i + 2])) {
      tracked.insert(std::string(toks[i + 2].text));
      continue;
    }
    // `shared_ptr<Type> name`, or `name = {make_shared,shared_ptr}<Type>(...`.
    if (i >= 2 && toks[i - 1].Is("<") &&
        (toks[i - 2].Is("shared_ptr") || toks[i - 2].Is("make_shared")) &&
        i + 1 < n && toks[i + 1].Is(">")) {
      if (i + 2 < n && IsIdent(toks[i + 2])) {
        tracked.insert(std::string(toks[i + 2].text));
      } else if (i + 2 < n && toks[i + 2].Is("(")) {
        // Walk back over `std::` to the `name =` that receives the result.
        size_t back = i - 2;
        if (back >= 2 && toks[back - 1].Is("::") && toks[back - 2].Is("std")) {
          back -= 2;
        }
        if (back >= 2 && toks[back - 1].Is("=") && IsIdent(toks[back - 2])) {
          tracked.insert(std::string(toks[back - 2].text));
        }
      }
    }
  }

  // Pass 2: writes through tracked variables, outside the allowlist.
  for (size_t i = 0; i + 1 < n; ++i) {
    if (!IsIdent(toks[i]) ||
        tracked.count(std::string(toks[i].text)) == 0) {
      continue;
    }
    if (!toks[i + 1].Is(".") && !toks[i + 1].Is("->")) continue;
    // Walk the member chain: name{./->}member([...])* and see how it ends.
    size_t j = i + 1;
    bool mutation = false;
    std::string detail;
    while (j < n) {
      if (toks[j].Is(".") || toks[j].Is("->")) {
        ++j;
        if (j >= n || !IsIdent(toks[j])) break;
        if (MutatingMethods().count(toks[j].text) > 0 && j + 1 < n &&
            toks[j + 1].Is("(")) {
          mutation = true;
          detail = "mutating call ." + std::string(toks[j].text) + "()";
        }
        ++j;
        continue;
      }
      if (toks[j].Is("[")) {
        j = SkipGroup(toks, j, "[", "]");
        continue;
      }
      break;
    }
    if (!mutation && j < n && toks[j].kind == TokenKind::kPunct &&
        AssignmentOps().count(toks[j].text) > 0) {
      mutation = true;
      detail = "field write via '" + std::string(toks[j].text) + "'";
    }
    if (mutation && !Allowlisted(file, i)) {
      out->push_back(Diagnostic{
          file.path(), toks[i].line, std::string(name()),
          detail + " on shared-core variable '" + std::string(toks[i].text) +
              "' outside a sanctioned mutation point (allowed: BuildCore/"
              "FinishCore/BuildFromCore)"});
    }
  }

  // Pass 3: ThreadPool::Submit lambdas capturing by reference. ParallelFor
  // blocks until every body finishes, so its `[&]` is exempt by
  // construction (the pattern only matches Submit).
  if (!PathHasAnyPrefix(file.path(), submit_exempt_paths_)) {
    for (size_t i = 1; i + 2 < n; ++i) {
      if (!toks[i].Is("Submit")) continue;
      if (!toks[i - 1].Is(".") && !toks[i - 1].Is("->")) continue;
      if (!toks[i + 1].Is("(") || !toks[i + 2].Is("[")) continue;
      size_t capture_end = SkipGroup(toks, i + 2, "[", "]");
      for (size_t k = i + 3; k + 1 < capture_end; ++k) {
        if (toks[k].Is("&")) {
          out->push_back(Diagnostic{
              file.path(), toks[i].line, std::string(name()),
              "task lambda passed to ThreadPool::Submit captures by "
              "reference; Submit does not block, so the capture can outlive "
              "its frame — capture by value or Wait() before the frame "
              "exits"});
          break;
        }
      }
    }
  }
}

}  // namespace lint
}  // namespace delprop
