#include <string>
#include <unordered_set>
#include <vector>

#include "lint/rules.h"
#include "lint/semantic_model.h"

namespace delprop {
namespace lint {
namespace {

bool IsIdent(const Token& t) { return t.kind == TokenKind::kIdentifier; }

bool IsCall(const std::vector<Token>& toks, size_t i, std::string_view name) {
  return toks[i].Is(name) && i + 1 < toks.size() && toks[i + 1].Is("(");
}

// VseInstance entry points that change what the compiled plan must reflect.
const std::unordered_set<std::string_view>& Mutators() {
  static const std::unordered_set<std::string_view> kSet = {
      "ApplyDelta", "SetWeight", "MarkForDeletion", "MarkForDeletionByValues",
      "ResetDeletions"};
  return kSet;
}

}  // namespace

EpochProtocolRule::EpochProtocolRule(std::vector<std::string> serving_paths)
    : serving_paths_(std::move(serving_paths)) {}

void EpochProtocolRule::Check(const SourceFile& file,
                              std::vector<Diagnostic>* out) const {
  if (model_ == nullptr) return;
  const std::vector<size_t>* indices = model_->FunctionsInFile(file.path());
  if (indices == nullptr) return;
  const std::vector<Token>& toks = file.tokens();
  const bool serving = PathHasAnyPrefix(file.path(), serving_paths_);

  for (size_t idx : *indices) {
    const FunctionInfo& fn = model_->functions()[idx];

    // Check 1 — Rebind/ReleasePlan pairing in the serving layers: a ΔV swap
    // must see a plan release after the most recent tracker acquire.
    // Without it the pooled tracker still references the plan being
    // retired, so the rebuild cannot recycle its overlay buffers.
    if (serving) {
      size_t last_release = 0;
      bool released = false;
      for (size_t k = fn.body_begin; k < fn.body_end; ++k) {
        if (!IsIdent(toks[k])) continue;
        if (IsCall(toks, k, "ReleasePlans") || IsCall(toks, k, "ReleasePlan")) {
          released = true;
          last_release = k;
          continue;
        }
        if (k + 2 < fn.body_end && toks[k].Is("plan_") &&
            toks[k + 1].Is(".") && toks[k + 2].Is("reset")) {
          released = true;
          last_release = k;
          continue;
        }
        if (IsCall(toks, k, "Rebind") || IsCall(toks, k, "AcquireTracker")) {
          // A fresh acquire re-binds a plan; a later swap needs a release
          // that happens after this point.
          if (released && last_release < k) released = false;
          continue;
        }
        if (IsCall(toks, k, "ResetDeletions") || IsCall(toks, k, "ApplyDelta")) {
          // The mutator definitions themselves live outside the serving
          // layers; here this is always a call site.
          if (!released) {
            out->push_back(Diagnostic{
                file.path(), toks[k].line, std::string(name()),
                "ΔV swap (" + std::string(toks[k].text) + ") in '" +
                    fn.qualified +
                    "' without releasing pooled plans first — call "
                    "ReleasePlans()/ReleasePlan() so the retired plan's "
                    "overlay buffers can be recycled"});
          }
          continue;
        }
      }
    }

    // Check 2 — every VseInstance mutator must invalidate the compiled
    // plan. Accepted evidence: a call to InvalidateOverlayCaches,
    // delegation to another mutator, or direct plan_core maintenance (the
    // core drop in ApplyDelta and SetWeight).
    if (fn.class_name == "VseInstance" && Mutators().count(fn.name) > 0) {
      bool evidence = false;
      for (size_t k = fn.body_begin; k < fn.body_end && !evidence; ++k) {
        if (!IsIdent(toks[k])) continue;
        if (IsCall(toks, k, "InvalidateOverlayCaches")) {
          evidence = true;
        } else if (Mutators().count(toks[k].text) > 0 &&
                   toks[k].text != fn.name && k + 1 < fn.body_end &&
                   toks[k + 1].Is("(")) {
          evidence = true;  // delegates to another mutator
        } else if (toks[k].Is("plan_core")) {
          evidence = true;  // maintains the core directly
        }
      }
      if (!evidence) {
        out->push_back(Diagnostic{
            file.path(), fn.line, std::string(name()),
            "VseInstance::" + fn.name +
                " mutates instance state without invalidating the compiled "
                "plan — call InvalidateOverlayCaches(), drop plan_core, or "
                "delegate to a mutator that does"});
      }
    }

    // Check 3 — advancing the core epoch must clear the memo cache:
    // memoized results were computed against the previous core.
    bool advances_epoch = false;
    int epoch_line = fn.line;
    bool clears_cache = false;
    for (size_t k = fn.body_begin; k < fn.body_end; ++k) {
      const Token& t = toks[k];
      if (t.Is("core_epoch_")) {
        bool inc_before =
            k > 0 && (toks[k - 1].Is("++") || toks[k - 1].Is("--"));
        bool inc_after =
            k + 1 < fn.body_end &&
            (toks[k + 1].Is("++") || toks[k + 1].Is("--") ||
             toks[k + 1].Is("+=") || toks[k + 1].Is("-=") ||
             toks[k + 1].Is("="));
        if (inc_before || inc_after) {
          advances_epoch = true;
          epoch_line = t.line;
        }
      }
      if (IsIdent(t) && t.text.find("cache") != std::string_view::npos &&
          k + 3 < fn.body_end && (toks[k + 1].Is(".") || toks[k + 1].Is("->")) &&
          toks[k + 2].Is("clear") && toks[k + 3].Is("(")) {
        clears_cache = true;
      }
    }
    if (advances_epoch && !clears_cache) {
      out->push_back(Diagnostic{
          file.path(), epoch_line, std::string(name()),
          "'" + fn.qualified +
              "' advances core_epoch_ without clearing the memo cache — "
              "memoized results from the previous epoch would be served "
              "against the new core"});
    }
  }
}

}  // namespace lint
}  // namespace delprop
