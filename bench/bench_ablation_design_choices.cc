// Ablation bench for the design choices DESIGN.md calls out:
//  (a) the RBSC subroutine inside the Claim 1 solver (density greedy vs
//      Peleg's LowDegTwo vs exact B&B);
//  (b) Algorithm 1's reverse-delete pass (on/off);
//  (c) Algorithm 2's red-degree threshold sweep vs the raw primal-dual.
#include <cstdio>

#include "bench_util.h"
#include "common/rng.h"
#include "common/text_table.h"
#include "dp/side_effect.h"
#include "reductions/rbsc_to_vse.h"
#include "setcover/red_blue_solvers.h"
#include "solvers/exact_solver.h"
#include "solvers/lowdeg_tree_solver.h"
#include "solvers/primal_dual_tree_solver.h"
#include "solvers/rbsc_reduction_solver.h"
#include "solvers/tree_common.h"
#include "workload/hardness_family.h"
#include "workload/path_schema.h"
#include "workload/random_workload.h"

namespace delprop {
namespace {

int AblateRbscSubroutine() {
  bench::Header("(a) RBSC subroutine inside the Claim 1 solver");
  TextTable table({"workload", "OPT", "density greedy", "LowDegTwo",
                   "exact-RBSC"});
  Rng rng(91);
  for (int trial = 0; trial < 4; ++trial) {
    RandomWorkloadParams params;
    params.relations = 3;
    params.rows_per_relation = 9;
    params.queries = 3;
    params.max_atoms = 2;
    Result<GeneratedVse> generated = GenerateRandomWorkload(rng, params);
    if (!generated.ok()) return 1;
    const VseInstance& instance = *generated->instance;
    if (!instance.all_unique_witness() ||
        instance.TotalDeletionTuples() == 0) {
      continue;
    }
    ExactSolver exact;
    RbscReductionSolver greedy_variant(SolveRbscGreedy, "rbsc-greedy");
    RbscReductionSolver lowdeg_variant;
    RbscReductionSolver exact_variant(
        [](const RbscInstance& i) { return SolveRbscExact(i); },
        "rbsc-exact");
    Result<VseSolution> opt = exact.Solve(instance);
    Result<VseSolution> g = greedy_variant.Solve(instance);
    Result<VseSolution> l = lowdeg_variant.Solve(instance);
    Result<VseSolution> e = exact_variant.Solve(instance);
    if (!bench::ProvenOptimal(opt) || !g.ok() || !l.ok() || !e.ok()) {
      continue;
    }
    table.AddRow({"random#" + std::to_string(trial),
                  FmtDouble(opt->Cost(), 0), FmtDouble(g->Cost(), 0),
                  FmtDouble(l->Cost(), 0), FmtDouble(e->Cost(), 0)});
  }
  // The trap family where the subroutine choice matters most.
  for (size_t k : {6, 10}) {
    Result<GeneratedVse> generated = ReduceRbscToVse(GreedyTrapRbsc(k));
    if (!generated.ok()) return 1;
    const VseInstance& instance = *generated->instance;
    ExactSolver exact;
    RbscReductionSolver greedy_variant(SolveRbscGreedy, "rbsc-greedy");
    RbscReductionSolver lowdeg_variant;
    RbscReductionSolver exact_variant(
        [](const RbscInstance& i) { return SolveRbscExact(i); },
        "rbsc-exact");
    Result<VseSolution> opt = exact.Solve(instance);
    Result<VseSolution> g = greedy_variant.Solve(instance);
    Result<VseSolution> l = lowdeg_variant.Solve(instance);
    Result<VseSolution> e = exact_variant.Solve(instance);
    if (!bench::ProvenOptimal(opt) || !g.ok() || !l.ok() || !e.ok()) {
      return 1;
    }
    table.AddRow({"trap k=" + std::to_string(k), FmtDouble(opt->Cost(), 0),
                  FmtDouble(g->Cost(), 0), FmtDouble(l->Cost(), 0),
                  FmtDouble(e->Cost(), 0)});
  }
  table.Print();
  std::printf("\nTakeaway: LowDegTwo equals the greedy on friendly inputs "
              "but is the component that defuses the trap family.\n");
  return 0;
}

int AblateReverseDelete() {
  bench::Header("(b) Algorithm 1 with and without reverse-delete");
  TextTable table({"levels", "fanout", "ΔV", "with RD", "without RD",
                   "deletions with", "deletions without"});
  for (auto [levels, fanout] :
       {std::pair<size_t, size_t>{3, 2}, {4, 2}, {4, 3}, {5, 2}}) {
    Rng rng(92 + levels * 10 + fanout);
    PathSchemaParams params;
    params.levels = levels;
    params.roots = 2;
    params.fanout = fanout;
    params.deletion_fraction = 0.3;
    Result<GeneratedVse> generated = GeneratePathSchema(rng, params);
    if (!generated.ok()) return 1;
    const VseInstance& instance = *generated->instance;
    std::shared_ptr<const CompiledInstance> plan = instance.compiled();
    TreeStructure structure;
    if (!structure.Build(instance, *plan, TreeMode::kDeltaPaths).ok()) {
      return 1;
    }
    PrimalDualOptions with, without;
    without.skip_reverse_delete = true;
    PrimalDualScratch scratch;
    std::vector<size_t> a, b;
    if (!PrimalDualTreeSolver::SolveOnTree(structure, with, &scratch, &a)
             .ok() ||
        !PrimalDualTreeSolver::SolveOnTree(structure, without, &scratch, &b)
             .ok()) {
      return 1;
    }
    auto cost_of = [&](const std::vector<size_t>& nodes) {
      DeletionSet deletion;
      for (size_t node : nodes) {
        deletion.Insert(structure.forest.node_ref(node));
      }
      return EvaluateDeletion(instance, deletion).side_effect_weight;
    };
    table.AddRow({std::to_string(levels), std::to_string(fanout),
                  std::to_string(instance.TotalDeletionTuples()),
                  FmtDouble(cost_of(a), 0), FmtDouble(cost_of(b), 0),
                  std::to_string(a.size()), std::to_string(b.size())});
  }
  table.Print();
  std::printf("\nTakeaway: skipping reverse-delete keeps feasibility but "
              "deletes more tuples and can only raise the side-effect.\n");
  return 0;
}

int AblateThresholdSweep() {
  bench::Header("(c) Algorithm 2/3 threshold sweep vs plain Algorithm 1");
  TextTable table({"levels", "fanout", "OPT", "primal-dual", "lowdeg-tree"});
  for (auto [levels, fanout] :
       {std::pair<size_t, size_t>{3, 2}, {3, 4}, {4, 2}, {4, 3}}) {
    Rng rng(93 + levels * 10 + fanout);
    PathSchemaParams params;
    params.levels = levels;
    params.roots = 1;
    params.fanout = fanout;
    params.deletion_fraction = 0.35;
    Result<GeneratedVse> generated = GeneratePathSchema(rng, params);
    if (!generated.ok()) return 1;
    const VseInstance& instance = *generated->instance;
    ExactSolver exact;
    PrimalDualTreeSolver pd;
    LowDegTreeSolver ld;
    Result<VseSolution> opt = exact.Solve(instance);
    Result<VseSolution> a = pd.Solve(instance);
    Result<VseSolution> b = ld.Solve(instance);
    if (!bench::ProvenOptimal(opt) || !a.ok() || !b.ok()) return 1;
    table.AddRow({std::to_string(levels), std::to_string(fanout),
                  FmtDouble(opt->Cost(), 0), FmtDouble(a->Cost(), 0),
                  FmtDouble(b->Cost(), 0)});
  }
  table.Print();
  std::printf("\nTakeaway: the τ sweep never hurts (it includes the "
              "unrestricted pass) and pays off when hub tuples are very "
              "damaging.\n");
  return 0;
}

int Run() {
  if (int rc = AblateRbscSubroutine(); rc != 0) return rc;
  if (int rc = AblateReverseDelete(); rc != 0) return rc;
  return AblateThresholdSweep();
}

}  // namespace
}  // namespace delprop

int main() { return delprop::Run(); }
