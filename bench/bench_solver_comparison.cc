// Cross-cutting comparison: every standard-objective solver on every
// workload family, reporting feasibility, cost and time — the "who wins
// where" summary that situates the paper's algorithms against the baselines
// and shows each solver refusing inputs outside its precondition class.
//
// With --threads N (default 1) the solvers of each family run concurrently
// on a runtime::ThreadPool. Outputs are identical for every thread count:
// solvers are deterministic, each writes its own result slot, and rows print
// in registry order — only the per-solver wall-clock column varies.
//
// With --json <path> the run also writes a machine-readable report
// (per-solver wall-clock, instance sizes ‖V‖/‖ΔV‖/l, thread count, git
// describe) — see docs/perf.md for the schema and how to read it.
//
// With --repeat N (default 1) every family's solver pass runs N timed times
// after --warmup K (default 0) discarded runs; the reported wall-clocks are
// medians, so committed snapshots aren't single-sample noise. Solver results
// come from the last run (all runs agree — the solvers are deterministic).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "common/rng.h"
#include "common/text_table.h"
#include "query/evaluator.h"
#include "reductions/rbsc_to_vse.h"
#include "runtime/index_cache.h"
#include "runtime/thread_pool.h"
#include "solvers/solver_registry.h"
#include "workload/hardness_family.h"
#include "workload/path_schema.h"
#include "workload/random_workload.h"
#include "workload/star_schema.h"
#include "workload/trap_chain.h"

namespace delprop {
namespace {

std::vector<std::string> DefaultSolverNames() {
  return {"ilp",         "greedy",      "local-search", "rbsc-greedy",
          "rbsc-lowdeg", "primal-dual", "lowdeg-tree",  "dp-tree"};
}

/// Renders a solver's optimality-gap certificate for the text table:
/// "proved" for a certified optimum, "≤N%" for a bracketed one.
std::string FmtGap(const VseSolution& solution) {
  if (!solution.gap.has_bound) return "-";
  if (solution.gap.optimal) return "proved";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "<=%.1f%%",
                100.0 * solution.gap.RelativeGap());
  return buf;
}

void RunFamily(const char* family, const GeneratedVse& generated,
               ThreadPool* pool, const std::vector<std::string>& names,
               bench::BenchReport* report) {
  const VseInstance& instance = *generated.instance;
  std::printf("\n-- %s: ‖V‖=%zu ‖ΔV‖=%zu l=%zu %s --\n", family,
              instance.TotalViewTuples(), instance.TotalDeletionTuples(),
              instance.max_arity(),
              instance.all_key_preserving() ? "(key preserving)" : "");
  TextTable table({"solver", "status", "cost", "|ΔD|", "gap", "ms"});
  bench::FamilyRecord record;
  record.family = family;
  record.view_tuples = instance.TotalViewTuples();
  record.deletion_tuples = instance.TotalDeletionTuples();
  record.max_arity = instance.max_arity();
  for (size_t i = 0; i < report->warmup; ++i) {
    (void)RunAll(instance, pool, names);
  }
  std::vector<double> family_samples;
  std::vector<std::vector<double>> solver_samples;
  std::vector<SolverRun> runs;
  for (size_t rep = 0; rep < report->repeat; ++rep) {
    auto [rep_runs, rep_ms] =
        bench::Timed([&] { return RunAll(instance, pool, names); });
    family_samples.push_back(rep_ms);
    solver_samples.resize(rep_runs.size());
    for (size_t s = 0; s < rep_runs.size(); ++s) {
      solver_samples[s].push_back(rep_runs[s].wall_ms);
    }
    runs = std::move(rep_runs);
  }
  double family_ms = bench::Median(family_samples);
  record.total_ms = family_ms;
  for (size_t s = 0; s < runs.size(); ++s) {
    SolverRun& run = runs[s];
    run.wall_ms = bench::Median(solver_samples[s]);
    bench::SolverRecord row;
    row.solver = run.name;
    row.wall_ms = run.wall_ms;
    if (run.result.ok()) {
      row.status = run.result->Feasible() ? "ok" : "INFEASIBLE";
      row.cost = run.result->Cost();
      row.deletion_size = run.result->deletion.size();
      const OptimalityGap& gap = run.result->gap;
      row.has_gap = gap.has_bound;
      row.gap_optimal = gap.optimal;
      row.gap_lower = gap.lower_bound;
      row.gap_upper = gap.upper_bound;
      row.gap_relative = gap.RelativeGap();
      row.gap_nodes = gap.nodes;
      table.AddRow({run.name, row.status, FmtDouble(row.cost, 0),
                    std::to_string(row.deletion_size), FmtGap(*run.result),
                    FmtDouble(run.wall_ms, 2)});
    } else {
      row.status = StatusCodeName(run.result.status().code());
      table.AddRow(
          {run.name, row.status, "-", "-", "-", FmtDouble(run.wall_ms, 2)});
    }
    record.solvers.push_back(std::move(row));
  }
  table.Print();
  std::printf("family solver wall-clock: %.2f ms\n", family_ms);
  report->families.push_back(std::move(record));

  // Re-evaluate the family's queries twice against one shared IndexCache:
  // the cold pass builds every per-(relation, position) index (misses), the
  // warm pass reuses all of them (hits, zero builds) — the reuse later
  // batching/feedback rounds get for free.
  IndexCache cache;
  EvalStats cold, warm;
  for (int pass = 0; pass < 2; ++pass) {
    EvalOptions options;
    options.index_cache = &cache;
    options.stats = pass == 0 ? &cold : &warm;
    for (const auto& query : generated.queries) {
      Result<View> view = Evaluate(*generated.database, *query, options);
      if (!view.ok()) {
        std::printf("index-cache probe failed: %s\n",
                    view.status().ToString().c_str());
        return;
      }
    }
  }
  std::printf(
      "index cache: cold pass misses=%zu built=%zu | warm pass hits=%zu "
      "misses=%zu built=%zu\n",
      cold.index_cache_misses, cold.indexes_built, warm.index_cache_hits,
      warm.index_cache_misses, warm.indexes_built);
}

int Run(int argc, char** argv) {
  size_t threads = 1;
  size_t repeat = 1;
  size_t warmup = 0;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--warmup") == 0 && i + 1 < argc) {
      warmup = static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--threads N] [--repeat N] [--warmup K] "
                   "[--json PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (threads == 0) threads = 1;
  if (repeat == 0) repeat = 1;
  ThreadPool pool(threads);
  ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;

  bench::Header("Solver comparison across workload families");
  std::printf("threads: %zu  repeat: %zu  warmup: %zu\n", threads, repeat,
              warmup);
  bench::BenchReport report;
  report.bench = "solver_comparison";
  report.threads = threads;
  report.git = bench::GitDescribe();
  report.repeat = repeat;
  report.warmup = warmup;

  {
    Rng rng(1);
    PathSchemaParams params;
    params.levels = 4;
    params.roots = 2;
    params.fanout = 2;
    params.deletion_fraction = 0.25;
    Result<GeneratedVse> generated = GeneratePathSchema(rng, params);
    if (!generated.ok()) return 1;
    RunFamily("hypertree paths (all algorithms apply)", *generated, pool_ptr,
              DefaultSolverNames(), &report);
  }
  {
    Rng rng(2);
    StarSchemaParams params;
    params.dimensions = 3;
    params.fact_rows = 20;
    params.deletion_fraction = 0.25;
    Result<GeneratedVse> generated = GenerateStarSchema(rng, params);
    if (!generated.ok()) return 1;
    RunFamily("star joins (tree solvers must refuse)", *generated, pool_ptr,
              DefaultSolverNames(), &report);
  }
  {
    Rng rng(3);
    RandomWorkloadParams params;
    params.relations = 3;
    params.rows_per_relation = 10;
    params.queries = 3;
    Result<GeneratedVse> generated = GenerateRandomWorkload(rng, params);
    if (!generated.ok()) return 1;
    RunFamily("random project-free multi-query", *generated, pool_ptr,
              DefaultSolverNames(), &report);
  }
  {
    Result<GeneratedVse> generated = ReduceRbscToVse(GreedyTrapRbsc(10));
    if (!generated.ok()) return 1;
    RunFamily("Theorem 1 trap lift (k=10)", *generated, pool_ptr,
              DefaultSolverNames(), &report);
  }
  {
    // Decomposition showcase: 26 concatenated greedy-trap gadgets. The ilp
    // solver splits the chain into singleton components and certifies the
    // optimum (1.0 per gadget) in ~3 nodes each, while the greedy-family
    // heuristics sit 10% above it. The uninformed branch-and-bound's
    // blow-up stays visible in bench_table4_5_view_complexity_landscape and
    // bench_ablation_design_choices, which construct ExactSolver directly.
    Result<GeneratedVse> generated = MakeTrapChain(26);
    if (!generated.ok()) return 1;
    RunFamily("trap chain (ilp certifies per gadget)", *generated, pool_ptr,
              DefaultSolverNames(), &report);
  }
  {
    // The scaling workload: the largest stock family, sized so the solver
    // inner loops (damage tracking, greedy rescans, reductions) dominate the
    // wall-clock. Exact branch-and-bound is excluded — its node budget, not
    // its per-node cost, decides its runtime here.
    Rng rng(5);
    PathSchemaParams params;
    params.levels = 6;
    params.roots = 3;
    params.fanout = 3;
    params.deletion_fraction = 0.25;
    Result<GeneratedVse> generated = GeneratePathSchema(rng, params);
    if (!generated.ok()) return 1;
    std::vector<std::string> names = {"greedy",      "local-search",
                                      "rbsc-greedy", "rbsc-lowdeg",
                                      "primal-dual", "lowdeg-tree",
                                      "dp-tree"};
    RunFamily("large hypertree paths (scaling)", *generated, pool_ptr, names,
              &report);
  }
  std::printf(
      "\nReading guide: 'FailedPrecondition' rows are solvers refusing "
      "inputs outside their class — the dichotomy boundaries made "
      "visible.\n");
  if (!json_path.empty() && !bench::WriteBenchJson(report, json_path)) {
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace delprop

int main(int argc, char** argv) { return delprop::Run(argc, argv); }
