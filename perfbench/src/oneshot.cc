// The oneshot workload: the paper's problem solved once per instance, in a
// single thread. Every operation loads one instance from text, builds it
// (evaluate, create, compile) and runs one solver; each instance runs once
// per solver of its family:
//
//   forest  path schema, ‖V‖ 243-972           primal-dual, lowdeg-tree, dp-tree
//   star    star join, 20-100 facts            ilp, exact, rbsc-lowdeg
//   rbsc    Theorem-1 RBSC lift, 24-72 sets    ilp, exact, rbsc-lowdeg
//   trap    greedy-trap chain, 8-14 gadgets    ilp, exact, greedy
//
// Instances cycle through the families and through a fixed size grid per
// family; the seed only drives their contents. Answers are verified with
// EvaluateDeletion and cross-checked across the solvers of one instance.
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dp/solver.h"
#include "hypergraph/data_forest.h"
#include "instance_text.h"
#include "reductions/rbsc_to_vse.h"
#include "solvers/solver_registry.h"
#include "workload/path_schema.h"
#include "workload/random_rbsc.h"
#include "workload/star_schema.h"
#include "workload/trap_chain.h"
#include "workloads.h"

namespace perfbench {
namespace {

using delprop::Result;
using delprop::Status;
using delprop::VseSolution;

enum Family { kForest = 0, kStar = 1, kRbsc = 2, kTrap = 3 };
const char* const kFamilyNames[4] = {"forest", "star", "rbsc", "trap"};
const char* const kFamilySolvers[4][3] = {
    {"primal-dual", "lowdeg-tree", "dp-tree"},
    {"ilp", "exact", "rbsc-lowdeg"},
    {"ilp", "exact", "rbsc-lowdeg"},
    {"ilp", "exact", "greedy"}};

struct ForestSize {
  size_t levels, roots, fanout;
};
// ‖V‖ = (levels - 1) * roots * fanout^(levels - 1).
const ForestSize kForestGrid[] = {{4, 3, 3}, {4, 6, 3}, {5, 2, 3}, {5, 3, 3}};
// Size caps keep every run steady and every ilp solve far below its 2 s
// registry deadline: ilp takes 70-370 ms on 120-160-fact stars depending on
// the seed, and ~0.4 s on average (with a long tail) on 96-set lifts. The
// trap grid puts exact on the 14-gadget chain (deterministic, the slowest
// operation) at ~2% of operations, so latency_p99 lies inside that cluster.
const size_t kStarGrid[] = {20, 30, 40, 50, 60, 70, 80, 100};
const size_t kRbscGrid[] = {24, 40, 56, 72};
const size_t kTrapGrid[] = {8, 10, 12, 14};
// Instances per full pass over every family's grid; untraced runs stop at
// a pass boundary, so every run has the same mix of operations.
constexpr size_t kPass = 32;

template <typename T, size_t N>
const T& Cycle(const T (&grid)[N], size_t j) {
  return grid[j % N];
}

struct Instance {
  Family family = kForest;
  std::string size;
  InstanceText text;
};

// Instance k of the corpus: family k % 4, the (k / 4)-th grid size of that
// family, contents from a per-instance seed.
Result<Instance> MakeInstance(uint64_t seed, size_t k, bool smoke) {
  Instance out;
  out.family = static_cast<Family>(k % 4);
  size_t j = k / 4;
  delprop::Rng rng(delprop::DeriveTaskSeed(seed, k));
  Result<delprop::GeneratedVse> generated = Status::Internal("no family");
  switch (out.family) {
    case kForest: {
      ForestSize size = smoke ? ForestSize{3, 2, 2} : Cycle(kForestGrid, j);
      delprop::PathSchemaParams params;
      params.levels = size.levels;
      params.roots = size.roots;
      params.fanout = size.fanout;
      params.deletion_fraction = 0.1;
      generated = delprop::GeneratePathSchema(rng, params);
      out.size = "levels " + std::to_string(size.levels) + " roots " +
                 std::to_string(size.roots) + " fanout " +
                 std::to_string(size.fanout);
      break;
    }
    case kStar: {
      delprop::StarSchemaParams params;
      params.dimensions = 3;
      params.dimension_rows = 6;
      params.fact_rows = smoke ? 12 : Cycle(kStarGrid, j);
      params.deletion_fraction = 0.15;
      generated = delprop::GenerateStarSchema(rng, params);
      out.size = std::to_string(params.fact_rows) + " facts";
      break;
    }
    case kRbsc: {
      size_t sets = smoke ? 8 : Cycle(kRbscGrid, j);
      delprop::RandomRbscParams params;
      params.set_count = sets;
      params.red_count = sets;
      params.blue_count = sets / 2;
      params.reds_per_set = 2.0;
      params.blues_per_set = 2.0;
      generated = delprop::ReduceRbscToVse(
          delprop::GenerateRandomRbsc(rng, params));
      out.size = std::to_string(sets) + " sets";
      break;
    }
    case kTrap: {
      size_t gadgets = smoke ? 3 : Cycle(kTrapGrid, j);
      generated = delprop::MakeTrapChain(gadgets);
      out.size = std::to_string(gadgets) + " gadgets";
      break;
    }
  }
  if (!generated.ok()) return generated.status();
  out.text = RenderInstance(*generated->instance);
  return out;
}

struct OpResult {
  Result<VseSolution> result = Status::Internal("not run");
  double wall_ms = 0.0;
  double build_ms = 0.0;
  size_t max_arity = 0;
  size_t view_tuples = 0;
  size_t deletion_tuples = 0;
  bool unique_witness = false;
  std::string problem;  // verification failure, "" if the answer checks out
};

// One operation: text → compiled instance → solver → answer, then the
// (untimed) EvaluateDeletion check.
OpResult RunOp(const Instance& instance, const std::string& solver_name,
               Tracer* tracer, LoadCounts* counts) {
  OpResult op;
  Clock::time_point start = Clock::now();
  Result<LoadedInstance> loaded = Status::Internal("not loaded");
  {
    Tracer::Scope scope(tracer, "op.oneshot");
    loaded = LoadInstance(instance.text, tracer, counts);
    op.build_ms = MsSince(start);
    if (loaded.ok()) {
      std::unique_ptr<delprop::VseSolver> solver = Traced(
          tracer, "solvers.make", [&] { return delprop::MakeSolver(solver_name); });
      std::string span = (solver_name == "ilp" ? "ilp.solve."
                                               : "solvers." + solver_name + ".") +
                         kFamilyNames[instance.family];
      op.result = Traced(tracer, span,
                         [&] { return solver->Solve(*loaded->instance); });
    } else {
      op.result = loaded.status();
    }
  }
  op.wall_ms = MsSince(start);
  if (op.result.ok()) {
    const delprop::VseInstance& built = *loaded->instance;
    op.problem = VerifyAnswer(built, *op.result);
    op.max_arity = built.max_arity();
    op.view_tuples = built.TotalViewTuples();
    op.deletion_tuples = built.TotalDeletionTuples();
    op.unique_witness = built.all_unique_witness();
  }
  return op;
}

// Cross-checks the three operations of one instance: certified ilp/exact
// costs agree, no solver beats the certified optimum, the approximators
// stay within their paper bounds, and dp-tree is no worse than the other
// tree algorithms. Returns one problem per operation ("" when fine).
std::vector<std::string> CrossCheck(Family family,
                                    const std::vector<std::string>& names,
                                    const std::vector<OpResult>& ops) {
  constexpr double kEps = 1e-6;
  std::vector<std::string> problems(ops.size());
  auto cost = [&](size_t i) { return ops[i].result->Cost(); };
  bool have_opt = false;
  double opt = 0.0;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!ops[i].result.ok() || !ops[i].result->gap.optimal) continue;
    if (have_opt && std::abs(cost(i) - opt) > kEps) {
      problems[i] = names[i] + " certified " + std::to_string(cost(i)) +
                    " but another solver certified " + std::to_string(opt);
    }
    have_opt = true;
    opt = cost(i);
  }
  if (family == kForest) {
    // dp-tree (Algorithm 4) is exact on pivot forests: it is the optimum
    // the tree approximators are held to.
    for (size_t i = 0; i < ops.size(); ++i) {
      if (names[i] == "dp-tree" && ops[i].result.ok()) {
        have_opt = true;
        opt = cost(i);
      }
    }
  }
  if (!have_opt) return problems;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!ops[i].result.ok() || !problems[i].empty()) continue;
    const OpResult& op = ops[i];
    double c = cost(i);
    double bound = 0.0;
    const char* claim = "";
    if (names[i] == "primal-dual") {
      bound = static_cast<double>(op.max_arity) * opt;
      claim = "Theorem 3 (l * OPT)";
    } else if (names[i] == "lowdeg-tree") {
      bound = 2.0 * std::sqrt(static_cast<double>(op.view_tuples)) *
              std::max(opt, 1.0);
      claim = "Theorem 4 (2 sqrt(|V|) * OPT)";
    } else if (names[i] == "rbsc-lowdeg" && op.unique_witness) {
      double l = static_cast<double>(op.max_arity);
      double v = static_cast<double>(op.view_tuples);
      double dv = static_cast<double>(op.deletion_tuples);
      bound = 2.0 * std::sqrt(l * v * std::log(std::max(2.0, dv))) *
              std::max(opt, 1.0);
      claim = "Claim 1";
    }
    if (c < opt - kEps) {
      problems[i] = names[i] + " cost " + std::to_string(c) +
                    " beats the optimum " + std::to_string(opt);
    } else if (bound > 0.0 && c > bound + kEps) {
      problems[i] = names[i] + " cost " + std::to_string(c) + " exceeds " +
                    claim + " = " + std::to_string(bound);
    }
  }
  return problems;
}

struct OneshotRun {
  std::vector<std::pair<size_t, size_t>> ops;  // (instance, solver slot)
  std::vector<double> wall_ms;
  std::vector<double> build_ms;
  double side_effect = 0.0;
  size_t side_effect_ops = 0;
  size_t certifying = 0;
  size_t certified = 0;
  uint64_t fingerprint = 0;
  size_t instances = 0;
  LoadCounts load;
  std::map<std::string, double> counts;  // deterministic search counters
};

// Runs instances of the corpus in order (all three solvers of one instance,
// then the next) until `seconds` pass or `max_instances` are done; with
// `replay` set, runs exactly the operations listed there instead. Instances
// are generated on demand (untimed) and dropped after their operations.
void RunCorpus(uint64_t seed, bool smoke, double seconds,
               size_t max_instances, size_t min_ops, size_t side_effect_ops,
               const OneshotRun* replay, Tracer* tracer, OneshotRun* run,
               Report* report) {
  Fingerprint fp;
  CpuRotation rotation;
  Clock::time_point start = Clock::now();
  size_t replay_pos = 0;
  for (size_t k = 0;; ++k) {
    if (replay != nullptr) {
      if (replay_pos >= replay->ops.size()) break;
    } else if (max_instances > 0
                   ? k >= max_instances
                   : k % kPass == 0 && MsSince(start) >= seconds * 1000.0 &&
                         run->side_effect_ops >= side_effect_ops &&
                         run->ops.size() >= min_ops) {
      break;
    }
    if (k % kPass == 0) rotation.Next();
    Result<Instance> made = MakeInstance(seed, k, smoke);
    if (!made.ok()) {
      report->Incorrect("generator: " + made.status().ToString());
      return;
    }
    const Instance& instance = *made;
    std::vector<std::string> names;
    std::vector<OpResult> ops;
    for (size_t s = 0; s < 3; ++s) {
      if (replay != nullptr) {
        if (replay_pos >= replay->ops.size() ||
            replay->ops[replay_pos].first != k) {
          break;
        }
        ++replay_pos;
      }
      names.push_back(kFamilySolvers[instance.family][s]);
      ops.push_back(RunOp(instance, names.back(), tracer, &run->load));
      run->ops.emplace_back(k, s);
    }
    if (tracer != nullptr && instance.family == kForest && !ops.empty()) {
      // Probe: the data forest of the same instance, outside any operation.
      Tracer::Scope probe(tracer, "probe");
      Result<LoadedInstance> loaded = LoadInstance(instance.text, nullptr,
                                                   nullptr);
      if (loaded.ok()) {
        Traced(tracer, "hypergraph.forest_build", [&] {
          return delprop::DataForest::Build(
                     loaded->instance->ViewPointers())
              .is_forest();
        });
      }
    }
    std::vector<std::string> cross =
        CrossCheck(instance.family, names, ops);
    for (size_t i = 0; i < ops.size(); ++i) {
      const OpResult& op = ops[i];
      fp.Mix(op.result);
      run->wall_ms.push_back(op.wall_ms);
      run->build_ms.push_back(op.build_ms);
      bool certifying = names[i] == "ilp" || names[i] == "exact";
      CountAnswer(op.result, op.problem.empty() ? cross[i] : op.problem,
                  names[i] + " on " + kFamilyNames[instance.family] + " " +
                      instance.size,
                  report);
      if (certifying) ++run->certifying;
      if (!op.result.ok()) continue;
      if (certifying && op.result->gap.optimal) ++run->certified;
      if (run->side_effect_ops < side_effect_ops) {
        run->side_effect += op.result->Cost();
        ++run->side_effect_ops;
      }
      const delprop::OptimalityGap& gap = op.result->gap;
      if (names[i] == "ilp") {
        run->counts["ilp.nodes"] += static_cast<double>(gap.nodes);
        run->counts["ilp.certified"] += gap.optimal ? 1.0 : 0.0;
        run->counts["ilp.deadline_hits"] += gap.deadline_hit ? 1.0 : 0.0;
      } else if (names[i] == "exact") {
        run->counts["solvers.exact.nodes"] += static_cast<double>(gap.nodes);
        run->counts["solvers.exact.budget_hits"] += gap.budget_hit ? 1.0 : 0.0;
      }
    }
  }
  run->fingerprint = fp.value();
  run->instances = run->ops.empty() ? 0 : run->ops.back().first + 1;
}

// The set-up corpus for setup_s: one instance per grid size per family,
// built (text → compiled plan) once per pass.
double SetupPass(const std::vector<Instance>& corpus, CpuRotation* rotation) {
  rotation->Next();
  Clock::time_point start = Clock::now();
  for (const Instance& instance : corpus) {
    Result<LoadedInstance> loaded = LoadInstance(instance.text, nullptr,
                                                 nullptr);
    if (!loaded.ok()) return -1.0;
  }
  return MsSince(start) / 1000.0;
}

}  // namespace

int RunOneshot(const RunConfig& config, Report* report) {
  const size_t kSideEffectOps = config.smoke ? 12 : 2 * kPass * 3;
  report->Param("families",
                "forest |V| 243-972 (primal-dual, lowdeg-tree, dp-tree); "
                "star 20-100 facts, rbsc lift 24-72 sets (ilp, exact, "
                "rbsc-lowdeg); trap 8-14 gadgets (ilp, exact, greedy)");
  report->Param("workers", 1.0);
  report->Param("delta_v_classes", "generator ΔV (forest 10%, star 15%, "
                                   "rbsc blue views, trap 2 per gadget)");

  // Set-up corpus: the first 32 instances cover every grid size.
  std::vector<Instance> corpus;
  size_t setup_instances = config.smoke ? 4 : 32;
  for (size_t k = 0; k < setup_instances; ++k) {
    Result<Instance> made = MakeInstance(config.seed, k, config.smoke);
    if (!made.ok()) {
      std::fprintf(stderr, "generator: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    corpus.push_back(std::move(*made));
  }
  std::vector<double> setup_s;
  CpuRotation rotation;
  for (int pass = 0; pass < (config.trace ? 1 : 5); ++pass) {
    double seconds = SetupPass(corpus, &rotation);
    if (seconds < 0.0) {
      std::fprintf(stderr, "set-up corpus failed to load\n");
      return 1;
    }
    setup_s.push_back(seconds);
  }

  size_t max_instances = config.smoke ? 8 : 0;
  OneshotRun run;
  // Untraced runs carry at least 1,000 operations, so that latency_p99
  // has ten samples beyond it.
  size_t min_ops = config.trace || config.smoke ? 0 : 1000;
  corpus.clear();
  RunCorpus(config.seed, config.smoke,
            config.trace ? config.seconds * 0.3 : config.seconds,
            max_instances, min_ops, kSideEffectOps, nullptr, nullptr, &run,
            report);
  report->Param("instances", static_cast<double>(run.instances));

  if (!config.trace) {
    double busy_s = Sum(run.wall_ms) / 1000.0;
    report->Set("setup_s", Median(setup_s), "s");
    report->Set("throughput_rps",
                busy_s > 0.0 ? static_cast<double>(run.wall_ms.size()) / busy_s
                             : 0.0,
                "requests/s");
    report->Set("latency_p50_ms", Percentile(run.wall_ms, 0.50), "ms");
    report->Set("latency_p99_ms", Percentile(run.wall_ms, 0.99), "ms");
    report->Set("delta_p50_ms", Percentile(run.build_ms, 0.50), "ms");
    report->Set("delta_p99_ms", Percentile(run.build_ms, 0.99), "ms");
    report->Set("side_effect", run.side_effect, "weight");
    report->Set("certified_frac",
                run.certifying > 0 ? static_cast<double>(run.certified) /
                                         static_cast<double>(run.certifying)
                                   : 0.0,
                "ratio");
    report->Set("ok_frac",
                report->attempted() > 0
                    ? static_cast<double>(report->attempted() -
                                          report->failed()) /
                          static_cast<double>(report->attempted())
                    : 0.0,
                "ratio");
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
    std::printf(
        "samples: %zu operations over %zu instances (latency p99 has %zu "
        "beyond, build p99 %zu beyond); side_effect over the first %zu "
        "answers; certified %zu/%zu ilp+exact operations; failed %llu/%llu\n",
        run.wall_ms.size(), run.instances, CountBeyond(run.wall_ms, 0.99),
        CountBeyond(run.build_ms, 0.99), run.side_effect_ops, run.certified,
        run.certifying, static_cast<unsigned long long>(report->failed()),
        static_cast<unsigned long long>(report->attempted()));
    std::printf("fingerprint: %s\n", Hex(run.fingerprint).c_str());
    return 0;
  }

  // Traced run: replay the same operations twice with spans.
  Report scratch_report;
  Tracer tracer;
  OneshotRun first;
  RunCorpus(config.seed, config.smoke, 0.0, 0, 0, kSideEffectOps, &run,
            &tracer, &first, &scratch_report);
  Tracer second_tracer;
  OneshotRun second;
  RunCorpus(config.seed, config.smoke, 0.0, 0, 0, kSideEffectOps, &run,
            &second_tracer, &second, &scratch_report);
  std::printf("fingerprints: untraced %s, replay %s, replay %s\n",
              Hex(run.fingerprint).c_str(), Hex(first.fingerprint).c_str(),
              Hex(second.fingerprint).c_str());
  if (first.fingerprint != run.fingerprint ||
      second.fingerprint != run.fingerprint) {
    std::fprintf(stderr, "determinism self-check failed: the traced replay "
                         "does not reproduce the untraced outcomes\n");
    return 3;
  }
  if (!(first.load == second.load) || first.counts != second.counts) {
    std::fprintf(stderr, "determinism self-check failed: EvalStats or "
                         "ilp/exact node counts differ between two traced "
                         "replays\n");
    return 3;
  }
  std::map<std::string, double> values = first.counts;
  values["tool.rows"] = static_cast<double>(first.load.rows);
  values["query.rows_scanned"] = static_cast<double>(first.load.rows_scanned);
  values["query.matches"] = static_cast<double>(first.load.matches);
  values["query.indexes_built"] =
      static_cast<double>(first.load.indexes_built);
  double untraced_ms = Sum(run.wall_ms);
  double traced_ms = Sum(first.wall_ms);
  values["trace.span_coverage"] = tracer.OperationCoverage();
  values["trace.overhead_ms"] = traced_ms - untraced_ms;
  values["trace.overhead_frac"] =
      untraced_ms > 0.0 ? traced_ms / untraced_ms - 1.0 : 0.0;
  values["trace.replay_ops"] = static_cast<double>(run.ops.size());
  ReportPerLayer(tracer, values, report);
  std::printf("span coverage: %.4f of %.1f ms operation wall (probes "
              "excluded); tracing overhead %.1f ms (traced %.1f ms vs "
              "untraced %.1f ms)\n",
              tracer.OperationCoverage(), traced_ms, traced_ms - untraced_ms,
              traced_ms, untraced_ms);
  std::string path = config.out_dir + "/trace-oneshot-seed" +
                     std::to_string(config.seed) + ".json";
  if (!config.out_dir.empty() && tracer.WriteChromeJson(path)) {
    std::printf("trace: %s (%zu spans)\n", path.c_str(),
                tracer.spans().size());
  }
  return 0;
}

}  // namespace perfbench
