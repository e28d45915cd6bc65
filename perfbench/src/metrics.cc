// Metric catalogue of the benchmark (it must match BENCHMARK.json, which the
// smoke test checks) and the mapping from span names to per-layer metrics.
#include <string>
#include <string_view>

#include "workloads.h"

namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},
      {"throughput_rps", "requests/s"},
      {"latency_p50_ms", "ms"},
      {"latency_p99_ms", "ms"},
      {"delta_p50_ms", "ms"},
      {"delta_p99_ms", "ms"},
      {"side_effect", "weight"},
      {"certified_frac", "ratio"},
      {"ok_frac", "ratio"},
      {"peak_rss_mb", "MB"},
  };
  return kMetrics;
}

namespace {

// Solvers whose busy time is reported per solver; the serving mix splits
// it into point and bulk requests.
const char* const kMixSolvers[] = {"greedy", "local-search", "rbsc-greedy",
                                   "rbsc-lowdeg"};
const char* const kTreeSolvers[] = {"dp-tree", "primal-dual", "lowdeg-tree"};
const char* const kFamilies[] = {"star", "rbsc", "trap"};

std::vector<MetricSpec> BuildPerLayer() {
  // Names are stored once for the life of the program.
  static std::vector<std::string> storage;
  std::vector<std::pair<std::string, const char*>> list = {
      {"tool.load_ms", "ms"},
      {"tool.rows", "count"},
      {"query.parse_ms", "ms"},
      {"query.evaluate_ms", "ms"},
      {"query.rows_scanned", "count"},
      {"query.matches", "count"},
      {"query.indexes_built", "count"},
      {"dp.create_ms", "ms"},
      {"dp.mark_ms", "ms"},
      {"plan.compile_ms", "ms"},
      {"engine.start_ms", "ms"},
      {"dp.reset_deletions_ms", "ms"},
      {"plan.overlay_ms", "ms"},
      {"plan.full_builds", "count"},
      {"plan.core_rebinds", "count"},
      {"plan.overlay_recycles", "count"},
      {"solvers.release_plans_ms", "ms"},
      {"solvers.make_ms", "ms"},
      {"solvers.tracker_allocs", "count"},
      {"solvers.tracker_reuses", "count"},
  };
  for (const char* solver : kMixSolvers) {
    std::string base = std::string("solvers.") + solver;
    list.emplace_back(base + ".busy_ms", "ms");
    list.emplace_back(base + ".busy_ms.point", "ms");
    list.emplace_back(base + ".busy_ms.bulk", "ms");
    list.emplace_back(base + ".calls", "count");
  }
  for (const char* solver : kTreeSolvers) {
    std::string base = std::string("solvers.") + solver;
    list.emplace_back(base + ".busy_ms", "ms");
    list.emplace_back(base + ".calls", "count");
  }
  list.emplace_back("hypergraph.forest_build_ms", "ms");
  list.emplace_back("ilp.busy_ms", "ms");
  for (const char* family : kFamilies) {
    list.emplace_back(std::string("ilp.busy_ms.") + family, "ms");
  }
  list.emplace_back("ilp.busy_ms.point", "ms");
  list.emplace_back("ilp.calls", "count");
  list.emplace_back("ilp.nodes", "count");
  list.emplace_back("ilp.certified", "count");
  list.emplace_back("ilp.deadline_hits", "count");
  list.emplace_back("solvers.exact.busy_ms", "ms");
  for (const char* family : kFamilies) {
    list.emplace_back(std::string("solvers.exact.busy_ms.") + family, "ms");
  }
  list.emplace_back("solvers.exact.calls", "count");
  list.emplace_back("solvers.exact.nodes", "count");
  list.emplace_back("solvers.exact.budget_hits", "count");
  for (const char* name :
       {"dp.apply_delta_ms", "plan.patch_ms", "engine.replicate_ms",
        "engine.handoff_ms"}) {
    list.emplace_back(name, "ms");
  }
  for (const char* name :
       {"dp.view_tuples_added", "dp.view_tuples_removed",
        "dp.witnesses_added", "dp.witnesses_removed", "plan.core_patches",
        "plan.core_patch_fallbacks"}) {
    list.emplace_back(name, "count");
  }
  list.emplace_back("engine.busy_ms", "ms");
  list.emplace_back("engine.worker_idle_frac", "ratio");
  list.emplace_back("engine.self_ms", "ms");
  list.emplace_back("engine.cache_hit_ratio", "ratio");
  for (const char* name : {"engine.cache_hits", "engine.requests",
                           "engine.solver_runs", "engine.invalid_requests"}) {
    list.emplace_back(name, "count");
  }
  list.emplace_back("trace.span_coverage", "ratio");
  list.emplace_back("trace.overhead_ms", "ms");
  list.emplace_back("trace.overhead_frac", "ratio");
  list.emplace_back("trace.replay_ops", "count");

  storage.reserve(list.size());
  std::vector<MetricSpec> specs;
  for (const auto& [name, unit] : list) {
    storage.push_back(name);
    specs.push_back(MetricSpec{storage.back().c_str(), unit});
  }
  return specs;
}

}  // namespace

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = BuildPerLayer();
  return kMetrics;
}

void ReportPerLayer(const Tracer& tracer,
                    const std::map<std::string, double>& counts,
                    Report* report) {
  std::map<std::string, double> values = counts;
  // Span self time by name: "<layer>.<call>" → "<layer>.<call>_ms";
  // solver spans "solvers.<name>.<class>" and "ilp.solve.<class>" also
  // feed the per-solver total and call count.
  for (const Tracer::Span& span : tracer.spans()) {
    if (span.parent < 0) continue;
    double ms = (span.end_us - span.start_us) / 1000.0;
    std::string_view name = span.name;
    if (name.rfind("solvers.", 0) == 0 && name.find('.', 8) != name.npos) {
      size_t dot = name.find('.', 8);
      std::string solver(name.substr(0, dot));
      std::string cls(name.substr(dot + 1));
      values[solver + ".busy_ms"] += ms;
      values[solver + ".busy_ms." + cls] += ms;
      values[solver + ".calls"] += 1;
    } else if (name.rfind("ilp.solve.", 0) == 0) {
      values["ilp.busy_ms"] += ms;
      values["ilp.busy_ms." + std::string(name.substr(10))] += ms;
      values["ilp.calls"] += 1;
    }
  }
  for (const auto& [name, ms] : tracer.SelfMsByName()) {
    if (name.rfind("solvers.", 0) == 0 && name.find('.', 8) != name.npos) {
      continue;
    }
    if (name.rfind("ilp.solve.", 0) == 0) continue;
    values[name + "_ms"] += ms;
  }
  for (const MetricSpec& spec : PerLayerMetrics()) {
    auto it = values.find(spec.name);
    report->Set(spec.name, it == values.end() ? 0.0 : it->second, spec.unit);
  }
}

}  // namespace perfbench
