// The benchmark's workloads and the metric names they report.
//
//   serve    read-mostly batch serving on the 100x path-schema forest;
//   live     interactive cleaning with live base deltas on the 10x forest;
//   oneshot  one certified or approximate solve per instance, from text.
//
// Every workload reports every end-to-end metric (tracing off) and, in a
// traced run, every per-layer metric (0 where a layer does not run).
#ifndef DELPROP_PERFBENCH_WORKLOADS_H_
#define DELPROP_PERFBENCH_WORKLOADS_H_

#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "trace.h"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

/// Each returns 0 on success; a nonzero code means the run could not
/// complete (set-up failed or a determinism self-check broke) and no result
/// line may be printed.
int RunServe(const RunConfig& config, Report* report);
int RunLive(const RunConfig& config, Report* report);
int RunOneshot(const RunConfig& config, Report* report);

/// Copies the per-layer numbers of a traced run into `report`: span self
/// times by name (mapped onto metric names), plus `counts`, which holds the
/// non-span per-layer values by metric name. Missing metrics report 0.
void ReportPerLayer(const Tracer& tracer,
                    const std::map<std::string, double>& counts,
                    Report* report);

}  // namespace perfbench

#endif  // DELPROP_PERFBENCH_WORKLOADS_H_
