// The benchmark's input format: a workload generator's instance rendered to
// text (one CSV per relation, one datalog line per query, ΔV marks and
// weights as CSV lines), and the load path that rebuilds an instance from
// that text through the library's public functions. Only this text reaches
// timed code; the generators run before the clock starts.
#ifndef DELPROP_PERFBENCH_INSTANCE_TEXT_H_
#define DELPROP_PERFBENCH_INSTANCE_TEXT_H_

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "dp/vse_instance.h"
#include "query/conjunctive_query.h"
#include "relational/database.h"
#include "trace.h"

namespace perfbench {

struct InstanceText {
  /// (relation name, CSV whose header marks key columns with '*').
  std::vector<std::pair<std::string, std::string>> relations;
  /// Queries in the parser's datalog syntax, in view order.
  std::vector<std::string> queries;
  /// One CSV line per ΔV tuple: view name, head values.
  std::string delta_v;
  /// One CSV line per non-default weight: view name, head values, weight.
  std::string weights;

  size_t bytes() const;
};

InstanceText RenderInstance(const delprop::VseInstance& instance);

/// An instance rebuilt from text; owns what the VseInstance points into.
struct LoadedInstance {
  std::unique_ptr<delprop::Database> database;
  std::vector<std::unique_ptr<delprop::ConjunctiveQuery>> queries;
  std::unique_ptr<delprop::VseInstance> instance;
};

/// Deterministic counters of one load: rows loaded (tool) and the
/// evaluator's EvalStats (query), summed over queries.
struct LoadCounts {
  size_t rows = 0;
  size_t rows_scanned = 0;
  size_t matches = 0;
  size_t indexes_built = 0;
  size_t view_tuples = 0;

  void Add(const LoadCounts& other);
  bool operator==(const LoadCounts& other) const = default;
};

/// Text → instance with its plan compiled, one span per library call:
/// tool.load (LoadCsvRelation), query.parse (ParseQuery), query.evaluate
/// (Evaluate), dp.create (CreateFromMaterializedViews), dp.mark
/// (ParseCsvLine + MarkForDeletionByValues / SetWeight) and plan.compile
/// (the first compiled()).
delprop::Result<LoadedInstance> LoadInstance(const InstanceText& text,
                                             Tracer* tracer,
                                             LoadCounts* counts);

}  // namespace perfbench

#endif  // DELPROP_PERFBENCH_INSTANCE_TEXT_H_
