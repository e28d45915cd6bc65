// Engine determinism sweep (slow): every checked-in corpus instance and 200
// fuzz-generated instances go through BatchSolveEngine at --threads 1 vs 4,
// with the memo cache on vs off, and under a memo budget small enough to
// evict; the rendered outcome vectors must be byte-identical. This is the
// batched-serving analogue of the fuzz engine's thread-count-invariance
// contract: scheduling and caching may only change wall-clock, never
// results. A hit's report is rebuilt from the stored decision, so the
// rendering covers the report and the gap, not only the cost.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/batch_engine.h"
#include "testing/fuzzer.h"
#include "tool/script.h"

#ifndef DELPROP_CORPUS_DIR
#error "build must define DELPROP_CORPUS_DIR (see tests/CMakeLists.txt)"
#endif

namespace delprop {
namespace {

std::string Render(const Result<VseSolution>& result) {
  std::ostringstream out;
  if (!result.ok()) {
    out << StatusCodeName(result.status().code()) << ": "
        << result.status().message();
    return out.str();
  }
  const OptimalityGap& gap = result->gap;
  out << std::setprecision(17) << result->solver_name
      << " feasible=" << result->Feasible() << " cost=" << result->Cost()
      << " balanced=" << result->BalancedCost() << " killed=";
  for (const ViewTupleId& id : result->report.killed_preserved) {
    out << "(" << id.view << "," << id.tuple << ")";
  }
  out << " gap=" << gap.has_bound << gap.optimal << gap.deadline_hit
      << gap.budget_hit << "/" << gap.lower_bound << "/" << gap.upper_bound
      << "/" << gap.nodes << " deletion=";
  for (const TupleRef& ref : result->deletion.Sorted()) {
    out << "(" << ref.relation << "," << ref.row << ")";
  }
  return out.str();
}

std::string RenderAll(const std::vector<RequestOutcome>& outcomes) {
  std::string out;
  for (const RequestOutcome& outcome : outcomes) {
    out += Render(outcome.result);
    out += "\n";
  }
  return out;
}

// A mixed request stream over `instance`: rotating solvers (refusals are
// legitimate deterministic outcomes), varied ΔV sizes, plus one duplicate
// so the memo cache always has a hit to mis-serve if it were buggy.
std::vector<SolveRequest> MakeRequests(const VseInstance& instance,
                                       uint64_t seed) {
  std::vector<ViewTupleId> all;
  for (size_t v = 0; v < instance.view_count(); ++v) {
    for (size_t t = 0; t < instance.view(v).size(); ++t) {
      all.push_back(ViewTupleId{v, t});
    }
  }
  const char* solvers[] = {"greedy", "local-search", "rbsc-greedy",
                           "primal-dual"};
  Rng rng(DeriveTaskSeed(17, seed));
  std::vector<SolveRequest> requests;
  for (size_t i = 0; i < 7; ++i) {
    SolveRequest request;
    request.solver = solvers[i % 4];
    size_t k = 1 + static_cast<size_t>(rng.NextBelow(
                       std::max<size_t>(1, std::min<size_t>(all.size(), 16))));
    for (size_t index : rng.SampleIndices(all.size(), k)) {
      request.delta_v.push_back(all[index]);
    }
    requests.push_back(std::move(request));
  }
  requests.push_back(requests[0]);  // guaranteed duplicate
  return requests;
}

void ExpectInvariant(VseInstance& instance, uint64_t seed) {
  if (instance.TotalViewTuples() == 0) return;
  std::vector<SolveRequest> requests = MakeRequests(instance, seed);

  BatchSolveEngine::Options t1;
  t1.threads = 1;
  BatchSolveEngine engine_t1(instance, t1);
  std::string baseline = RenderAll(engine_t1.SolveBatch(requests));

  BatchSolveEngine::Options t4;
  t4.threads = 4;
  BatchSolveEngine engine_t4(instance, t4);
  EXPECT_EQ(baseline, RenderAll(engine_t4.SolveBatch(requests)))
      << "thread count changed batch results";

  BatchSolveEngine::Options no_cache;
  no_cache.threads = 4;
  no_cache.memo_cache = false;
  BatchSolveEngine engine_plain(instance, no_cache);
  EXPECT_EQ(baseline, RenderAll(engine_plain.SolveBatch(requests)))
      << "memo cache changed batch results";

  // Every request's entry costs a few hundred bytes, so at least four
  // distinct keys (one per solver) overflow 1 KiB.
  BatchSolveEngine::Options evicting;
  evicting.threads = 4;
  evicting.memo_cache_bytes = 1024;
  BatchSolveEngine engine_evicting(instance, evicting);
  EXPECT_EQ(baseline, RenderAll(engine_evicting.SolveBatch(requests)))
      << "memo eviction changed batch results";
  EXPECT_GT(engine_evicting.stats().cache_evictions, 0u);
}

TEST(EngineDeterminismTest, CorpusInstances) {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(DELPROP_CORPUS_DIR)) {
    if (entry.path().extension() == ".delprop") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 5u);
  uint64_t seed = 0;
  for (const std::string& file : files) {
    SCOPED_TRACE(file);
    std::ifstream in(file);
    ASSERT_TRUE(in.good());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    ScriptSession session;
    std::string out;
    ASSERT_TRUE(session.Run(buffer.str(), &out).ok()) << out;
    if (session.instance() == nullptr) continue;
    ExpectInvariant(*session.mutable_instance(), seed++);
  }
}

TEST(EngineDeterminismTest, TwoHundredFuzzSeeds) {
  size_t generated_cases = 0;
  for (uint64_t i = 0; i < 200; ++i) {
    SCOPED_TRACE(i);
    Result<testing::FuzzCase> fuzz_case =
        testing::GenerateFuzzCase(DeriveTaskSeed(1, i));
    ASSERT_TRUE(fuzz_case.ok()) << fuzz_case.status().ToString();
    ++generated_cases;
    ExpectInvariant(*fuzz_case->generated.instance, i);
  }
  EXPECT_EQ(generated_cases, 200u);
}

}  // namespace
}  // namespace delprop
