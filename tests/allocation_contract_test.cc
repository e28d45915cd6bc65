// The allocation contract of a point request: this binary replaces the
// global operator new and operator delete with counting versions, runs the
// same one-leaf request through a one-worker engine on a 1x and a 4x path
// forest, and asserts that a steady-state request allocates the same count
// and bytes at both sizes, so its allocations follow the request and not
// the instance. The counts of every other registry name are printed.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/batch_engine.h"
#include "solvers/solver_registry.h"
#include "workload/path_schema.h"

namespace {

std::atomic<bool> counting{false};
std::atomic<uint64_t> allocation_count{0};
std::atomic<uint64_t> allocated_bytes{0};

void* CountedAllocate(std::size_t size) {
  if (counting.load(std::memory_order_relaxed)) {
    allocation_count.fetch_add(1, std::memory_order_relaxed);
    allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  void* block = std::malloc(size == 0 ? 1 : size);
  if (block == nullptr) throw std::bad_alloc();
  return block;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAllocate(size); }
void* operator new[](std::size_t size) { return CountedAllocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAllocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAllocate(size);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept { std::free(block); }
void operator delete(void* block, const std::nothrow_t&) noexcept {
  std::free(block);
}
void operator delete[](void* block, const std::nothrow_t&) noexcept {
  std::free(block);
}

namespace delprop {
namespace {

struct Allocations {
  uint64_t count = 0;
  uint64_t bytes = 0;
  bool operator==(const Allocations&) const = default;
};

constexpr int kWarmUps = 10;
constexpr int kCounted = 50;

// Allocations of `kCounted` steady-state runs of leaf row 0's point request
// (every view tuple through row 0 of L5) with `solver`, through a
// one-worker engine with the memo off, on a path forest of 6 levels, fanout
// 3 and `roots` roots. A solver that must answer is checked to.
Allocations PointRequest(size_t roots, const std::string& solver,
                         bool must_answer) {
  Rng rng(600 + roots);
  PathSchemaParams params;
  params.levels = 6;
  params.roots = roots;
  params.fanout = 3;
  Result<GeneratedVse> generated = GeneratePathSchema(rng, params);
  EXPECT_TRUE(generated.ok());
  VseInstance& instance = *generated->instance;
  SolveRequest request;
  request.delta_v = instance.KilledBy(TupleRef{5, 0});
  request.solver = solver;
  request.objective = MakeSolver(solver)->objective();
  const std::vector<SolveRequest> batch = {request};

  BatchSolveEngine::Options options;
  options.threads = 1;
  options.memo_cache = false;
  BatchSolveEngine engine(instance, options);
  for (int i = 0; i < kWarmUps; ++i) {
    std::vector<RequestOutcome> outcomes = engine.SolveBatch(batch);
    EXPECT_TRUE(!must_answer || outcomes[0].result.ok())
        << solver << ": " << outcomes[0].result.status().ToString();
  }
  allocation_count = 0;
  allocated_bytes = 0;
  counting = true;
  for (int i = 0; i < kCounted; ++i) {
    std::vector<RequestOutcome> outcomes = engine.SolveBatch(batch);
  }
  counting = false;
  return Allocations{allocation_count.load(), allocated_bytes.load()};
}

TEST(AllocationContractTest, CounterSeesEveryNew) {
  allocation_count = 0;
  allocated_bytes = 0;
  counting = true;
  int* one = new int(7);
  std::vector<uint64_t> eight(8);
  counting = false;
  EXPECT_EQ(allocation_count.load(), 2u);
  EXPECT_EQ(allocated_bytes.load(), sizeof(int) + 8 * sizeof(uint64_t));
  delete one;
}

TEST(AllocationContractTest, PointRequestAllocationsDoNotGrowWithTheForest) {
  // The names whose steady-state requests must allocate alike at 1x and 4x.
  const std::vector<std::string> contracted = {
      "greedy",      "ilp",         "local-search",
      "rbsc-greedy", "rbsc-lowdeg", "primal-dual",
      "lowdeg-tree", "dp-tree",     "dp-tree-balanced"};
  for (const std::string& name : AllSolverNames()) {
    bool is_contracted = std::find(contracted.begin(), contracted.end(),
                                   name) != contracted.end();
    Allocations small = PointRequest(3, name, is_contracted);
    Allocations large = PointRequest(12, name, is_contracted);
    std::printf("%-17s 1x %6.1f allocations %9.1f B | 4x %6.1f allocations "
                "%9.1f B per request%s\n",
                name.c_str(), small.count / double(kCounted),
                small.bytes / double(kCounted), large.count / double(kCounted),
                large.bytes / double(kCounted),
                is_contracted ? "" : " (not contracted)");
    if (!is_contracted) continue;
    EXPECT_EQ(small.count, large.count) << name;
    EXPECT_EQ(small.bytes, large.bytes) << name;
  }
}

}  // namespace
}  // namespace delprop
