#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "common/rng.h"
#include "setcover/greedy_set_cover.h"
#include "setcover/red_blue.h"
#include "setcover/red_blue_solvers.h"
#include "workload/hardness_family.h"
#include "workload/random_rbsc.h"

namespace delprop {
namespace {

RbscInstance TinyInstance() {
  // Blues {0,1}; sets: {b0,b1,r0,r1} (cost 2), {b0,r0} and {b1,r0}
  // (together cost 1 — share red 0).
  RbscInstance instance;
  instance.red_count = 2;
  instance.blue_count = 2;
  instance.sets = {{{0, 1}, {0, 1}}, {{0}, {0}}, {{0}, {1}}};
  return instance;
}

TEST(RbscTest, ValidateCatchesOutOfRange) {
  RbscInstance bad;
  bad.red_count = 1;
  bad.blue_count = 1;
  bad.sets = {{{5}, {}}};
  EXPECT_FALSE(bad.Validate().ok());
  RbscInstance bad_blue;
  bad_blue.red_count = 1;
  bad_blue.blue_count = 1;
  bad_blue.sets = {{{}, {7}}};
  EXPECT_FALSE(bad_blue.Validate().ok());
}

TEST(RbscTest, CostCountsCoveredRedsOnce) {
  RbscInstance instance = TinyInstance();
  RbscSolution solution{{1, 2}};
  EXPECT_TRUE(RbscFeasible(instance, solution));
  EXPECT_DOUBLE_EQ(RbscCost(instance, solution), 1.0) << "red 0 shared";
}

TEST(RbscTest, WeightedCost) {
  RbscInstance instance = TinyInstance();
  instance.red_weights = {5.0, 0.5};
  EXPECT_DOUBLE_EQ(RbscCost(instance, RbscSolution{{0}}), 5.5);
  EXPECT_DOUBLE_EQ(RbscCost(instance, RbscSolution{{1, 2}}), 5.0);
}

TEST(RbscTest, InfeasibleDetected) {
  RbscInstance instance = TinyInstance();
  EXPECT_FALSE(RbscFeasible(instance, RbscSolution{{1}}));
}

TEST(RbscSolversTest, ExactFindsOptimum) {
  RbscInstance instance = TinyInstance();
  Result<RbscSolution> exact = SolveRbscExact(instance);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_TRUE(RbscFeasible(instance, *exact));
  EXPECT_DOUBLE_EQ(RbscCost(instance, *exact), 1.0);
}

TEST(RbscSolversTest, GreedyIsFeasible) {
  RbscInstance instance = TinyInstance();
  Result<RbscSolution> greedy = SolveRbscGreedy(instance);
  ASSERT_TRUE(greedy.ok());
  EXPECT_TRUE(RbscFeasible(instance, *greedy));
}

TEST(RbscSolversTest, LowDegTwoBeatsGreedyOnTrap) {
  RbscInstance trap = GreedyTrapRbsc(8);
  Result<RbscSolution> greedy = SolveRbscGreedy(trap);
  Result<RbscSolution> lowdeg = SolveRbscLowDegTwo(trap);
  ASSERT_TRUE(greedy.ok());
  ASSERT_TRUE(lowdeg.ok());
  EXPECT_DOUBLE_EQ(RbscCost(trap, *greedy), 7.0) << "greedy takes the big set";
  EXPECT_DOUBLE_EQ(RbscCost(trap, *lowdeg), 1.0) << "τ=1 pass recovers OPT";
}

TEST(RbscSolversTest, InfeasibleInstanceReported) {
  RbscInstance instance;
  instance.red_count = 0;
  instance.blue_count = 2;
  instance.sets = {{{}, {0}}};  // blue 1 uncoverable
  EXPECT_EQ(SolveRbscGreedy(instance).status().code(), StatusCode::kInfeasible);
  EXPECT_EQ(SolveRbscLowDegTwo(instance).status().code(),
            StatusCode::kInfeasible);
  EXPECT_EQ(SolveRbscExact(instance).status().code(), StatusCode::kInfeasible);
}

TEST(RbscSolversTest, LowDegWithinPelegBoundOnRandomInstances) {
  Rng rng(21);
  for (int trial = 0; trial < 20; ++trial) {
    RandomRbscParams params;
    params.red_count = 8;
    params.blue_count = 5;
    params.set_count = 10;
    RbscInstance instance = GenerateRandomRbsc(rng, params);
    Result<RbscSolution> exact = SolveRbscExact(instance);
    Result<RbscSolution> lowdeg = SolveRbscLowDegTwo(instance);
    ASSERT_TRUE(exact.ok());
    ASSERT_TRUE(lowdeg.ok());
    double opt = RbscCost(instance, *exact);
    double approx = RbscCost(instance, *lowdeg);
    EXPECT_LE(opt, approx + 1e-9);
    double bound =
        2.0 * std::sqrt(static_cast<double>(instance.sets.size()) *
                        std::log(std::max<double>(2.0, instance.blue_count)));
    EXPECT_LE(approx, bound * std::max(opt, 1.0) + 1e-9)
        << "trial " << trial;
  }
}

// A random RBSC instance whose sets draw members with replacement, so a set
// may list an element twice; even seeds carry quarter-step red weights,
// which force score ties. Every blue lies in some set.
RbscInstance RandomRbscWithRepeats(uint64_t seed) {
  Rng rng(seed);
  RbscInstance instance;
  instance.red_count = 4 + rng.NextBelow(12);
  instance.blue_count = 3 + rng.NextBelow(8);
  instance.sets.resize(6 + rng.NextBelow(15));
  for (RbscInstance::Set& set : instance.sets) {
    size_t reds = rng.NextBelow(7);
    for (size_t i = 0; i < reds; ++i) {
      set.reds.push_back(rng.NextBelow(instance.red_count));
    }
    size_t blues = rng.NextBelow(4);
    for (size_t i = 0; i < blues; ++i) {
      set.blues.push_back(rng.NextBelow(instance.blue_count));
    }
  }
  for (size_t b = 0; b < instance.blue_count; ++b) {
    instance.sets[rng.NextBelow(instance.sets.size())].blues.push_back(b);
  }
  if (seed % 2 == 0) {
    for (size_t r = 0; r < instance.red_count; ++r) {
      instance.red_weights.push_back(0.25 * (1 + rng.NextBelow(8)));
    }
  }
  return instance;
}

bool ListsAnElementTwice(const RbscInstance& instance) {
  for (const RbscInstance::Set& set : instance.sets) {
    for (const std::vector<size_t>* side : {&set.reds, &set.blues}) {
      std::vector<size_t> sorted = *side;
      std::sort(sorted.begin(), sorted.end());
      if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
        return true;
      }
    }
  }
  return false;
}

TEST(RbscSolversTest, AnswersMatchRecordedGoldens) {
  // Recorded before the element -> set incidence became CSR: every chosen
  // list must stay exactly as it was, pick order included.
  using Chosen = std::vector<size_t>;
  struct Golden {
    uint64_t seed;
    Chosen greedy;
    Chosen lowdeg;
    Chosen exact;
  };
  const Golden goldens[] = {
      {1, {5, 8, 6, 1}, {5, 8, 6, 1}, {5, 8, 6, 1}},
      {2, {4, 14, 10}, {4, 14, 10}, {4, 14, 10}},
      {3, {0, 9, 8, 2, 5, 4}, {0, 9, 8, 2, 5, 4}, {0, 9, 8, 2, 5, 4}},
      {4, {2, 3, 6, 0}, {2, 3, 6, 0}, {2, 3, 6, 0}},
      {5, {0, 6, 13, 8, 17, 2}, {0, 6, 13, 8, 17, 2}, {0, 6, 13, 8, 17, 2}},
      {6, {0, 3, 2, 6}, {0, 3, 2, 6}, {6, 3, 9, 0}},
      {7, {6, 7, 3}, {6, 7, 3}, {6, 7, 3}},
      {8, {7, 8, 6, 3}, {7, 8, 6, 3}, {7, 8, 6, 3}},
      {9, {3, 6, 4}, {3, 6, 2}, {3, 6, 4}},
      {10, {18, 11, 2, 10, 0, 4, 3}, {18, 11, 2, 10, 0, 6, 3},
       {18, 11, 2, 10, 0, 4, 3}},
      {11, {1, 0}, {1, 0}, {1, 0}},
      {12, {9, 8, 0, 7}, {9, 8, 0, 7}, {9, 8, 0, 7}},
      {13, {18, 17, 4, 2, 15}, {18, 17, 4, 2, 15}, {18, 17, 4, 2, 15}},
      {14, {1, 8, 9, 3}, {1, 8, 9, 3}, {1, 8, 9, 3}},
      {15, {11, 5, 0, 3, 9, 2}, {11, 5, 0, 3, 9, 2}, {11, 5, 0, 3, 9, 2}},
      {16, {6, 2}, {6, 2}, {6, 2}},
      {17, {3, 10}, {3, 10}, {3, 10}},
      {18, {0}, {0}, {0}},
      {19, {3, 5, 2}, {3, 5, 2}, {3, 5, 2}},
      {20, {9, 6, 3}, {9, 6, 3}, {9, 6, 3}},
  };
  size_t with_repeats = 0;
  for (const Golden& golden : goldens) {
    RbscInstance instance = RandomRbscWithRepeats(golden.seed);
    ASSERT_TRUE(instance.Validate().ok());
    if (ListsAnElementTwice(instance)) ++with_repeats;
    std::string label = "seed " + std::to_string(golden.seed);
    Result<RbscSolution> greedy = SolveRbscGreedy(instance);
    Result<RbscSolution> lowdeg = SolveRbscLowDegTwo(instance);
    Result<RbscSolution> exact = SolveRbscExact(instance);
    ASSERT_TRUE(greedy.ok()) << label;
    ASSERT_TRUE(lowdeg.ok()) << label;
    ASSERT_TRUE(exact.ok()) << label;
    EXPECT_EQ(greedy->chosen, golden.greedy) << label;
    EXPECT_EQ(lowdeg->chosen, golden.lowdeg) << label;
    EXPECT_EQ(exact->chosen, golden.exact) << label;
  }
  EXPECT_GE(with_repeats, 5u);
}

TEST(RbscSolversTest, ExactBudgetExhaustionReported) {
  Rng rng(22);
  RandomRbscParams params;
  params.red_count = 20;
  params.blue_count = 15;
  params.set_count = 30;
  RbscInstance instance = GenerateRandomRbsc(rng, params);
  RbscExactOptions options;
  options.node_budget = 3;
  Result<RbscSolution> result = SolveRbscExact(instance, options);
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SetCoverTest, GreedyAndExactOnSmallInstance) {
  SetCoverInstance instance;
  instance.element_count = 3;
  instance.sets = {{0}, {1}, {2}, {0, 1, 2}};
  Result<std::vector<size_t>> greedy = GreedySetCover(instance);
  Result<std::vector<size_t>> exact = ExactSetCover(instance);
  ASSERT_TRUE(greedy.ok());
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE(SetCoverFeasible(instance, *greedy));
  EXPECT_TRUE(SetCoverFeasible(instance, *exact));
  EXPECT_DOUBLE_EQ(SetCoverCost(instance, *exact), 1.0);
  EXPECT_DOUBLE_EQ(SetCoverCost(instance, *greedy), 1.0);
}

TEST(SetCoverTest, WeightedCosts) {
  SetCoverInstance instance;
  instance.element_count = 2;
  instance.sets = {{0, 1}, {0}, {1}};
  instance.set_costs = {10.0, 1.0, 1.0};
  Result<std::vector<size_t>> exact = ExactSetCover(instance);
  ASSERT_TRUE(exact.ok());
  EXPECT_DOUBLE_EQ(SetCoverCost(instance, *exact), 2.0);
}

TEST(SetCoverTest, InfeasibleReported) {
  SetCoverInstance instance;
  instance.element_count = 2;
  instance.sets = {{0}};
  EXPECT_EQ(GreedySetCover(instance).status().code(), StatusCode::kInfeasible);
  EXPECT_EQ(ExactSetCover(instance).status().code(), StatusCode::kInfeasible);
}

// The lazy-heap greedy must pick the same set as the reference scan on every
// iteration — including ties, where the lowest index wins. Random weighted
// and unweighted instances, with deliberate duplicate elements (the
// reference counts occurrences, not distinct elements).
TEST(SetCoverTest, LazyHeapMatchesScanReference) {
  Rng rng(77);
  for (int round = 0; round < 60; ++round) {
    SetCoverInstance instance;
    instance.element_count = 3 + rng.NextBelow(20);
    size_t set_count = 2 + rng.NextBelow(25);
    for (size_t s = 0; s < set_count; ++s) {
      std::vector<size_t> elements;
      size_t size = rng.NextBelow(6);
      for (size_t i = 0; i < size; ++i) {
        elements.push_back(rng.NextBelow(instance.element_count));
        if (rng.NextBool(0.15) && !elements.empty()) {
          elements.push_back(elements.back());  // duplicate occurrence
        }
      }
      instance.sets.push_back(std::move(elements));
    }
    // One in three rounds weighted; small integer costs force score ties.
    if (round % 3 == 0) {
      for (size_t s = 0; s < set_count; ++s) {
        instance.set_costs.push_back(
            static_cast<double>(1 + rng.NextBelow(3)));
      }
    }
    Result<std::vector<size_t>> lazy = GreedySetCover(instance);
    Result<std::vector<size_t>> scan = GreedySetCoverScanReference(instance);
    ASSERT_EQ(lazy.ok(), scan.ok()) << "round " << round;
    if (!lazy.ok()) {
      EXPECT_EQ(lazy.status().code(), scan.status().code());
      continue;
    }
    // Byte-identical pick sequence, not merely equal cost.
    EXPECT_EQ(*lazy, *scan) << "round " << round;
  }
}

TEST(HardnessFamilyTest, LayeredTrapScalesGreedyGap) {
  RbscInstance trap = LayeredTrapRbsc(3, 5);
  ASSERT_TRUE(trap.Validate().ok());
  Result<RbscSolution> greedy = SolveRbscGreedy(trap);
  Result<RbscSolution> lowdeg = SolveRbscLowDegTwo(trap);
  ASSERT_TRUE(greedy.ok());
  ASSERT_TRUE(lowdeg.ok());
  EXPECT_DOUBLE_EQ(RbscCost(trap, *greedy), 12.0);  // 3 layers × (k-1).
  EXPECT_DOUBLE_EQ(RbscCost(trap, *lowdeg), 3.0);   // 3 shared cheap reds.
}

}  // namespace
}  // namespace delprop
