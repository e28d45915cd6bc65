#include <gtest/gtest.h>

#include <span>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "hypergraph/data_forest.h"
#include "query/parser.h"
#include "solvers/tree_common.h"
#include "workload/path_schema.h"
#include "workload/star_schema.h"

namespace delprop {
namespace {

// Witness node lists and path records are spans into the forest's arrays,
// so neither owner may be copied.
static_assert(!std::is_copy_constructible_v<DataForest>);
static_assert(!std::is_copy_constructible_v<TreeStructure>);
static_assert(std::is_move_constructible_v<DataForest>);
static_assert(std::is_move_constructible_v<TreeStructure>);

DataForest BuildFromInstance(const VseInstance& instance) {
  return DataForest::Build(instance.ViewPointers());
}

// Roots `forest` at `roots` (the lowest node of each component when empty).
DataForest::Rooting RootAt(const DataForest& forest,
                           std::span<const size_t> roots = {}) {
  DataForest::Rooting rooting;
  DataForest::Scratch scratch;
  forest.RootAt(roots, &rooting, &scratch);
  return rooting;
}

TEST(DataForestTest, PathSchemaIsForestWithVerticalWitnesses) {
  Rng rng(11);
  PathSchemaParams params;
  params.levels = 4;
  params.roots = 2;
  params.fanout = 2;
  Result<GeneratedVse> generated = GeneratePathSchema(rng, params);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  DataForest forest = BuildFromInstance(*generated->instance);
  EXPECT_TRUE(forest.is_forest());
  EXPECT_GT(forest.node_count(), 0u);

  std::optional<std::vector<size_t>> pivots = forest.FindPivotRoots();
  ASSERT_TRUE(pivots.has_value());
  DataForest::Rooting rooting = RootAt(forest, *pivots);
  for (const ForestWitness& witness : forest.witnesses()) {
    EXPECT_TRUE(forest.WitnessIsVerticalPath(witness, rooting));
    EXPECT_TRUE(forest.WitnessIsPath(witness, rooting));
  }
}

TEST(DataForestTest, PathSchemaComponentsMatchRootTrees) {
  Rng rng(12);
  PathSchemaParams params;
  params.levels = 3;
  params.roots = 3;
  params.fanout = 2;
  params.query_intervals = {{0, 2}};
  params.deletion_fraction = 0.0;
  Result<GeneratedVse> generated = GeneratePathSchema(rng, params);
  ASSERT_TRUE(generated.ok());
  DataForest forest = BuildFromInstance(*generated->instance);
  EXPECT_EQ(forest.component_count(), 3u);
}

TEST(DataForestTest, StarWitnessesAreNotPaths) {
  Rng rng(13);
  StarSchemaParams params;
  params.dimensions = 3;
  params.fact_rows = 10;
  params.query_dimension_sets = {{0, 1, 2}};
  Result<GeneratedVse> generated = GenerateStarSchema(rng, params);
  ASSERT_TRUE(generated.ok());
  DataForest forest = BuildFromInstance(*generated->instance);
  DataForest::Rooting rooting = RootAt(forest);
  bool some_non_path = false;
  for (const ForestWitness& witness : forest.witnesses()) {
    if (witness.nodes.size() >= 4 &&
        !forest.WitnessIsPath(witness, rooting)) {
      some_non_path = true;
    }
  }
  EXPECT_TRUE(some_non_path) << "a 3-dimension star witness is not a path";
}

TEST(DataForestTest, NodeOfRoundTrips) {
  Rng rng(14);
  PathSchemaParams params;
  Result<GeneratedVse> generated = GeneratePathSchema(rng, params);
  ASSERT_TRUE(generated.ok());
  DataForest forest = BuildFromInstance(*generated->instance);
  for (size_t n = 0; n < forest.node_count(); ++n) {
    std::optional<size_t> back = forest.NodeOf(forest.node_ref(n));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, n);
  }
  EXPECT_FALSE(forest.NodeOf(TupleRef{99, 99}).has_value());
}

TEST(DataForestTest, NodeOfMissesRowsOutsideEveryWitness) {
  // R(a*, b) ⋈ S(b*, c): R rows 0 and 2 join, R row 1 joins nothing and
  // sits inside the row table, R row 3 joins nothing and lies past it, and
  // T is in no query.
  Database db;
  ASSERT_TRUE(db.AddRelation("R", 2, {0}).ok());
  ASSERT_TRUE(db.AddRelation("S", 2, {0}).ok());
  ASSERT_TRUE(db.AddRelation("T", 1, {0}).ok());
  for (auto row : {std::vector<std::string>{"1", "x"},
                   std::vector<std::string>{"2", "y"},
                   std::vector<std::string>{"3", "z"},
                   std::vector<std::string>{"4", "w"}}) {
    ASSERT_TRUE(db.InsertText(0, row).ok());
  }
  ASSERT_TRUE(db.InsertText(1, {"x", "p"}).ok());
  ASSERT_TRUE(db.InsertText(1, {"z", "q"}).ok());
  ASSERT_TRUE(db.InsertText(2, {"t"}).ok());
  Result<ConjunctiveQuery> query =
      ParseQuery("Q(a, b, c) :- R(a, b), S(b, c)", db.schema(), db.dict());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  std::vector<const ConjunctiveQuery*> queries = {&*query};
  Result<VseInstance> instance = VseInstance::Create(db, queries);
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  DataForest forest = BuildFromInstance(*instance);
  ASSERT_EQ(forest.node_count(), 4u);
  for (TupleRef ref : {TupleRef{0, 0}, TupleRef{0, 2}, TupleRef{1, 0},
                       TupleRef{1, 1}}) {
    EXPECT_TRUE(forest.NodeOf(ref).has_value())
        << ref.relation << ":" << ref.row;
  }
  EXPECT_FALSE(forest.NodeOf(TupleRef{0, 1}).has_value()) << "in no witness";
  EXPECT_FALSE(forest.NodeOf(TupleRef{0, 3}).has_value()) << "past the table";
  EXPECT_FALSE(forest.NodeOf(TupleRef{2, 0}).has_value())
      << "relation in no query";
  EXPECT_FALSE(forest.NodeOf(TupleRef{99, 0}).has_value())
      << "unknown relation";
}

TEST(DataForestTest, LeafFirstQueryTriesSeveralPivotCandidates) {
  // A three-level chain whose first atom is the leaf level: each component's
  // first-touched node is then a leaf, and its next one a middle node —
  // neither a pivot — so the search reaches the root only on its third try.
  Rng rng(17);
  PathSchemaParams params;
  params.levels = 3;
  params.roots = 2;
  params.fanout = 2;
  params.query_intervals = {{0, 2}};
  params.deletion_fraction = 0.0;
  Result<GeneratedVse> generated = GeneratePathSchema(rng, params);
  ASSERT_TRUE(generated.ok());
  Database& db = *generated->database;
  Result<ConjunctiveQuery> query = ParseQuery(
      "R(x2, x1, x0, w2, w1, w0) :- L2(x2, x1, w2), L1(x1, x0, w1), "
      "L0(x0, w0)",
      db.schema(), db.dict());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  std::vector<const ConjunctiveQuery*> queries = {&*query};
  Result<VseInstance> instance = VseInstance::Create(db, queries);
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  DataForest forest = BuildFromInstance(*instance);
  ASSERT_TRUE(forest.is_forest());
  ASSERT_EQ(forest.node_count(), 14u);
  ASSERT_EQ(forest.component_count(), 2u);
  RelationId l0 = *db.schema().FindRelation("L0");
  RelationId l2 = *db.schema().FindRelation("L2");
  EXPECT_EQ(forest.node_ref(0).relation, l2) << "a leaf is touched first";

  std::optional<std::vector<size_t>> pivots = forest.FindPivotRoots();
  ASSERT_TRUE(pivots.has_value());
  EXPECT_EQ(*pivots, (std::vector<size_t>{2, 9}));
  for (size_t pivot : *pivots) {
    EXPECT_EQ(forest.node_ref(pivot).relation, l0);
  }
  DataForest::Rooting rooting = RootAt(forest, *pivots);
  for (const ForestWitness& witness : forest.witnesses()) {
    EXPECT_TRUE(forest.WitnessIsVerticalPath(witness, rooting));
  }
  // Rooted at its first-touched leaf, component 0 has no vertical witness
  // of three nodes.
  const std::vector<size_t> leaf_roots = {0, *pivots->rbegin()};
  DataForest::Rooting at_leaf = RootAt(forest, leaf_roots);
  EXPECT_FALSE(forest.WitnessIsVerticalPath(forest.witnesses()[1], at_leaf));
}

TEST(DataForestTest, LcaOnChain) {
  // Build a tiny manual chain via the path generator (1 root, fanout 1).
  Rng rng(15);
  PathSchemaParams params;
  params.levels = 5;
  params.roots = 1;
  params.fanout = 1;
  params.query_intervals = {{0, 4}};
  params.deletion_fraction = 0.0;
  Result<GeneratedVse> generated = GeneratePathSchema(rng, params);
  ASSERT_TRUE(generated.ok());
  DataForest forest = BuildFromInstance(*generated->instance);
  ASSERT_EQ(forest.node_count(), 5u);
  DataForest::Rooting rooting = RootAt(forest);
  // On a rooted chain, the LCA of any two nodes is the shallower one.
  for (size_t a = 0; a < 5; ++a) {
    for (size_t b = 0; b < 5; ++b) {
      size_t lca = forest.Lca(rooting, a, b);
      size_t expected =
          rooting.depth[a] <= rooting.depth[b] ? a : b;
      EXPECT_EQ(lca, expected);
    }
  }
}

TEST(DataForestTest, RandomParentsStillForest) {
  Rng rng(16);
  PathSchemaParams params;
  params.levels = 4;
  params.roots = 3;
  params.fanout = 3;
  params.random_parents = true;
  Result<GeneratedVse> generated = GeneratePathSchema(rng, params);
  ASSERT_TRUE(generated.ok());
  DataForest forest = BuildFromInstance(*generated->instance);
  EXPECT_TRUE(forest.is_forest())
      << "unique parents cannot create cycles even when chosen randomly";
  EXPECT_TRUE(forest.FindPivotRoots().has_value());
}

}  // namespace
}  // namespace delprop
