#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "query/parser.h"
#include "tool/csv.h"
#include "tool/dot_export.h"
#include "workload/author_journal.h"
#include "workload/path_schema.h"
#include "workload/star_schema.h"

namespace delprop {
namespace {

// ---------------- DOT export ----------------

TEST(DotExportTest, LineageContainsMarkedAndBaseNodes) {
  Result<GeneratedVse> generated = BuildFig1Example();
  ASSERT_TRUE(generated.ok());
  ASSERT_TRUE(
      generated->instance->MarkForDeletionByValues(0, {"John", "XML"}).ok());
  std::string dot = LineageToDot(*generated->instance);
  EXPECT_NE(dot.find("digraph lineage"), std::string::npos);
  EXPECT_NE(dot.find("\"T1(John, TKDE)\""), std::string::npos);
  EXPECT_NE(dot.find("\"Q3(John, XML)\""), std::string::npos);
  EXPECT_NE(dot.find("doubleoctagon"), std::string::npos) << "ΔV marker";
  EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(DotExportTest, NodeDeclarationsAreEmittedInSortedOrder) {
  // Regression: base-tuple and relation nodes were emitted in
  // unordered_set iteration order, so the DOT text could differ across
  // platforms/runs. Node ids are t<relation>_<row> / r<relation> and must
  // now appear in ascending order.
  Result<GeneratedVse> generated = BuildFig1Example();
  ASSERT_TRUE(generated.ok());

  std::string lineage = LineageToDot(*generated->instance);
  std::vector<std::pair<int, int>> bases;
  std::istringstream lineage_in(lineage);
  for (std::string line; std::getline(lineage_in, line);) {
    int rel = 0, row = 0, matched = -1;
    std::sscanf(line.c_str(), "  t%d_%d [shape=box%n", &rel, &row, &matched);
    if (matched > 0) bases.emplace_back(rel, row);
  }
  ASSERT_GT(bases.size(), 1u);
  EXPECT_TRUE(std::is_sorted(bases.begin(), bases.end()));

  std::string dual = DualHypergraphToDot(*generated->instance);
  std::vector<int> rels;
  std::istringstream dual_in(dual);
  for (std::string line; std::getline(dual_in, line);) {
    int rel = 0, matched = -1;
    std::sscanf(line.c_str(), "  r%d [label%n", &rel, &matched);
    if (matched > 0) rels.push_back(rel);
  }
  ASSERT_GT(rels.size(), 1u);
  EXPECT_TRUE(std::is_sorted(rels.begin(), rels.end()));
}

TEST(DotExportTest, DataForestHighlightsPivots) {
  Rng rng(7);
  PathSchemaParams params;
  params.levels = 3;
  params.roots = 2;
  params.fanout = 2;
  Result<GeneratedVse> generated = GeneratePathSchema(rng, params);
  ASSERT_TRUE(generated.ok());
  std::string dot = DataForestToDot(*generated->instance);
  EXPECT_NE(dot.find("graph data_forest"), std::string::npos);
  EXPECT_NE(dot.find("cluster_0"), std::string::npos);
  EXPECT_NE(dot.find("cluster_1"), std::string::npos) << "two components";
  EXPECT_NE(dot.find("doublecircle"), std::string::npos) << "pivot markers";
  EXPECT_NE(dot.find(" -- "), std::string::npos);
}

// Golden DataForestToDot output: pins node numbering (first touch over
// view, tuple, witness, member), component ids, pivots and edge order.
constexpr const char* kPathForestDot = R"dot(graph data_forest {
  subgraph cluster_0 {
    label="component 0";
    n0 [label="L0(n0_0, p994)", shape=doublecircle, color=blue];
    n1 [label="L1(n1_0, n0_0, p638)"];
    n2 [label="L2(n2_0, n1_0, p716)"];
    n3 [label="L2(n2_1, n1_0, p196)"];
    n4 [label="L1(n1_1, n0_0, p664)"];
    n5 [label="L2(n2_2, n1_1, p408)"];
    n6 [label="L2(n2_3, n1_1, p619)"];
  }
  subgraph cluster_1 {
    label="component 1";
    n7 [label="L0(n0_1, p674)", shape=doublecircle, color=blue];
    n8 [label="L1(n1_2, n0_1, p664)"];
    n9 [label="L2(n2_4, n1_2, p303)"];
    n10 [label="L2(n2_5, n1_2, p896)"];
    n11 [label="L1(n1_3, n0_1, p721)"];
    n12 [label="L2(n2_6, n1_3, p697)"];
    n13 [label="L2(n2_7, n1_3, p751)"];
  }
  n0 -- n1;
  n0 -- n4;
  n1 -- n2;
  n1 -- n3;
  n4 -- n5;
  n4 -- n6;
  n7 -- n8;
  n7 -- n11;
  n8 -- n9;
  n8 -- n10;
  n11 -- n12;
  n11 -- n13;
}
)dot";

constexpr const char* kStarForestDot = R"dot(graph data_forest {
  subgraph cluster_0 {
    label="component 0";
    n0 [label="F(f3, d0_0, d1_1)"];
    n1 [label="D0(d0_0, p610)", shape=doublecircle, color=blue];
    n2 [label="D1(d1_1, p406)"];
  }
  subgraph cluster_1 {
    label="component 1";
    n3 [label="F(f0, d0_1, d1_2)"];
    n4 [label="D0(d0_1, p743)", shape=doublecircle, color=blue];
    n5 [label="D1(d1_2, p367)"];
    n6 [label="F(f1, d0_2, d1_2)"];
    n7 [label="D0(d0_2, p184)"];
    n8 [label="F(f2, d0_2, d1_0)"];
    n9 [label="D1(d1_0, p670)"];
  }
  n0 -- n1;
  n0 -- n2;
  n3 -- n4;
  n3 -- n5;
  n5 -- n6;
  n6 -- n7;
  n7 -- n8;
  n8 -- n9;
}
)dot";

TEST(DotExportTest, DataForestMatchesGolden) {
  {
    Rng rng(7);
    PathSchemaParams params;
    params.levels = 3;
    params.roots = 2;
    params.fanout = 2;
    Result<GeneratedVse> generated = GeneratePathSchema(rng, params);
    ASSERT_TRUE(generated.ok());
    EXPECT_EQ(DataForestToDot(*generated->instance), kPathForestDot);
  }
  {
    // The star's second component is a chain whose first-touched node, a
    // fact, is not a pivot.
    Rng rng(13);
    StarSchemaParams params;
    params.dimensions = 2;
    params.dimension_rows = 3;
    params.fact_rows = 4;
    params.query_dimension_sets = {{0, 1}};
    Result<GeneratedVse> generated = GenerateStarSchema(rng, params);
    ASSERT_TRUE(generated.ok());
    EXPECT_EQ(DataForestToDot(*generated->instance), kStarForestDot);
  }
}

TEST(DotExportTest, DualHypergraphColorsQueries) {
  Result<GeneratedVse> generated = BuildFig1Example();
  ASSERT_TRUE(generated.ok());
  std::string dot = DualHypergraphToDot(*generated->instance);
  EXPECT_NE(dot.find("\"T1\""), std::string::npos);
  EXPECT_NE(dot.find("\"T2\""), std::string::npos);
  EXPECT_NE(dot.find("label=\"Q3\""), std::string::npos);
  EXPECT_NE(dot.find("label=\"Q4\""), std::string::npos);
}

TEST(DotExportTest, QuotesEscaped) {
  Database db;
  ASSERT_TRUE(db.AddRelation("R", 1, {0}).ok());
  ASSERT_TRUE(db.InsertText(0, {"va\"lue"}).ok());
  ValueDictionary& dict = db.dict();
  ConjunctiveQuery q("Q");
  VarId x = q.AddVariable("x");
  q.AddHeadTerm(Term::Variable(x));
  Atom atom;
  atom.relation = 0;
  atom.terms.push_back(Term::Variable(x));
  q.AddAtom(std::move(atom));
  (void)dict;
  std::vector<const ConjunctiveQuery*> qs = {&q};
  Result<VseInstance> instance = VseInstance::Create(db, qs);
  ASSERT_TRUE(instance.ok());
  std::string dot = LineageToDot(*instance);
  EXPECT_NE(dot.find("va\\\"lue"), std::string::npos);
}

// ---------------- CSV ----------------

TEST(CsvTest, ParseSimpleLine) {
  Result<std::vector<std::string>> fields = ParseCsvLine("a, b ,c");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(CsvTest, ParseQuotedFields) {
  Result<std::vector<std::string>> fields =
      ParseCsvLine(R"("hello, world",plain,"with ""quotes""")");
  ASSERT_TRUE(fields.ok());
  ASSERT_EQ(fields->size(), 3u);
  EXPECT_EQ((*fields)[0], "hello, world");
  EXPECT_EQ((*fields)[1], "plain");
  EXPECT_EQ((*fields)[2], "with \"quotes\"");
}

TEST(CsvTest, ParseErrors) {
  EXPECT_FALSE(ParseCsvLine("\"unterminated").ok());
  EXPECT_FALSE(ParseCsvLine("\"closed\" junk, b").ok());
}

TEST(CsvTest, TrailingDelimiterGivesEmptyField) {
  Result<std::vector<std::string>> fields = ParseCsvLine("a,b,");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(fields->size(), 3u);
  EXPECT_EQ((*fields)[2], "");
}

TEST(CsvTest, LoadRelationWithHeaderAndKeys) {
  Database db;
  CsvLoadReport report;
  Result<RelationId> rel = LoadCsvRelation(db, "Authors",
                                           "AuName*,Journal*\n"
                                           "Joe,TKDE\n"
                                           "John,TKDE\r\n"
                                           "John,TODS\n",
                                           {}, &report);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_EQ(report.rows_inserted, 3u);
  EXPECT_EQ(db.relation(*rel).row_count(), 3u);
  const RelationSchema& schema = db.schema().relation(*rel);
  EXPECT_EQ(schema.attribute_names[0], "AuName");
  EXPECT_EQ(schema.key_positions, (std::vector<size_t>{0, 1}));
}

TEST(CsvTest, KeyConflictPolicies) {
  const char* csv =
      "id*,payload\n"
      "1,a\n"
      "1,b\n";
  {
    Database db;
    EXPECT_EQ(LoadCsvRelation(db, "R", csv).status().code(),
              StatusCode::kKeyViolation);
  }
  {
    Database db;
    CsvOptions options;
    options.on_key_conflict = CsvOptions::OnKeyConflict::kSkip;
    CsvLoadReport report;
    Result<RelationId> rel = LoadCsvRelation(db, "R", csv, options, &report);
    ASSERT_TRUE(rel.ok());
    EXPECT_EQ(report.rows_inserted, 1u);
    EXPECT_EQ(report.rows_skipped, 1u);
  }
}

TEST(CsvTest, AppendRows) {
  Database db;
  Result<RelationId> rel = LoadCsvRelation(db, "R", "id*,v\n1,a\n");
  ASSERT_TRUE(rel.ok());
  Result<CsvLoadReport> report = AppendCsvRows(db, *rel, "2,b\n3,c\n");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->rows_inserted, 2u);
  EXPECT_EQ(db.relation(*rel).row_count(), 3u);
  EXPECT_FALSE(AppendCsvRows(db, 99, "4,d\n").ok());
}

TEST(CsvTest, HeaderWithoutKeyRejected) {
  Database db;
  EXPECT_FALSE(LoadCsvRelation(db, "R", "a,b\n1,2\n").ok());
}

TEST(CsvTest, CustomDelimiter) {
  Database db;
  CsvOptions options;
  options.delimiter = ';';
  Result<RelationId> rel =
      LoadCsvRelation(db, "R", "id*;v\n1;hello, with comma\n", options);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_EQ(db.dict().Text(db.relation(*rel).row(0)[1]), "hello, with comma");
}

TEST(CsvTest, EndToEndWithQueries) {
  // CSV-loaded data feeds the normal pipeline.
  Database db;
  ASSERT_TRUE(LoadCsvRelation(db, "T1",
                              "AuName*,Journal*\n"
                              "Joe,TKDE\nJohn,TKDE\nJohn,TODS\n")
                  .ok());
  ASSERT_TRUE(LoadCsvRelation(db, "T2",
                              "Journal*,Topic*\n"
                              "TKDE,XML\nTODS,XML\n")
                  .ok());
  Result<ConjunctiveQuery> q = ParseQuery(
      "Q(x, y, z) :- T1(x, y), T2(y, z)", db.schema(), db.dict());
  ASSERT_TRUE(q.ok());
  std::vector<const ConjunctiveQuery*> qs = {&*q};
  Result<VseInstance> instance = VseInstance::Create(db, qs);
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ(instance->TotalViewTuples(), 3u);
}

}  // namespace
}  // namespace delprop
