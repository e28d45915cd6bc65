// Regenerates Fig. 3: the dual hypergraphs of the paper's three query sets
// and their hypertree classification, plus a sweep classifying random query
// sets (how often the forest-case precondition of Algorithms 1-4 holds) with
// GYO / nest-point elimination timings. It exits 1, naming the row with
// `FAIL <row>` on stderr, when a query set's hypertree verdict disagrees
// with the paper's or the forest-case rate rises anywhere down the sweep
// (each step adds relations or queries). The classification is the tree
// solvers' query-level precondition.
#include <cstdio>
#include <cstring>

#include "bench_util.h"
#include "common/rng.h"
#include "common/text_table.h"
#include "hypergraph/dual_graph.h"
#include "query/parser.h"
#include "workload/random_workload.h"

namespace delprop {
namespace {

int Run() {
  int status = 0;
  bench::Header("Fig. 3 — the paper's five queries over T1..T4");
  Database db;
  for (const char* name : {"T1", "T2", "T3", "T4"}) {
    if (!db.AddRelation(name, 1, {0}).ok()) return 1;
  }
  std::vector<std::unique_ptr<ConjunctiveQuery>> queries;
  for (const char* text : {"Q1(x, y, z) :- T1(x), T2(y), T3(z)",
                           "Q2(x, y, w) :- T1(x), T2(y), T4(w)",
                           "Q3(x, y) :- T1(x), T2(y)",
                           "Q4(x, z) :- T1(x), T3(z)",
                           "Q5(y, z) :- T2(y), T3(z)"}) {
    Result<ConjunctiveQuery> q = ParseQuery(text, db.schema(), db.dict());
    if (!q.ok()) return 1;
    queries.push_back(std::make_unique<ConjunctiveQuery>(std::move(*q)));
  }

  struct Case {
    const char* label;
    std::vector<int> ids;
    const char* paper;
  };
  TextTable table({"query set", "α-acyclic (GYO)", "hypertree (β-acyclic)",
                   "paper says"});
  for (const Case& c :
       {Case{"Q1 = {Q1,Q3,Q4,Q5}", {0, 2, 3, 4}, "not a hypertree"},
        Case{"Q2 = {Q1,Q3,Q5}", {0, 2, 4}, "hypertree"},
        Case{"Q3 = {Q1,Q2,Q5}", {0, 1, 4}, "hypertree"}}) {
    std::vector<const ConjunctiveQuery*> qs;
    for (int i : c.ids) qs.push_back(queries[i].get());
    DualGraphAnalysis analysis = AnalyzeDualGraph(db.schema(), qs);
    table.AddRow({c.label, analysis.alpha_acyclic ? "yes" : "no",
                  analysis.forest_case ? "yes" : "no", c.paper});
    bool paper_hypertree = std::strcmp(c.paper, "hypertree") == 0;
    if (analysis.forest_case != paper_hypertree) {
      std::fprintf(stderr, "FAIL %s: hypertree %s, paper says %s\n", c.label,
                   analysis.forest_case ? "yes" : "no", c.paper);
      status = 1;
    }
  }
  table.Print();

  bench::Header("Random query sets — forest-case rate and GYO timing");
  {
    Rng rng(33);
    TextTable sweep({"#relations", "#queries", "forest-case rate",
                     "avg classify ms"});
    constexpr int kTrials = 40;
    // No count exceeds kTrials, so the first row cannot fail.
    size_t previous_forest = kTrials;
    for (auto [relations, nqueries] :
         {std::pair<size_t, size_t>{3, 2}, {3, 4}, {4, 4}, {5, 6}, {6, 8}}) {
      size_t forest = 0;
      double total_ms = 0.0;
      for (int trial = 0; trial < kTrials; ++trial) {
        RandomWorkloadParams params;
        params.relations = relations;
        params.queries = nqueries;
        params.rows_per_relation = 2;  // data is irrelevant here
        Result<GeneratedVse> generated = GenerateRandomWorkload(rng, params);
        if (!generated.ok()) return 1;
        std::vector<const ConjunctiveQuery*> qs;
        for (const auto& q : generated->queries) qs.push_back(q.get());
        auto [analysis, ms] = bench::Timed([&] {
          return AnalyzeDualGraph(generated->database->schema(), qs);
        });
        total_ms += ms;
        if (analysis.forest_case) ++forest;
      }
      sweep.AddRow({std::to_string(relations), std::to_string(nqueries),
                    FmtDouble(static_cast<double>(forest) / kTrials, 2),
                    FmtDouble(total_ms / kTrials, 3)});
      // Every row has the same trial count, so the counts compare exactly.
      if (forest > previous_forest) {
        std::fprintf(stderr,
                     "FAIL relations=%zu queries=%zu: forest-case rate "
                     "%zu/%d rose from %zu/%d\n",
                     relations, nqueries, forest, kTrials, previous_forest,
                     kTrials);
        status = 1;
      }
      previous_forest = forest;
    }
    sweep.Print();
    std::printf("\nShape check: Fig. 3's classification matches "
                "(Q1 hides the triangle, Q2/Q3 are hypertrees); denser "
                "query sets are less often forest cases.\n");
  }
  return status;
}

}  // namespace
}  // namespace delprop

int main() { return delprop::Run(); }
