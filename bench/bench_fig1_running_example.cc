// Regenerates Fig. 1 of the paper: the Author/Journal example tables, the
// materialized views Q3/Q4, and the two deletion-propagation scenarios
// discussed in Section II.C (ΔV = (John, XML) on Q3 with minimum Q3
// side-effect 1; ΔV = (John, TKDE, XML) on Q4 where either witness tuple
// works by key preservation).
//
// Exits 1 and prints `FAIL <row>` on stderr when a stated value does not
// hold: Scenario 1's proven minimum is not 1, a Scenario 2 tuple does not
// eliminate ΔV, or a key-preservation solver (rbsc-lowdeg, primal-dual,
// dp-tree) does not refuse Scenario 1 over both views.
#include <cstdio>
#include <string_view>

#include "bench_util.h"
#include "common/text_table.h"
#include "dp/side_effect.h"
#include "solvers/exact_solver.h"
#include "solvers/solver_registry.h"
#include "workload/author_journal.h"

namespace delprop {
namespace {

void PrintRelation(const Database& db, const char* name) {
  RelationId rel = *db.schema().FindRelation(name);
  std::printf("%s:\n", name);
  for (uint32_t row = 0; row < db.relation(rel).row_count(); ++row) {
    std::printf("  %s\n", db.RenderTuple({rel, row}).c_str());
  }
}

void PrintView(const VseInstance& instance, size_t v) {
  std::printf("%s:\n",
              instance.query(v)
                  .ToString(instance.database().schema(),
                            instance.database().dict())
                  .c_str());
  for (size_t t = 0; t < instance.view(v).size(); ++t) {
    std::printf("  %s\n", instance.view(v).RenderTuple(t).c_str());
  }
}

int Run() {
  int status = 0;
  bench::Header("Fig. 1 — tables and views of the running example");
  Result<GeneratedVse> generated = BuildFig1Example();
  if (!generated.ok()) {
    std::fprintf(stderr, "%s\n", generated.status().ToString().c_str());
    return 1;
  }
  const Database& db = *generated->database;
  PrintRelation(db, "T1");
  PrintRelation(db, "T2");
  PrintView(*generated->instance, 0);
  PrintView(*generated->instance, 1);

  bench::Header("Scenario 1 — ΔV = (John, XML) on Q3");
  {
    Result<GeneratedVse> g = BuildFig1Example();
    std::vector<const ConjunctiveQuery*> q3 = {g->queries[0].get()};
    Result<VseInstance> instance = VseInstance::Create(*g->database, q3);
    (void)instance->MarkForDeletionByValues(0, {"John", "XML"});
    ExactSolver solver;
    Result<VseSolution> solution = solver.Solve(*instance);
    if (!bench::ProvenOptimal(solution)) {
      std::fprintf(stderr, "FAIL scenario 1: no proven minimum\n");
      return 1;
    }
    std::printf("optimal deletion:\n");
    for (const TupleRef& ref : solution->deletion.Sorted()) {
      std::printf("  %s\n", g->database->RenderTuple(ref).c_str());
    }
    std::printf("minimum view side-effect: %.0f (paper: 1)\n",
                solution->Cost());
    if (solution->Cost() != 1.0) {
      std::fprintf(stderr,
                   "FAIL scenario 1: minimum view side-effect %.17g, "
                   "paper: 1\n",
                   solution->Cost());
      status = 1;
    }
  }

  bench::Header("Scenario 2 — ΔV = (John, TKDE, XML) on Q4 (key preserving)");
  {
    Result<GeneratedVse> g = BuildFig1Example();
    std::vector<const ConjunctiveQuery*> q4 = {g->queries[1].get()};
    Result<VseInstance> instance = VseInstance::Create(*g->database, q4);
    (void)instance->MarkForDeletionByValues(0, {"John", "TKDE", "XML"});
    TextTable table({"deleted tuple", "eliminates ΔV", "side-effect"});
    RelationId t1 = *g->database->schema().FindRelation("T1");
    RelationId t2 = *g->database->schema().FindRelation("T2");
    for (TupleRef ref : {TupleRef{t1, 1}, TupleRef{t2, 0}}) {
      DeletionSet deletion;
      deletion.Insert(ref);
      SideEffectReport report = EvaluateDeletion(*instance, deletion);
      table.AddRow({g->database->RenderTuple(ref),
                    report.eliminates_all_deletions ? "yes" : "no",
                    std::to_string(report.side_effect_count)});
      if (!report.eliminates_all_deletions) {
        std::fprintf(stderr, "FAIL scenario 2: %s does not eliminate ΔV\n",
                     g->database->RenderTuple(ref).c_str());
        status = 1;
      }
    }
    table.Print();
    std::printf("\nEither single tuple works — the key-preserving property "
                "the algorithms exploit.\n");
  }

  bench::Header("All solvers on scenario 1 (both views materialized)");
  {
    Result<GeneratedVse> g = BuildFig1Example();
    VseInstance& instance = *g->instance;
    (void)instance.MarkForDeletionByValues(0, {"John", "XML"});
    TextTable table({"solver", "status", "feasible", "side-effect", "|ΔD|"});
    for (const char* name :
         {"exact", "greedy", "rbsc-lowdeg", "primal-dual", "dp-tree"}) {
      auto solver = MakeSolver(name);
      auto [solution, ms] =
          bench::Timed([&] { return solver->Solve(instance); });
      if (solution.ok()) {
        table.AddRow({name, "ok", solution->Feasible() ? "yes" : "no",
                      FmtDouble(solution->Cost(), 0),
                      std::to_string(solution->deletion.size())});
      } else {
        table.AddRow({name, StatusCodeName(solution.status().code()), "-",
                      "-", "-"});
      }
      bool must_refuse = std::string_view(name) != "exact" &&
                         std::string_view(name) != "greedy";
      bool refused = !solution.ok() && solution.status().code() ==
                                           StatusCode::kFailedPrecondition;
      if (must_refuse && !refused) {
        std::fprintf(stderr,
                     "FAIL all solvers: %s does not refuse with "
                     "FailedPrecondition\n",
                     name);
        status = 1;
      }
    }
    table.Print();
    std::printf("\n(rbsc-lowdeg / tree solvers refuse: Q3 is not key "
                "preserving, (John, XML) has two witnesses.)\n");
  }
  return status;
}

}  // namespace
}  // namespace delprop

int main() { return delprop::Run(); }
