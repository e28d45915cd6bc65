// Tests for delprop_lint's semantic layer: the SemanticModel (function
// extraction, call graph, hot reachability), the three semantic rules
// (hot-path-allocation, shared-core-mutation, epoch-protocol) with
// positive/negative/suppression cases each, the parallel Check phase's
// determinism, and the JSON report/baseline round-trip. Files are fed
// in-memory through SourceFile; paths are fake but realistic because the
// hot graph and several checks are path-scoped to src/.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/compile_commands.h"
#include "lint/json.h"
#include "lint/json_report.h"
#include "lint/linter.h"
#include "lint/rules.h"
#include "lint/semantic_model.h"

namespace delprop {
namespace lint {
namespace {

// Builds a model over in-memory files given as (path, content) pairs.
SemanticModel BuildModel(
    const std::vector<std::pair<std::string, std::string>>& sources) {
  SemanticModel model;
  std::vector<SourceFile> files;
  files.reserve(sources.size());
  for (const auto& [path, content] : sources) {
    files.emplace_back(path, content);
  }
  for (const SourceFile& file : files) model.AddFile(file);
  model.Finalize();
  return model;
}

// Runs `rule` (binding the semantic model built over all files) and returns
// surviving diagnostics, exactly as Linter::Run would.
std::vector<Diagnostic> RunSemanticRule(
    std::unique_ptr<Rule> rule,
    const std::vector<std::pair<std::string, std::string>>& sources) {
  Linter linter;
  linter.AddRule(std::move(rule));
  std::vector<SourceFile> files;
  files.reserve(sources.size());
  for (const auto& [path, content] : sources) {
    files.emplace_back(path, content);
  }
  return linter.Run(files).diagnostics;
}

const FunctionInfo* FindFn(const SemanticModel& model,
                           const std::string& qualified) {
  for (const FunctionInfo& fn : model.functions()) {
    if (fn.qualified == qualified) return &fn;
  }
  return nullptr;
}

bool Hot(const SemanticModel& model, const std::string& qualified) {
  for (size_t i = 0; i < model.functions().size(); ++i) {
    if (model.functions()[i].qualified == qualified) {
      return model.IsHotReachable(i);
    }
  }
  return false;
}

// === SemanticModel: extraction ===

TEST(SemanticModelTest, ExtractsFreeMemberAndOutOfLineFunctions) {
  SemanticModel model = BuildModel({{"src/a.cc", R"(
    namespace delprop {
    int Free(int x) { return x + 1; }
    class Widget {
     public:
      void Inline() { Free(2); }
      void OutOfLine();
    };
    void Widget::OutOfLine() { Inline(); }
    }  // namespace delprop
  )"}});
  const FunctionInfo* free_fn = FindFn(model, "Free");
  ASSERT_NE(free_fn, nullptr);
  EXPECT_EQ(free_fn->class_name, "");
  const FunctionInfo* inline_fn = FindFn(model, "Widget::Inline");
  ASSERT_NE(inline_fn, nullptr);
  EXPECT_EQ(inline_fn->class_name, "Widget");
  EXPECT_EQ(inline_fn->calls, std::vector<std::string>{"Free"});
  const FunctionInfo* out_fn = FindFn(model, "Widget::OutOfLine");
  ASSERT_NE(out_fn, nullptr);
  EXPECT_EQ(out_fn->calls, std::vector<std::string>{"Inline"});
}

TEST(SemanticModelTest, HandlesCtorInitializersAndQualifiers) {
  SemanticModel model = BuildModel({{"src/a.cc", R"(
    class Pool {
     public:
      explicit Pool(size_t n) : size_(n), data_(n, 0) { Fill(); }
      size_t size() const noexcept { return size_; }
     private:
      size_t size_;
      std::vector<int> data_;
    };
  )"}});
  const FunctionInfo* ctor = FindFn(model, "Pool::Pool");
  ASSERT_NE(ctor, nullptr);
  EXPECT_EQ(ctor->calls, std::vector<std::string>{"Fill"});
  EXPECT_NE(FindFn(model, "Pool::size"), nullptr);
}

TEST(SemanticModelTest, EnclosingFunctionMapsTokenToBody) {
  std::vector<SourceFile> files;
  files.emplace_back("src/a.cc", "void A() { x(); }\nvoid B() { y(); }\n");
  SemanticModel model;
  model.AddFile(files[0]);
  model.Finalize();
  // Token index of "y" — tokens: void A ( ) { x ( ) ; } void B ( ) { y ...
  size_t y_index = 0;
  for (size_t i = 0; i < files[0].tokens().size(); ++i) {
    if (files[0].tokens()[i].Is("y")) y_index = i;
  }
  const FunctionInfo* fn = model.EnclosingFunction("src/a.cc", y_index);
  ASSERT_NE(fn, nullptr);
  EXPECT_EQ(fn->name, "B");
}

TEST(SemanticModelTest, CollectsReservedNamesTreeWide) {
  SemanticModel model = BuildModel(
      {{"src/a.cc", "void F() { buf_.reserve(10); out->reserve(2); }"}});
  EXPECT_TRUE(model.IsReservedName("buf_"));
  EXPECT_TRUE(model.IsReservedName("out"));
  EXPECT_FALSE(model.IsReservedName("other"));
}

// === SemanticModel: hot reachability ===

constexpr const char* kSolverFile = R"(
  class GreedySolver : public VseSolver {
   public:
    Result<VseSolution> SolveWith(const VseInstance& instance,
                                  SolverScratch* scratch) override {
      return Helper(instance);
    }
  };
  Result<VseSolution> Helper(const VseInstance& instance) {
    Leaf();
    return {};
  }
  void Leaf() {}
  void Unrelated() { Leaf(); }
)";

TEST(SemanticModelTest, SolveWithOverridesSeedHotGraph) {
  SemanticModel model = BuildModel({{"src/solvers/greedy.cc", kSolverFile}});
  EXPECT_TRUE(Hot(model, "GreedySolver::SolveWith"));
  EXPECT_TRUE(Hot(model, "Helper"));
  EXPECT_TRUE(Hot(model, "Leaf"));
  EXPECT_FALSE(Hot(model, "Unrelated"));
}

TEST(SemanticModelTest, HotChainNamesTheDiscoveryPath) {
  SemanticModel model = BuildModel({{"src/solvers/greedy.cc", kSolverFile}});
  for (size_t i = 0; i < model.functions().size(); ++i) {
    if (model.functions()[i].qualified == "Leaf") {
      EXPECT_EQ(model.HotChain(i),
                "GreedySolver::SolveWith → Helper → Leaf");
    }
  }
}

TEST(SemanticModelTest, HotAnnotationAddsRootAndHotStopPrunes) {
  SemanticModel model = BuildModel({{"src/dp/a.cc", R"(
    // delprop-hot
    void PerPickKernel() { Shared(); }
    void Shared() { Sink(); }
    // delprop-hot-stop
    void Sink() { Below(); }
    void Below() {}
  )"}});
  EXPECT_TRUE(Hot(model, "PerPickKernel"));
  EXPECT_TRUE(Hot(model, "Shared"));
  // The sink and everything only reachable through it stay cold.
  EXPECT_FALSE(Hot(model, "Sink"));
  EXPECT_FALSE(Hot(model, "Below"));
}

TEST(SemanticModelTest, TestFilesNeverJoinTheHotGraph) {
  // Same content as a src/ solver, but under tests/: out of hot scope.
  SemanticModel model = BuildModel({{"tests/fake_test.cc", kSolverFile}});
  EXPECT_FALSE(Hot(model, "GreedySolver::SolveWith"));
  EXPECT_FALSE(Hot(model, "Helper"));
}

// === hot-path-allocation ===

TEST(HotPathAllocationTest, FlagsUnReservedPushBackInHotFunction) {
  // The seeded mutation from the acceptance checklist: an un-annotated
  // push_back in a hot-reachable function must fire.
  std::vector<Diagnostic> diags = RunSemanticRule(
      std::make_unique<HotPathAllocationRule>(),
      {{"src/solvers/s.cc", R"(
        class S : public VseSolver {
         public:
          Result<VseSolution> SolveWith(const VseInstance& i,
                                        SolverScratch* s) override {
            picks_.push_back(1);
            return {};
          }
        };
      )"}});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "hot-path-allocation");
  EXPECT_NE(diags[0].message.find("picks_"), std::string::npos);
  EXPECT_NE(diags[0].message.find("reached via"), std::string::npos);
}

TEST(HotPathAllocationTest, FlagsNewMakeSharedStringAndUnorderedMap) {
  std::vector<Diagnostic> diags = RunSemanticRule(
      std::make_unique<HotPathAllocationRule>(),
      {{"src/solvers/s.cc", R"(
        class S : public VseSolver {
         public:
          Result<VseSolution> SolveWith(const VseInstance& i,
                                        SolverScratch* s) override {
            auto* p = new int(3);
            auto q = std::make_shared<int>(4);
            std::string label = "x";
            std::unordered_map<int, int> m;
            return {};
          }
        };
      )"}});
  EXPECT_EQ(diags.size(), 4u);
}

TEST(HotPathAllocationTest, ReservedContainersAndColdFunctionsPass) {
  std::vector<Diagnostic> diags = RunSemanticRule(
      std::make_unique<HotPathAllocationRule>(),
      {{"src/solvers/s.cc", R"(
        class S : public VseSolver {
         public:
          Result<VseSolution> SolveWith(const VseInstance& i,
                                        SolverScratch* s) override {
            picks_.reserve(64);
            picks_.push_back(1);
            const std::string& name = i.name();
            return {};
          }
        };
        void ColdSetup() { cold_.push_back(2); }
      )"}});
  EXPECT_TRUE(diags.empty());
}

TEST(HotPathAllocationTest, SuppressionCommentSilencesFinding) {
  std::vector<Diagnostic> diags = RunSemanticRule(
      std::make_unique<HotPathAllocationRule>(),
      {{"src/solvers/s.cc", R"(
        class S : public VseSolver {
         public:
          Result<VseSolution> SolveWith(const VseInstance& i,
                                        SolverScratch* s) override {
            // delprop-lint: hot-path-allocation-ok grows once then stable
            picks_.push_back(1);
            return {};
          }
        };
      )"}});
  EXPECT_TRUE(diags.empty());
}

// === shared-core-mutation ===

TEST(SharedCoreMutationTest, FlagsFieldWriteOutsideMutationPoints) {
  // Seeded mutation: a PlanCore field write outside the allowlist.
  std::vector<Diagnostic> diags = RunSemanticRule(
      std::make_unique<SharedCoreMutationRule>(),
      {{"src/dp/a.cc", R"(
        void Tweak(PlanCore* core) { core->weight[0] = 2.0; }
      )"}});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "shared-core-mutation");
  EXPECT_NE(diags[0].message.find("core"), std::string::npos);
}

TEST(SharedCoreMutationTest, FlagsMutatingCallAndConstCast) {
  std::vector<Diagnostic> diags = RunSemanticRule(
      std::make_unique<SharedCoreMutationRule>(),
      {{"src/dp/a.cc", R"(
        void Grow(PlanCore& core) { core.weight.push_back(1.0); }
        void Strip(const PlanCore& core) {
          const_cast<PlanCore&>(core).weight.clear();
        }
      )"}});
  EXPECT_EQ(diags.size(), 2u);
}

TEST(SharedCoreMutationTest, MutationPointsAndConstUsesPass) {
  std::vector<Diagnostic> diags = RunSemanticRule(
      std::make_unique<SharedCoreMutationRule>(),
      {{"src/plan/a.cc", R"(
        void BuildFromCore(const PlanCore& core, double w) {
          const_cast<PlanCore&>(core).weight[0] = w;
        }
        std::shared_ptr<PlanCore> BuildCore() {
          auto core = std::make_shared<PlanCore>();
          core->weight.push_back(1.0);
          return core;
        }
        double Read(const PlanCore& core) { return core.weight[0]; }
      )"}});
  EXPECT_TRUE(diags.empty());
}

// Only the builders are mutation points: a const_cast write in a function
// named SetWeight or PatchCore is flagged like one anywhere else.
TEST(SharedCoreMutationTest, SetWeightAndPatchCoreAreNotMutationPoints) {
  std::vector<Diagnostic> diags = RunSemanticRule(
      std::make_unique<SharedCoreMutationRule>(),
      {{"src/dp/a.cc", R"(
        void SetWeight(const PlanCore& core, double w) {
          const_cast<PlanCore&>(core).weight[0] = w;
        }
        void PatchCore(const PlanCore& core) {
          const_cast<PlanCore&>(core).weight.clear();
        }
      )"}});
  ASSERT_EQ(diags.size(), 2u);
  for (const Diagnostic& diag : diags) {
    EXPECT_EQ(diag.rule, "shared-core-mutation");
    EXPECT_NE(diag.message.find("const_cast"), std::string::npos);
  }
}

TEST(SharedCoreMutationTest, FlagsSubmitByReferenceOutsideRuntime) {
  std::vector<Diagnostic> diags = RunSemanticRule(
      std::make_unique<SharedCoreMutationRule>(),
      {{"src/engine/a.cc",
        "void F(ThreadPool& pool, int& x) {\n"
        "  pool.Submit([&x] { x = 1; });\n"
        "}\n"},
       {"src/runtime/b.cc",
        "void G(ThreadPool& pool, int& x) {\n"
        "  pool.Submit([&x] { x = 1; });\n"
        "}\n"}});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].file, "src/engine/a.cc");
  EXPECT_NE(diags[0].message.find("Submit"), std::string::npos);
}

TEST(SharedCoreMutationTest, SuppressionCommentSilencesFinding) {
  std::vector<Diagnostic> diags = RunSemanticRule(
      std::make_unique<SharedCoreMutationRule>(),
      {{"src/engine/a.cc",
        "void F(ThreadPool& pool, int& x) {\n"
        "  // delprop-lint: shared-core-mutation-ok Wait() in same frame\n"
        "  pool.Submit([&x] { x = 1; });\n"
        "  pool.Wait();\n"
        "}\n"}});
  EXPECT_TRUE(diags.empty());
}

// === epoch-protocol ===

TEST(EpochProtocolTest, FlagsSwapWithoutReleaseAfterAcquire) {
  // Seeded mutation: tracker re-acquired, then the ΔV swap runs without an
  // intervening release.
  std::vector<Diagnostic> diags = RunSemanticRule(
      std::make_unique<EpochProtocolRule>(),
      {{"src/engine/e.cc", R"(
        void Handoff(Scratch& scratch, Replica* replica, Delta delta) {
          scratch.AcquireTracker(*replica);
          replica->ResetDeletions();
        }
      )"}});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "epoch-protocol");
  EXPECT_NE(diags[0].message.find("ΔV swap"), std::string::npos);
}

TEST(EpochProtocolTest, ReleaseBeforeSwapPasses) {
  // The real engine pattern: ReleasePlans() then the swap.
  std::vector<Diagnostic> diags = RunSemanticRule(
      std::make_unique<EpochProtocolRule>(),
      {{"src/engine/e.cc", R"(
        void Handoff(Scratch& scratch, Replica* replica, Delta delta) {
          scratch.ReleasePlans();
          replica->ResetDeletions();
          replica->ApplyDelta(delta);
        }
      )"}});
  EXPECT_TRUE(diags.empty());
}

TEST(EpochProtocolTest, SwapCallsOutsideServingLayersAreIgnored) {
  // The mutator definitions and tests live outside src/engine,src/solvers.
  std::vector<Diagnostic> diags = RunSemanticRule(
      std::make_unique<EpochProtocolRule>(),
      {{"tests/engine_test.cc", R"(
        void Drive(Replica* replica) { replica->ResetDeletions(); }
      )"}});
  EXPECT_TRUE(diags.empty());
}

TEST(EpochProtocolTest, FlagsMutatorWithoutInvalidation) {
  std::vector<Diagnostic> diags = RunSemanticRule(
      std::make_unique<EpochProtocolRule>(),
      {{"src/dp/vse.cc", R"(
        void VseInstance::MarkForDeletion(ViewTupleId id) {
          deletions_.insert(id);
        }
      )"}});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("MarkForDeletion"), std::string::npos);
}

TEST(EpochProtocolTest, MutatorInvalidatingOrDelegatingPasses) {
  std::vector<Diagnostic> diags = RunSemanticRule(
      std::make_unique<EpochProtocolRule>(),
      {{"src/dp/vse.cc", R"(
        void VseInstance::MarkForDeletion(ViewTupleId id) {
          deletions_.insert(id);
          InvalidateOverlayCaches();
        }
        void VseInstance::MarkForDeletionByValues(const Tuple& t) {
          MarkForDeletion(Find(t));
        }
        void VseInstance::SetWeight(ViewTupleId id, double w) {
          caches_->plan_core->weight[0] = w;
        }
      )"}});
  EXPECT_TRUE(diags.empty());
}

TEST(EpochProtocolTest, FlagsEpochAdvanceWithoutCacheClear) {
  // Seeded mutation: ++core_epoch_ with the memo-cache clear deleted.
  std::vector<Diagnostic> diags = RunSemanticRule(
      std::make_unique<EpochProtocolRule>(),
      {{"src/engine/e.cc", R"(
        void BatchSolveEngine::Advance() {
          ++core_epoch_;
        }
      )"}});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("core_epoch_"), std::string::npos);
}

TEST(EpochProtocolTest, EpochAdvanceWithCacheClearPasses) {
  std::vector<Diagnostic> diags = RunSemanticRule(
      std::make_unique<EpochProtocolRule>(),
      {{"src/engine/e.cc", R"(
        void BatchSolveEngine::Advance() {
          ++core_epoch_;
          cache_.clear();
        }
      )"}});
  EXPECT_TRUE(diags.empty());
}

// === Parallel Check determinism ===

TEST(LinterParallelTest, ThreadCountsProduceIdenticalReports) {
  // Many small files with violations in several rules; the merged report
  // must be identical at every thread count.
  std::vector<SourceFile> files;
  for (int i = 0; i < 24; ++i) {
    std::string path =
        "src/solvers/f" + std::to_string(i) + ".cc";
    files.emplace_back(path,
                       "void F() { std::thread t(G); }\n"
                       "void H() { srand(" + std::to_string(i) + "); }\n");
  }
  Linter serial;
  serial.AddDefaultRules();
  LintReport base = serial.Run(files);
  EXPECT_FALSE(base.diagnostics.empty());
  for (int threads : {2, 4, 13}) {
    Linter parallel;
    parallel.AddDefaultRules();
    parallel.set_threads(threads);
    LintReport got = parallel.Run(files);
    EXPECT_EQ(got.diagnostics, base.diagnostics) << threads << " threads";
    EXPECT_EQ(got.suppressed, base.suppressed);
  }
}

// === JSON report and baseline ===

TEST(JsonTest, ParsesAndDumpsRoundTrip) {
  Result<JsonValue> doc = ParseJson(
      "{\"a\": [1, 2.5, true, null], \"b\": {\"c\": \"x\\ny\"}}");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* a = doc->Find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->items().size(), 4u);
  EXPECT_EQ(a->items()[0].AsNumber(), 1.0);
  Result<JsonValue> again = ParseJson(doc->Dump());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->Dump(), doc->Dump());
  EXPECT_FALSE(ParseJson("{oops}").ok());
  EXPECT_FALSE(ParseJson("[1, 2] tail").ok());
}

TEST(JsonReportTest, BaselineRoundTripAbsorbsKnownFindings) {
  LintReport report;
  report.files_checked = 3;
  report.diagnostics.push_back(
      Diagnostic{"src/a.cc", 10, "hot-path-allocation", "operator new"});
  report.diagnostics.push_back(
      Diagnostic{"src/b.cc", 20, "epoch-protocol", "swap without release"});
  std::string json = ReportToJson(report, "abc123");

  namespace fs = std::filesystem;
  fs::path path = fs::temp_directory_path() / "delprop_lint_baseline.json";
  {
    std::ofstream out(path);
    out << json;
  }
  Result<std::vector<BaselineEntry>> baseline = LoadBaseline(path.string());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_EQ(baseline->size(), 2u);

  // Same findings at drifted line numbers: all absorbed, none fresh.
  std::vector<Diagnostic> drifted = report.diagnostics;
  drifted[0].line = 14;
  BaselineDelta delta = ApplyBaseline(drifted, *baseline);
  EXPECT_TRUE(delta.fresh.empty());
  EXPECT_EQ(delta.baselined, 2u);
  EXPECT_EQ(delta.stale, 0u);

  // A new finding stays fresh; a fixed finding leaves a stale entry.
  std::vector<Diagnostic> changed = {
      report.diagnostics[0],
      Diagnostic{"src/c.cc", 5, "shared-core-mutation", "field write"}};
  delta = ApplyBaseline(changed, *baseline);
  ASSERT_EQ(delta.fresh.size(), 1u);
  EXPECT_EQ(delta.fresh[0].file, "src/c.cc");
  EXPECT_EQ(delta.baselined, 1u);
  EXPECT_EQ(delta.stale, 1u);

  // A duplicated violation exceeds the baseline's multiset budget.
  std::vector<Diagnostic> duplicated = {report.diagnostics[0],
                                        report.diagnostics[0]};
  delta = ApplyBaseline(duplicated, *baseline);
  EXPECT_EQ(delta.fresh.size(), 1u);

  fs::remove(path);
  EXPECT_FALSE(LoadBaseline("/no/such/baseline.json").ok());
}

TEST(CompileCommandsTest, ReadsFileEntriesRelativeToBase) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "delprop_lint_cc_test";
  fs::create_directories(dir / "src");
  {
    std::ofstream out(dir / "src" / "a.cc");
    out << "int x;\n";
  }
  fs::path db = dir / "compile_commands.json";
  {
    std::ofstream out(db);
    out << "[{\"directory\": \"" << dir.generic_string()
        << "\", \"command\": \"c++ -c src/a.cc\", \"file\": \""
        << (dir / "src" / "a.cc").generic_string()
        << "\"},\n"
           " {\"directory\": \"" << dir.generic_string()
        << "\", \"command\": \"c++ -c gone.cc\", \"file\": \""
        << (dir / "gone.cc").generic_string() << "\"}]\n";
  }
  Result<std::vector<std::string>> files =
      ReadCompileCommands(db.string(), dir.string());
  ASSERT_TRUE(files.ok()) << files.status().ToString();
  // The stale entry (gone.cc does not exist) is dropped.
  EXPECT_EQ(*files, std::vector<std::string>{"src/a.cc"});
  fs::remove_all(dir);

  EXPECT_FALSE(ReadCompileCommands("/no/such/db.json", ".").ok());
}

}  // namespace
}  // namespace lint
}  // namespace delprop
