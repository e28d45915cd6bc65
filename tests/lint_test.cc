// Unit tests for the delprop-lint static-analysis library: lexer behavior,
// each rule's positive/negative cases, suppression comments, and the
// header-guard path mapping. Files are fed in-memory through SourceFile, so
// the paths below are fake but realistic — several rules are path-scoped.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/lexer.h"
#include "lint/linter.h"
#include "lint/rules.h"

namespace delprop {
namespace lint {
namespace {

// Runs `rule` over one in-memory file (Collect then Check, with
// suppressions applied) and returns the surviving diagnostics.
std::vector<Diagnostic> RunRule(std::unique_ptr<Rule> rule,
                                const std::string& path,
                                const std::string& content) {
  Linter linter;
  linter.AddRule(std::move(rule));
  std::vector<SourceFile> files;
  files.emplace_back(path, content);
  return linter.Run(files).diagnostics;
}

// === Lexer ===

TEST(LexerTest, ClassifiesBasicTokens) {
  std::vector<Token> tokens = Tokenize("foo->bar(42, \"s\"); // note");
  ASSERT_EQ(tokens.size(), 10u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[1].text, "->");
  EXPECT_EQ(tokens[4].kind, TokenKind::kNumber);
  EXPECT_EQ(tokens[6].kind, TokenKind::kString);
  EXPECT_EQ(tokens[9].kind, TokenKind::kComment);
  EXPECT_EQ(tokens[9].text, "// note");
}

TEST(LexerTest, TracksLinesThroughCommentsAndStrings) {
  std::vector<Token> tokens = Tokenize("a\n/* two\nlines */\nb \"x\ny\" c");
  // "a" line 1, comment line 2, "b" line 4; the unterminated string stops
  // at end of line, so "y" and "c" land on line 5.
  EXPECT_EQ(tokens[0].line, 1);
  EXPECT_EQ(tokens[1].line, 2);
  EXPECT_EQ(tokens[2].line, 4);
  EXPECT_EQ(tokens.back().line, 5);
}

TEST(LexerTest, RawStringsSwallowInteriorTokens) {
  std::vector<Token> tokens = Tokenize("x = R\"(std::thread inside)\"; y");
  std::vector<std::string> idents;
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::kIdentifier) idents.emplace_back(t.text);
  }
  EXPECT_EQ(idents, (std::vector<std::string>{"x", "y"}));
}

TEST(LexerTest, CommentsAreStrippedFromSourceFileTokens) {
  SourceFile file("a.cc", "x; // std::thread\n/* rand() */ y;");
  for (const Token& t : file.tokens()) {
    EXPECT_NE(t.kind, TokenKind::kComment);
  }
  ASSERT_EQ(file.tokens().size(), 4u);
}

// === discarded-status ===

constexpr const char* kStatusDecls = R"(
  Status Flush();
  Result<int> Parse(const char* text);
)";

TEST(DiscardedStatusTest, FlagsBareCallStatement) {
  std::vector<Diagnostic> diags = RunRule(
      std::make_unique<DiscardedStatusRule>(), "src/tool/a.cc",
      std::string(kStatusDecls) + "void F() { Flush(); }");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "discarded-status");
  EXPECT_EQ(diags[0].line, 4);
}

TEST(DiscardedStatusTest, FlagsMemberChainAndResultCall) {
  std::vector<Diagnostic> diags = RunRule(
      std::make_unique<DiscardedStatusRule>(), "src/tool/a.cc",
      std::string(kStatusDecls) +
          "void F(Engine& e) { e.sub->Flush(); Parse(\"x\"); }");
  EXPECT_EQ(diags.size(), 2u);
}

TEST(DiscardedStatusTest, AcceptsUsedAndExplicitlyDiscardedValues) {
  std::vector<Diagnostic> diags = RunRule(
      std::make_unique<DiscardedStatusRule>(), "src/tool/a.cc",
      std::string(kStatusDecls) + R"(
        void F() {
          Status s = Flush();
          if (!Flush().ok()) return;
          (void)Flush();
          ASSERT_TRUE(Parse("x").ok());
          return Flush();
        })");
  EXPECT_TRUE(diags.empty());
}

TEST(DiscardedStatusTest, CollectsFromOutOfLineDefinitions) {
  DiscardedStatusRule rule;
  SourceFile file("src/tool/a.cc",
                  "Status ScriptEngine::Execute(int x) { return Ok(); }");
  rule.Collect(file);
  EXPECT_TRUE(rule.status_functions().count("Execute"));
}

TEST(DiscardedStatusTest, NameOverloadedWithOtherReturnTypeIsAmbiguous) {
  // `Insert` returns Result<TupleRef> on Database but bool on DeletionSet;
  // the rule must defer such names to the compiler's [[nodiscard]].
  std::string decls =
      "Result<int> Insert(int row);\n"
      "bool Insert(const Ref& ref);\n";
  DiscardedStatusRule probe;
  probe.Collect(SourceFile("src/a.h", decls));
  EXPECT_TRUE(probe.ambiguous_functions().count("Insert"));
  std::vector<Diagnostic> diags =
      RunRule(std::make_unique<DiscardedStatusRule>(), "src/b.cc",
              decls + "void F() { Insert(7); }");
  EXPECT_TRUE(diags.empty());
}

TEST(DiscardedStatusTest, SuppressionCommentSilences) {
  std::vector<Diagnostic> diags = RunRule(
      std::make_unique<DiscardedStatusRule>(), "src/tool/a.cc",
      std::string(kStatusDecls) +
          "void F() {\n"
          "  Flush();  // delprop-lint: discarded-status-ok best effort\n"
          "}");
  EXPECT_TRUE(diags.empty());
}

// === nondeterministic-iteration ===

TEST(NondeterministicIterationTest, FlagsRangeForOverUnorderedLocal) {
  std::vector<Diagnostic> diags = RunRule(
      std::make_unique<NondeterministicIterationRule>(), "src/solvers/s.cc",
      R"(
        void Emit(std::ostream& out) {
          std::unordered_set<TupleRef, TupleRefHash> seen;
          for (const TupleRef& ref : seen) out << Render(ref);
        })");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "nondeterministic-iteration");
  EXPECT_EQ(diags[0].line, 4);
}

TEST(NondeterministicIterationTest, FlagsTreeWideAliasedContainer) {
  // The alias lives in one file, the loop in another — Collect() must carry
  // the alias across files (this is the PositionIndex case).
  Linter linter;
  linter.AddRule(std::make_unique<NondeterministicIterationRule>());
  std::vector<SourceFile> files;
  files.emplace_back(
      "src/runtime/cache.h",
      "using PositionIndex = std::unordered_map<ValueId, Rows>;");
  files.emplace_back("src/solvers/s.cc",
                     "void F(const PositionIndex index) {\n"
                     "  for (const auto& kv : index) Emit(kv);\n"
                     "}");
  LintReport report = linter.Run(files);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].file, "src/solvers/s.cc");
}

TEST(NondeterministicIterationTest, IgnoresOrderedContainersAndClassicFor) {
  std::vector<Diagnostic> diags = RunRule(
      std::make_unique<NondeterministicIterationRule>(), "src/solvers/s.cc",
      R"(
        void F() {
          std::vector<int> rows;
          std::map<int, int> sorted;
          std::unordered_set<int> lookup;
          for (int r : rows) Use(r);
          for (const auto& kv : sorted) Use(kv);
          for (size_t i = 0; i < rows.size(); ++i) Use(rows[i]);
          if (lookup.count(3) > 0) Use(3);
        })");
  EXPECT_TRUE(diags.empty());
}

TEST(NondeterministicIterationTest, OutOfScopePathIsIgnored) {
  // Hash-order loops are allowed where order cannot reach any output, e.g.
  // the query evaluator's probe loops.
  std::vector<Diagnostic> diags = RunRule(
      std::make_unique<NondeterministicIterationRule>(), "src/query/e.cc",
      "void F(std::unordered_set<int> s) { for (int x : s) Accumulate(x); }");
  EXPECT_TRUE(diags.empty());
}

TEST(NondeterministicIterationTest, SuppressionOnPrecedingLine) {
  std::vector<Diagnostic> diags = RunRule(
      std::make_unique<NondeterministicIterationRule>(), "src/dp/d.cc",
      "void F(std::unordered_set<int> s) {\n"
      "  // delprop-lint: nondeterministic-iteration-ok sums are commutative\n"
      "  for (int x : s) total += x;\n"
      "}");
  EXPECT_TRUE(diags.empty());
}

// === raw-randomness ===

TEST(RawRandomnessTest, FlagsEnginesAndCalls) {
  std::vector<Diagnostic> diags =
      RunRule(std::make_unique<RawRandomnessRule>(), "src/workload/w.cc",
              R"(
        void F() {
          std::random_device rd;
          std::mt19937 gen(rd());
          srand(42);
          int x = rand();
        })");
  EXPECT_EQ(diags.size(), 4u);
  for (const Diagnostic& d : diags) EXPECT_EQ(d.rule, "raw-randomness");
}

TEST(RawRandomnessTest, AllowsRngImplementationAndPlainWords) {
  EXPECT_TRUE(RunRule(std::make_unique<RawRandomnessRule>(),
                      "src/common/rng.cc",
                      "void Rng::Seed() { std::mt19937 bootstrap(7); }")
                  .empty());
  // `random` as a word (not a call) and #include <random> are fine.
  EXPECT_TRUE(RunRule(std::make_unique<RawRandomnessRule>(),
                      "src/workload/w.cc",
                      "#include <random>\nint random_edges = 3;")
                  .empty());
}

// === raw-threading ===

TEST(RawThreadingTest, FlagsStdThreadAndAsyncOutsideRuntime) {
  std::vector<Diagnostic> diags =
      RunRule(std::make_unique<RawThreadingRule>(), "src/solvers/s.cc",
              "void F() { std::thread t(Work); auto f = std::async(G); }");
  EXPECT_EQ(diags.size(), 2u);
  for (const Diagnostic& d : diags) EXPECT_EQ(d.rule, "raw-threading");
}

TEST(RawThreadingTest, AllowsRuntimeDirAndUnqualifiedWords) {
  EXPECT_TRUE(RunRule(std::make_unique<RawThreadingRule>(),
                      "src/runtime/thread_pool.cc",
                      "void Pool::Start() { "
                      "workers_.emplace_back(std::thread([] {})); }")
                  .empty());
  EXPECT_TRUE(RunRule(std::make_unique<RawThreadingRule>(), "src/dp/d.cc",
                      "#include <thread>\nint thread = 0; "
                      "std::this_thread::yield();")
                  .empty());
}

// === hot-path-hashing ===

TEST(HotPathHashingTest, FlagsTupleKeyedMapsInSolverLayers) {
  std::vector<Diagnostic> diags = RunRule(
      std::make_unique<HotPathHashingRule>(), "src/solvers/s.cc",
      "std::unordered_map<TupleRef, double, TupleRefHash> damage;\n"
      "std::unordered_map<ViewTupleId, size_t, ViewTupleIdHash> ids;\n");
  ASSERT_EQ(diags.size(), 2u);
  for (const Diagnostic& d : diags) EXPECT_EQ(d.rule, "hot-path-hashing");
  EXPECT_EQ(diags[0].line, 1);
  EXPECT_EQ(diags[1].line, 2);
}

TEST(HotPathHashingTest, ScopedToSolverAndSetcoverOnly) {
  const std::string content =
      "std::unordered_map<TupleRef, int, TupleRefHash> m;";
  EXPECT_EQ(RunRule(std::make_unique<HotPathHashingRule>(),
                    "src/setcover/c.cc", content)
                .size(),
            1u);
  // Cold layers (reductions, dp, tools) may keep tuple-keyed maps.
  EXPECT_TRUE(RunRule(std::make_unique<HotPathHashingRule>(),
                      "src/reductions/r.cc", content)
                  .empty());
  EXPECT_TRUE(RunRule(std::make_unique<HotPathHashingRule>(),
                      "tools/delprop_shell.cc", content)
                  .empty());
}

TEST(HotPathHashingTest, OtherKeysAndContainersIgnored) {
  EXPECT_TRUE(RunRule(std::make_unique<HotPathHashingRule>(),
                      "src/solvers/s.cc",
                      "std::unordered_map<std::string, int> by_name;\n"
                      "std::vector<TupleRef> refs;\n"
                      "std::unordered_set<int> ints;\n")
                  .empty());
}

TEST(HotPathHashingTest, SuppressionCommentSilences) {
  EXPECT_TRUE(
      RunRule(std::make_unique<HotPathHashingRule>(), "src/solvers/s.cc",
              "// delprop-lint: hot-path-hashing-ok\n"
              "std::unordered_map<TupleRef, int, TupleRefHash> cold_map;\n")
          .empty());
}

// === header-guard ===

TEST(HeaderGuardTest, ExpectedGuardMapsPaths) {
  EXPECT_EQ(HeaderGuardRule::ExpectedGuard("src/lint/rules.h"),
            "DELPROP_LINT_RULES_H_");
  EXPECT_EQ(HeaderGuardRule::ExpectedGuard("bench/bench_util.h"),
            "DELPROP_BENCH_BENCH_UTIL_H_");
  EXPECT_EQ(HeaderGuardRule::ExpectedGuard("/abs/path/src/query/view.h"),
            "DELPROP_QUERY_VIEW_H_");
}

TEST(HeaderGuardTest, AcceptsMatchingGuard) {
  EXPECT_TRUE(RunRule(std::make_unique<HeaderGuardRule>(), "src/query/view.h",
                      "// comment first is fine\n"
                      "#ifndef DELPROP_QUERY_VIEW_H_\n"
                      "#define DELPROP_QUERY_VIEW_H_\n"
                      "#endif  // DELPROP_QUERY_VIEW_H_\n")
                  .empty());
}

TEST(HeaderGuardTest, FlagsMismatchPragmaOnceAndMissingDefine) {
  std::vector<Diagnostic> wrong =
      RunRule(std::make_unique<HeaderGuardRule>(), "src/query/view.h",
              "#ifndef WRONG_H_\n#define WRONG_H_\n#endif\n");
  ASSERT_EQ(wrong.size(), 1u);
  EXPECT_NE(wrong[0].message.find("DELPROP_QUERY_VIEW_H_"),
            std::string::npos);

  EXPECT_EQ(RunRule(std::make_unique<HeaderGuardRule>(), "src/query/view.h",
                    "#pragma once\nint x;\n")
                .size(),
            1u);

  EXPECT_EQ(RunRule(std::make_unique<HeaderGuardRule>(), "src/query/view.h",
                    "#ifndef DELPROP_QUERY_VIEW_H_\n#include <vector>\n")
                .size(),
            1u);
}

TEST(HeaderGuardTest, IgnoresNonHeaders) {
  EXPECT_TRUE(RunRule(std::make_unique<HeaderGuardRule>(), "src/query/view.cc",
                      "int x;")
                  .empty());
}

// === Linter plumbing ===

TEST(LinterTest, DefaultRulesAreRegisteredAndFilterable) {
  Linter all;
  all.AddDefaultRules();
  EXPECT_EQ(all.RuleNames().size(), 9u);
  Linter subset;
  subset.AddDefaultRules({"header-guard"});
  EXPECT_EQ(subset.RuleNames(),
            std::vector<std::string>{"header-guard"});
}

TEST(LinterTest, ReportIsSortedAndCountsSuppressions) {
  Linter linter;
  linter.AddDefaultRules();
  std::vector<SourceFile> files;
  files.emplace_back("src/solvers/z.cc",
                     "void F() { std::thread t(G); }\n"
                     "void H() { srand(1); }  // delprop-lint: raw-randomness-ok\n");
  files.emplace_back("src/solvers/a.cc", "void F() { std::thread t(G); }");
  LintReport report = linter.Run(files);
  ASSERT_EQ(report.diagnostics.size(), 2u);
  EXPECT_EQ(report.suppressed, 1u);
  EXPECT_EQ(report.files_checked, 2u);
  EXPECT_TRUE(std::is_sorted(report.diagnostics.begin(),
                             report.diagnostics.end()));
  EXPECT_EQ(report.diagnostics[0].file, "src/solvers/a.cc");
}

TEST(LinterTest, RunOnPathsFlagsSeededViolationFile) {
  // End-to-end through the CLI's code path: a seeded file on disk violating
  // every rule must come back non-clean (the delprop_lint binary exits 1 on
  // exactly this condition).
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "delprop_lint_test" / "src" /
                 "solvers";
  fs::create_directories(dir);
  fs::path file = dir / "seeded.cc";
  {
    std::ofstream out(file);
    out << "Status Persist();\n"
           "void F(std::unordered_set<int> pending) {\n"
           "  Persist();\n"
           "  for (int x : pending) Emit(x);\n"
           "  srand(1);\n"
           "  std::thread t(G);\n"
           "}\n";
  }
  Linter linter;
  linter.AddDefaultRules();
  Result<LintReport> report = linter.RunOnPaths({file.string()});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->clean());
  std::vector<std::string> rules;
  for (const Diagnostic& d : report->diagnostics) rules.push_back(d.rule);
  EXPECT_EQ(rules,
            (std::vector<std::string>{"discarded-status",
                                      "nondeterministic-iteration",
                                      "raw-randomness", "raw-threading"}));
  fs::remove_all(fs::temp_directory_path() / "delprop_lint_test");

  EXPECT_FALSE(linter.RunOnPaths({"/no/such/delprop/path"}).ok());
}

TEST(LinterTest, OneCommentMaySuppressSeveralRules) {
  std::vector<Diagnostic> diags = RunRule(
      std::make_unique<RawThreadingRule>(), "src/dp/d.cc",
      "// delprop-lint: raw-threading-ok raw-randomness-ok fixture\n"
      "std::thread t(G);");
  EXPECT_TRUE(diags.empty());
}

}  // namespace
}  // namespace lint
}  // namespace delprop
