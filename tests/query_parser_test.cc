#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dp/vse_instance.h"
#include "query/parser.h"
#include "reductions/rbsc_to_vse.h"
#include "workload/author_journal.h"
#include "workload/hardness_family.h"
#include "workload/path_schema.h"
#include "workload/random_rbsc.h"
#include "workload/star_schema.h"
#include "workload/trap_chain.h"

namespace delprop {
namespace {

class ParserTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(schema_.AddRelation("T1", 2, {0}).ok());
    ASSERT_TRUE(schema_.AddRelation("T2", 3, {0, 1}).ok());
  }
  Schema schema_;
  ValueDictionary dict_;
};

TEST_F(ParserTest, ParsesFig1StyleQuery) {
  Result<ConjunctiveQuery> q =
      ParseQuery("Q3(x, z) :- T1(x, y), T2(y, z, w)", schema_, dict_);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->name(), "Q3");
  EXPECT_EQ(q->arity(), 2u);
  EXPECT_EQ(q->atoms().size(), 2u);
  EXPECT_EQ(q->variable_count(), 4u);
  EXPECT_EQ(q->ToString(schema_, dict_), "Q3(x, z) :- T1(x, y), T2(y, z, w)");
}

TEST_F(ParserTest, ParsesConstants) {
  Result<ConjunctiveQuery> q =
      ParseQuery("Q(x) :- T2('TKDE', x, 30)", schema_, dict_);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const Atom& atom = q->atoms()[0];
  EXPECT_TRUE(atom.terms[0].is_constant());
  EXPECT_EQ(dict_.Text(atom.terms[0].id), "TKDE");
  EXPECT_TRUE(atom.terms[1].is_variable());
  EXPECT_TRUE(atom.terms[2].is_constant());
  EXPECT_EQ(dict_.Text(atom.terms[2].id), "30");
}

TEST_F(ParserTest, RepeatedHeadVariablesShareIds) {
  Result<ConjunctiveQuery> q =
      ParseQuery("Q(y, y) :- T1(y, x)", schema_, dict_);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->head()[0].id, q->head()[1].id);
}

TEST_F(ParserTest, SelfJoinAllowed) {
  Result<ConjunctiveQuery> q =
      ParseQuery("Q(a, b, c) :- T1(a, b), T1(b, c)", schema_, dict_);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->atoms().size(), 2u);
  EXPECT_EQ(q->atoms()[0].relation, q->atoms()[1].relation);
}

TEST_F(ParserTest, RejectsUndeclaredRelation) {
  Result<ConjunctiveQuery> q = ParseQuery("Q(x) :- Nope(x)", schema_, dict_);
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kNotFound);
}

TEST_F(ParserTest, RejectsArityMismatch) {
  EXPECT_FALSE(ParseQuery("Q(x) :- T1(x)", schema_, dict_).ok());
  EXPECT_FALSE(ParseQuery("Q(x) :- T1(x, y, z)", schema_, dict_).ok());
}

TEST_F(ParserTest, RejectsUnsafeHead) {
  // Head variable q does not occur in the body.
  Result<ConjunctiveQuery> q = ParseQuery("Q(q) :- T1(x, y)", schema_, dict_);
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ParserTest, RejectsSyntaxErrors) {
  EXPECT_FALSE(ParseQuery("Q(x) : T1(x, y)", schema_, dict_).ok());
  EXPECT_FALSE(ParseQuery("Q(x :- T1(x, y)", schema_, dict_).ok());
  EXPECT_FALSE(ParseQuery("Q(x) :- T1(x, y) trailing", schema_, dict_).ok());
  EXPECT_FALSE(ParseQuery("Q(x) :- T1('unterminated, y)", schema_, dict_).ok());
  EXPECT_FALSE(ParseQuery("", schema_, dict_).ok());
}

// Every error path of ParseQuery, with its exact code and message.
struct ParseError {
  const char* text;
  StatusCode code;
  const char* message;
};

TEST_F(ParserTest, ErrorPathsKeepCodeAndMessage) {
  const ParseError kCases[] = {
      {"", StatusCode::kInvalidArgument, "expected query name"},
      {"(x) :- T1(x, y)", StatusCode::kInvalidArgument, "expected query name"},
      {"Q x) :- T1(x, y)", StatusCode::kInvalidArgument,
       "expected '(' in query text"},
      {"Q(x :- T1(x, y)", StatusCode::kInvalidArgument,
       "expected ')' in query text"},
      {"Q(x) T1(x, y)", StatusCode::kInvalidArgument,
       "expected ':-' in query text"},
      // A lone ':' fails in the lexer, with the same message.
      {"Q(x) : T1(x, y)", StatusCode::kInvalidArgument,
       "expected ':-' in query text"},
      {"Q(x) :- T1('unterminated, y)", StatusCode::kInvalidArgument,
       "unterminated quoted constant"},
      {"Q(x) :- T1(x, y) $", StatusCode::kInvalidArgument,
       "unexpected character '$' in query text"},
      {"Q(x) :- T1(x, y; z)", StatusCode::kInvalidArgument,
       "unexpected character ';' in query text"},
      {"Q(,) :- T1(x, y)", StatusCode::kInvalidArgument, "expected a term"},
      {"Q() :- T1(x, y)", StatusCode::kInvalidArgument, "expected a term"},
      {"Q(x) :- T1(x, :-)", StatusCode::kInvalidArgument, "expected a term"},
      {"Q(", StatusCode::kInvalidArgument, "unexpected end of query text"},
      {"Q(x) :- T1(x,", StatusCode::kInvalidArgument,
       "unexpected end of query text"},
      {"Q(x) :-", StatusCode::kInvalidArgument,
       "expected relation name in body"},
      {"Q(x) :- (x, y)", StatusCode::kInvalidArgument,
       "expected relation name in body"},
      {"Q(x) :- T1(x, y), 'T2'(x)", StatusCode::kInvalidArgument,
       "expected relation name in body"},
      {"Q(x) :- Nope(x)", StatusCode::kNotFound,
       "undeclared relation 'Nope' in query body"},
      {"Q(x) :- T1 x, y)", StatusCode::kInvalidArgument,
       "expected '(' in query text"},
      {"Q(x) :- T1(x, y", StatusCode::kInvalidArgument,
       "expected ')' in query text"},
      {"Q(x) :- T1(x, y) trailing", StatusCode::kInvalidArgument,
       "trailing tokens after query body"},
      {"Q(x) :- T1(x, y) (", StatusCode::kInvalidArgument,
       "trailing tokens after query body"},
      // Parsed, then rejected by ConjunctiveQuery::Validate.
      {"Q(x) :- T1(x)", StatusCode::kInvalidArgument,
       "query 'Q' atom over 'T1' has wrong arity"},
      {"Q(q) :- T1(x, y)", StatusCode::kInvalidArgument,
       "head variable 'q' of query 'Q' does not occur in the body"},
  };
  for (const ParseError& c : kCases) {
    Result<ConjunctiveQuery> q = ParseQuery(c.text, schema_, dict_);
    ASSERT_FALSE(q.ok()) << c.text;
    EXPECT_EQ(q.status().code(), c.code) << c.text;
    EXPECT_EQ(q.status().message(), c.message) << c.text;
  }
}

TEST_F(ParserTest, LexicalErrorLaterInTheTextWins) {
  // The missing '(' comes first, but the whole text is lexed before it is
  // parsed, so the stray '$' is what gets reported.
  Result<ConjunctiveQuery> q = ParseQuery("Q x) :- T1(x, y) $", schema_, dict_);
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(q.status().message(), "unexpected character '$' in query text");
}

TEST_F(ParserTest, ParsesWithoutWhitespaceAndAcrossLines) {
  Result<ConjunctiveQuery> q =
      ParseQuery("Q3(x,z):-T1(x,y),\n\tT2(y,z,w)", schema_, dict_);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->ToString(schema_, dict_), "Q3(x, z) :- T1(x, y), T2(y, z, w)");
}

TEST_F(ParserTest, NegativeIntegerConstant) {
  Result<ConjunctiveQuery> q =
      ParseQuery("Q(x, y) :- T2(x, y, -5)", schema_, dict_);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(dict_.Text(q->atoms()[0].terms[2].id), "-5");
}

// A term as the query text spells it: variables by name, constants by id.
std::string TermKey(const ConjunctiveQuery& q, const Term& t) {
  return t.is_variable() ? "var " + q.variable_name(t.id)
                         : "const " + std::to_string(t.id);
}

std::vector<std::string> TermKeys(const ConjunctiveQuery& q,
                                  const std::vector<Term>& terms) {
  std::vector<std::string> keys;
  for (const Term& t : terms) keys.push_back(TermKey(q, t));
  return keys;
}

std::vector<std::string> SortedVariableNames(const ConjunctiveQuery& q) {
  std::vector<std::string> names;
  for (VarId v = 0; v < q.variable_count(); ++v) {
    names.push_back(q.variable_name(v));
  }
  std::sort(names.begin(), names.end());
  return names;
}

// Parsing a query's rendering gives back the same query: name, head, atoms
// and variable names. Variable ids may differ (the parser numbers variables
// by first occurrence), so terms are compared as the text spells them.
void ExpectRoundTrips(const GeneratedVse& generated, const char* label) {
  SCOPED_TRACE(label);
  ASSERT_NE(generated.instance, nullptr);
  Database& db = *generated.database;
  ASSERT_GT(generated.instance->view_count(), 0u);
  for (size_t v = 0; v < generated.instance->view_count(); ++v) {
    const ConjunctiveQuery& original = generated.instance->query(v);
    std::string text = original.ToString(db.schema(), db.dict());
    Result<ConjunctiveQuery> parsed =
        ParseQuery(text, db.schema(), db.dict());
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    EXPECT_EQ(parsed->name(), original.name());
    EXPECT_EQ(TermKeys(*parsed, parsed->head()),
              TermKeys(original, original.head()));
    ASSERT_EQ(parsed->atoms().size(), original.atoms().size());
    for (size_t a = 0; a < original.atoms().size(); ++a) {
      EXPECT_EQ(parsed->atoms()[a].relation, original.atoms()[a].relation);
      EXPECT_EQ(TermKeys(*parsed, parsed->atoms()[a].terms),
                TermKeys(original, original.atoms()[a].terms));
    }
    EXPECT_EQ(SortedVariableNames(*parsed), SortedVariableNames(original));
    EXPECT_EQ(parsed->ToString(db.schema(), db.dict()), text);
  }
}

TEST(ParserRoundTripTest, RenderedQueriesParseBackFromEveryGenerator) {
  Rng rng(7);
  {
    Result<GeneratedVse> g = BuildFig1Example();
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    ExpectRoundTrips(*g, "fig1");
  }
  {
    Result<GeneratedVse> g = GeneratePathSchema(rng, PathSchemaParams{});
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    ExpectRoundTrips(*g, "path schema");
  }
  {
    Result<GeneratedVse> g = GenerateStarSchema(rng, StarSchemaParams{});
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    ExpectRoundTrips(*g, "star");
  }
  {
    Result<GeneratedVse> g =
        ReduceRbscToVse(GenerateRandomRbsc(rng, RandomRbscParams{}));
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    ExpectRoundTrips(*g, "rbsc lift");
  }
  {
    Result<GeneratedVse> g = MakeTrapChain(3);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    ExpectRoundTrips(*g, "trap chain");
  }
  {
    Result<GeneratedVse> g =
        GenerateAuthorJournal(rng, AuthorJournalParams{});
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    ExpectRoundTrips(*g, "author-journal");
  }
  {
    Result<GeneratedVse> g = ReduceRbscToVse(LayeredTrapRbsc(2, 3));
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    ExpectRoundTrips(*g, "hardness family");
  }
}

}  // namespace
}  // namespace delprop
