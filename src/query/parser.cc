#include "query/parser.h"

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace delprop {
namespace {

struct Token {
  enum class Kind { kIdent, kConstant, kLParen, kRParen, kComma, kTurnstile };
  Kind kind;
  std::string_view text;  // slice of the query text: name or constant spelling
};

// The query grammar is ASCII. These agree with <cctype> in the "C" locale,
// the only one delprop runs in, without a library call per character.
bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

// Lexes all of `input` into `tokens`, whose views borrow `input`. The whole
// text is lexed before any token is parsed, so a lexical error anywhere wins
// over a syntax error earlier in the text.
Status Lex(std::string_view input, std::vector<Token>* tokens) {
  size_t pos = 0;
  for (;;) {
    while (pos < input.size() && IsSpace(input[pos])) ++pos;
    if (pos >= input.size()) return Status::Ok();
    char c = input[pos];
    size_t start = pos;
    Token::Kind kind;
    if (c == '(') {
      kind = Token::Kind::kLParen;
      ++pos;
    } else if (c == ')') {
      kind = Token::Kind::kRParen;
      ++pos;
    } else if (c == ',') {
      kind = Token::Kind::kComma;
      ++pos;
    } else if (c == ':') {
      if (pos + 1 >= input.size() || input[pos + 1] != '-') {
        return Status::InvalidArgument("expected ':-' in query text");
      }
      kind = Token::Kind::kTurnstile;
      pos += 2;
    } else if (c == '\'') {
      size_t end = input.find('\'', pos + 1);
      if (end == std::string_view::npos) {
        return Status::InvalidArgument("unterminated quoted constant");
      }
      tokens->push_back(Token{Token::Kind::kConstant,
                              input.substr(pos + 1, end - pos - 1)});
      pos = end + 1;
      continue;
    } else if (IsDigit(c) || (c == '-' && pos + 1 < input.size() &&
                              IsDigit(input[pos + 1]))) {
      kind = Token::Kind::kConstant;
      ++pos;
      while (pos < input.size() && IsDigit(input[pos])) ++pos;
    } else if (IsAlpha(c) || c == '_') {
      kind = Token::Kind::kIdent;
      ++pos;
      while (pos < input.size() &&
             (IsAlpha(input[pos]) || IsDigit(input[pos]) ||
              input[pos] == '_')) {
        ++pos;
      }
    } else {
      return Status::InvalidArgument(std::string("unexpected character '") +
                                     c + "' in query text");
    }
    tokens->push_back(Token{kind, input.substr(start, pos - start)});
  }
}

}  // namespace

Result<ConjunctiveQuery> ParseQuery(std::string_view text,
                                    const Schema& schema,
                                    ValueDictionary& dict) {
  std::vector<Token> tokens;
  // A term and its separator take about three bytes or more.
  tokens.reserve(text.size() / 3);
  if (Status s = Lex(text, &tokens); !s.ok()) return s;
  size_t i = 0;
  auto expect = [&](Token::Kind kind, const char* what) -> Status {
    if (i >= tokens.size() || tokens[i].kind != kind) {
      return Status::InvalidArgument(std::string("expected ") + what +
                                     " in query text");
    }
    ++i;
    return Status::Ok();
  };

  if (i >= tokens.size() || tokens[i].kind != Token::Kind::kIdent) {
    return Status::InvalidArgument("expected query name");
  }
  ConjunctiveQuery query{std::string(tokens[i++].text)};

  // Parses a non-empty comma-separated term list into `terms`.
  auto parse_terms = [&](std::vector<Term>* terms) -> Status {
    for (;;) {
      if (i >= tokens.size()) {
        return Status::InvalidArgument("unexpected end of query text");
      }
      const Token& tok = tokens[i++];
      if (tok.kind == Token::Kind::kIdent) {
        terms->push_back(Term::Variable(query.AddVariable(tok.text)));
      } else if (tok.kind == Token::Kind::kConstant) {
        terms->push_back(Term::Constant(dict.Intern(tok.text)));
      } else {
        return Status::InvalidArgument("expected a term");
      }
      if (i >= tokens.size() || tokens[i].kind != Token::Kind::kComma) {
        return Status::Ok();
      }
      ++i;
    }
  };

  // Head term list.
  if (Status s = expect(Token::Kind::kLParen, "'('"); !s.ok()) return s;
  {
    std::vector<Term> head;
    if (Status s = parse_terms(&head); !s.ok()) return s;
    for (const Term& term : head) query.AddHeadTerm(term);
  }
  if (Status s = expect(Token::Kind::kRParen, "')'"); !s.ok()) return s;
  if (Status s = expect(Token::Kind::kTurnstile, "':-'"); !s.ok()) return s;

  // Body atoms.
  for (;;) {
    if (i >= tokens.size() || tokens[i].kind != Token::Kind::kIdent) {
      return Status::InvalidArgument("expected relation name in body");
    }
    std::string_view rel_name = tokens[i++].text;
    std::optional<RelationId> rel = schema.FindRelation(rel_name);
    if (!rel.has_value()) {
      return Status::NotFound("undeclared relation '" + std::string(rel_name) +
                              "' in query body");
    }
    Atom atom;
    atom.relation = *rel;
    if (Status s = expect(Token::Kind::kLParen, "'('"); !s.ok()) return s;
    if (Status s = parse_terms(&atom.terms); !s.ok()) return s;
    if (Status s = expect(Token::Kind::kRParen, "')'"); !s.ok()) return s;
    query.AddAtom(std::move(atom));
    if (i < tokens.size() && tokens[i].kind == Token::Kind::kComma) {
      ++i;
      continue;
    }
    break;
  }
  if (i != tokens.size()) {
    return Status::InvalidArgument("trailing tokens after query body");
  }
  if (Status s = query.Validate(schema); !s.ok()) return s;
  return query;
}

}  // namespace delprop
