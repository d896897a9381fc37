//===- Lang/Parser.cpp ------------------------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "tessla/Lang/Parser.h"

#include "tessla/Lang/Flatten.h"
#include "tessla/Lang/Lexer.h"
#include "tessla/Lang/TypeCheck.h"
#include "tessla/Support/Format.h"

#include <algorithm>

using namespace tessla;
using namespace tessla::ast;

namespace {

class Parser {
public:
  Parser(std::vector<Token> Tokens, DiagnosticEngine &Diags)
      : Tokens(std::move(Tokens)), Diags(Diags) {}

  Module run() {
    Module M;
    while (!at(TokenKind::Eof)) {
      if (at(TokenKind::KwIn)) {
        parseInput(M);
      } else if (at(TokenKind::KwDef)) {
        parseDef(M);
      } else if (at(TokenKind::KwOut)) {
        parseOut(M);
      } else {
        error(formatString("expected 'in', 'def' or 'out', got %s",
                           std::string(tokenKindName(peek().Kind)).c_str()));
        synchronize();
      }
    }
    return M;
  }

private:
  std::vector<Token> Tokens;
  DiagnosticEngine &Diags;
  size_t Pos = 0;
  /// Nesting levels enclosing the current position (MaxNestingDepth).
  unsigned Level = 0;

  void tooDeep(SourceLocation Loc) {
    Diags.error(Loc, formatString("nesting deeper than %u levels "
                                  "[nesting-depth]",
                                  MaxNestingDepth));
  }

  /// Enters one nesting level for its lifetime; !Ok (reported) past the
  /// bound, so the recursive descent stops before it can exhaust the
  /// stack.
  struct Nested {
    Parser &P;
    bool Ok;
    explicit Nested(Parser &P) : P(P), Ok(++P.Level <= MaxNestingDepth) {
      if (!Ok)
        P.tooDeep(P.peek().Loc);
    }
    ~Nested() { --P.Level; }
  };

  /// Gives \p E, built over \p Below levels, its depth; nullptr (reported)
  /// when it reaches past the bound from where it stands.
  ExprPtr deepen(ExprPtr E, unsigned Below) {
    E->Depth = Below + 1;
    if (Level + E->Depth > MaxNestingDepth) {
      tooDeep(E->Loc);
      return nullptr;
    }
    return E;
  }
  static unsigned deepestArg(const std::vector<ExprPtr> &Args) {
    unsigned Max = 0;
    for (const ExprPtr &A : Args)
      Max = std::max(Max, A->Depth);
    return Max;
  }

  const Token &peek(size_t Ahead = 0) const {
    size_t I = Pos + Ahead;
    return I < Tokens.size() ? Tokens[I] : Tokens.back();
  }
  bool at(TokenKind K) const { return peek().is(K); }
  Token advance() { return Tokens[Pos < Tokens.size() - 1 ? Pos++ : Pos]; }
  void error(std::string Msg) { Diags.error(peek().Loc, std::move(Msg)); }

  bool expect(TokenKind K) {
    if (at(K)) {
      advance();
      return true;
    }
    error(formatString("expected %s, got %s",
                       std::string(tokenKindName(K)).c_str(),
                       std::string(tokenKindName(peek().Kind)).c_str()));
    return false;
  }

  /// Skips to the next declaration keyword after a parse error.
  void synchronize() {
    while (!at(TokenKind::Eof) && !at(TokenKind::KwIn) &&
           !at(TokenKind::KwDef) && !at(TokenKind::KwOut))
      advance();
  }

  std::optional<std::string> expectIdent() {
    if (!at(TokenKind::Identifier)) {
      error(formatString("expected identifier, got %s",
                         std::string(tokenKindName(peek().Kind)).c_str()));
      return std::nullopt;
    }
    return advance().Text;
  }

  void parseInput(Module &M) {
    SourceLocation Loc = peek().Loc;
    advance(); // in
    auto Name = expectIdent();
    if (!Name || !expect(TokenKind::Colon)) {
      synchronize();
      return;
    }
    auto Ty = parseType();
    if (!Ty) {
      synchronize();
      return;
    }
    M.Inputs.push_back({std::move(*Name), std::move(*Ty), Loc});
  }

  void parseDef(Module &M) {
    SourceLocation Loc = peek().Loc;
    advance(); // def
    auto Name = expectIdent();
    if (!Name || !expect(TokenKind::Define)) {
      synchronize();
      return;
    }
    ExprPtr Body = parseExpr();
    if (!Body) {
      synchronize();
      return;
    }
    M.Defs.push_back({std::move(*Name), std::move(Body), Loc});
  }

  void parseOut(Module &M) {
    SourceLocation Loc = peek().Loc;
    advance(); // out
    auto Name = expectIdent();
    if (!Name) {
      synchronize();
      return;
    }
    M.Outputs.push_back({std::move(*Name), Loc});
  }

  std::optional<Type> parseType() {
    if (!at(TokenKind::Identifier)) {
      error("expected a type name");
      return std::nullopt;
    }
    Token T = advance();
    const std::string &N = T.Text;
    if (N == "Int")
      return Type::integer();
    if (N == "Float")
      return Type::floating();
    if (N == "Bool")
      return Type::boolean();
    if (N == "String")
      return Type::string();
    if (N == "Unit")
      return Type::unit();
    if (N != "Set" && N != "Queue" && N != "Map") {
      Diags.error(T.Loc, formatString("unknown type '%s'", N.c_str()));
      return std::nullopt;
    }
    Nested Guard(*this);
    if (!Guard.Ok)
      return std::nullopt;
    if (N == "Set" || N == "Queue") {
      if (!expect(TokenKind::LBracket))
        return std::nullopt;
      auto Elem = parseType();
      if (!Elem || !expect(TokenKind::RBracket))
        return std::nullopt;
      return N == "Set" ? Type::set(std::move(*Elem))
                        : Type::queue(std::move(*Elem));
    }
    if (!expect(TokenKind::LBracket))
      return std::nullopt;
    auto Key = parseType();
    if (!Key || !expect(TokenKind::Comma))
      return std::nullopt;
    auto Val = parseType();
    if (!Val || !expect(TokenKind::RBracket))
      return std::nullopt;
    return Type::map(std::move(*Key), std::move(*Val));
  }

  ExprPtr makeExpr(ExprKind K, SourceLocation Loc) {
    auto E = std::make_unique<Expr>();
    E->Kind = K;
    E->Loc = Loc;
    return E;
  }

  /// A call node one level above its deepest argument (nullptr past the
  /// nesting bound).
  ExprPtr makeCall(std::string Callee, std::vector<ExprPtr> Args,
                   SourceLocation Loc) {
    ExprPtr E = makeExpr(ExprKind::Call, Loc);
    E->Callee = std::move(Callee);
    E->Args = std::move(Args);
    unsigned Below = deepestArg(E->Args);
    return deepen(std::move(E), Below);
  }

  ExprPtr parseExpr() {
    if (at(TokenKind::KwIf)) {
      SourceLocation Loc = advance().Loc;
      std::vector<ExprPtr> Args;
      {
        Nested Guard(*this);
        if (!Guard.Ok)
          return nullptr;
        ExprPtr C = parseExpr();
        if (!C || !expect(TokenKind::KwThen))
          return nullptr;
        ExprPtr A = parseExpr();
        if (!A || !expect(TokenKind::KwElse))
          return nullptr;
        ExprPtr B = parseExpr();
        if (!B)
          return nullptr;
        Args.push_back(std::move(C));
        Args.push_back(std::move(A));
        Args.push_back(std::move(B));
      }
      return makeCall("ite", std::move(Args), Loc);
    }
    return parseOr();
  }

  ExprPtr parseBinaryChain(ExprPtr (Parser::*Sub)(),
                           std::initializer_list<std::pair<TokenKind,
                                                           const char *>> Ops,
                           bool Chain = true) {
    ExprPtr Lhs = (this->*Sub)();
    if (!Lhs)
      return nullptr;
    for (;;) {
      const char *Name = nullptr;
      for (auto &[K, N] : Ops)
        if (at(K)) {
          Name = N;
          break;
        }
      if (!Name)
        return Lhs;
      SourceLocation Loc = advance().Loc;
      ExprPtr Rhs = (this->*Sub)();
      if (!Rhs)
        return nullptr;
      std::vector<ExprPtr> Args;
      Args.push_back(std::move(Lhs));
      Args.push_back(std::move(Rhs));
      Lhs = makeCall(Name, std::move(Args), Loc);
      if (!Lhs || !Chain)
        return Lhs;
    }
  }

  ExprPtr parseOr() {
    return parseBinaryChain(&Parser::parseAnd, {{TokenKind::OrOr, "or"}});
  }
  ExprPtr parseAnd() {
    return parseBinaryChain(&Parser::parseCmp, {{TokenKind::AndAnd, "and"}});
  }
  ExprPtr parseCmp() {
    return parseBinaryChain(&Parser::parseAdd,
                            {{TokenKind::EqEq, "eq"},
                             {TokenKind::NotEq, "neq"},
                             {TokenKind::Lt, "lt"},
                             {TokenKind::LtEq, "leq"},
                             {TokenKind::Gt, "gt"},
                             {TokenKind::GtEq, "geq"}},
                            /*Chain=*/false);
  }
  ExprPtr parseAdd() {
    return parseBinaryChain(&Parser::parseMul, {{TokenKind::Plus, "add"},
                                                {TokenKind::Minus, "sub"}});
  }
  ExprPtr parseMul() {
    return parseBinaryChain(&Parser::parseUnary,
                            {{TokenKind::Star, "mul"},
                             {TokenKind::Slash, "div"},
                             {TokenKind::Percent, "mod"}});
  }

  ExprPtr parseUnary() {
    if (at(TokenKind::Minus) || at(TokenKind::Bang)) {
      bool IsNeg = at(TokenKind::Minus);
      SourceLocation Loc = advance().Loc;
      // Fold "-<literal>" into a literal.
      if (IsNeg && at(TokenKind::IntLiteral)) {
        Token T = advance();
        ExprPtr E = makeExpr(ExprKind::Literal, Loc);
        E->Lit.V = -T.IntValue;
        return E;
      }
      if (IsNeg && at(TokenKind::FloatLiteral)) {
        Token T = advance();
        ExprPtr E = makeExpr(ExprKind::Literal, Loc);
        E->Lit.V = -T.FloatValue;
        return E;
      }
      ExprPtr Sub;
      {
        Nested Guard(*this);
        if (!Guard.Ok)
          return nullptr;
        Sub = parseUnary();
      }
      if (!Sub)
        return nullptr;
      std::vector<ExprPtr> Args;
      Args.push_back(std::move(Sub));
      return makeCall(IsNeg ? "neg" : "not", std::move(Args), Loc);
    }
    return parsePrimary();
  }

  /// Parses "(" e1, .., en ")" into \p Args. Returns false on error.
  bool parseArgs(std::vector<ExprPtr> &Args) {
    if (!expect(TokenKind::LParen))
      return false;
    Nested Guard(*this);
    if (!Guard.Ok)
      return false;
    if (at(TokenKind::RParen)) {
      advance();
      return true;
    }
    for (;;) {
      ExprPtr A = parseExpr();
      if (!A)
        return false;
      Args.push_back(std::move(A));
      if (at(TokenKind::Comma)) {
        advance();
        continue;
      }
      return expect(TokenKind::RParen);
    }
  }

  ExprPtr parsePrimary() {
    SourceLocation Loc = peek().Loc;
    switch (peek().Kind) {
    case TokenKind::IntLiteral: {
      Token T = advance();
      ExprPtr E = makeExpr(ExprKind::Literal, Loc);
      E->Lit.V = T.IntValue;
      return E;
    }
    case TokenKind::FloatLiteral: {
      Token T = advance();
      ExprPtr E = makeExpr(ExprKind::Literal, Loc);
      E->Lit.V = T.FloatValue;
      return E;
    }
    case TokenKind::StringLiteral: {
      Token T = advance();
      ExprPtr E = makeExpr(ExprKind::Literal, Loc);
      E->Lit.V = std::move(T.Text);
      return E;
    }
    case TokenKind::KwTrue:
    case TokenKind::KwFalse: {
      bool B = at(TokenKind::KwTrue);
      advance();
      ExprPtr E = makeExpr(ExprKind::Literal, Loc);
      E->Lit.V = B;
      return E;
    }
    case TokenKind::KwUnit:
      advance();
      return makeExpr(ExprKind::UnitVal, Loc);
    case TokenKind::KwNil:
      advance();
      return makeExpr(ExprKind::NilVal, Loc);
    case TokenKind::KwTime:
    case TokenKind::KwLast:
    case TokenKind::KwDelay: {
      TokenKind K = advance().Kind;
      std::vector<ExprPtr> Args;
      if (!parseArgs(Args))
        return nullptr;
      unsigned Want = K == TokenKind::KwTime ? 1 : 2;
      if (Args.size() != Want) {
        Diags.error(Loc, formatString("operator takes %u argument(s), got "
                                      "%zu",
                                      Want, Args.size()));
        return nullptr;
      }
      ExprPtr E = makeExpr(K == TokenKind::KwTime    ? ExprKind::TimeOp
                           : K == TokenKind::KwLast ? ExprKind::LastOp
                                                    : ExprKind::DelayOp,
                           Loc);
      E->Args = std::move(Args);
      unsigned Below = deepestArg(E->Args);
      return deepen(std::move(E), Below);
    }
    case TokenKind::KwDefault: {
      // default(x, e) == merge(x, e-as-constant-stream); with e a general
      // expression it is plain merge.
      advance();
      std::vector<ExprPtr> Args;
      if (!parseArgs(Args))
        return nullptr;
      if (Args.size() != 2) {
        Diags.error(Loc, formatString("default takes 2 arguments, got %zu",
                                      Args.size()));
        return nullptr;
      }
      return makeCall("merge", std::move(Args), Loc);
    }
    case TokenKind::Identifier: {
      Token T = advance();
      if (!at(TokenKind::LParen)) {
        ExprPtr E = makeExpr(ExprKind::Ident, Loc);
        E->Callee = std::move(T.Text);
        return E;
      }
      std::vector<ExprPtr> Args;
      if (!parseArgs(Args))
        return nullptr;
      return makeCall(std::move(T.Text), std::move(Args), Loc);
    }
    case TokenKind::LParen: {
      advance();
      ExprPtr E;
      {
        Nested Guard(*this);
        if (!Guard.Ok)
          return nullptr;
        E = parseExpr();
      }
      if (!E || !expect(TokenKind::RParen))
        return nullptr;
      // The parentheses count as a level of their own.
      unsigned Below = E->Depth;
      return deepen(std::move(E), Below);
    }
    default:
      error(formatString("expected an expression, got %s",
                         std::string(tokenKindName(peek().Kind)).c_str()));
      return nullptr;
    }
  }
};

} // namespace

std::optional<ast::Module> tessla::parseModule(std::string_view Source,
                                               DiagnosticEngine &Diags) {
  unsigned Before = Diags.errorCount();
  std::vector<Token> Tokens = tokenize(Source, Diags);
  Module M = Parser(std::move(Tokens), Diags).run();
  if (Diags.errorCount() != Before)
    return std::nullopt;
  return M;
}

std::optional<Spec> tessla::parseSpec(std::string_view Source,
                                      DiagnosticEngine &Diags) {
  auto M = parseModule(Source, Diags);
  if (!M)
    return std::nullopt;
  auto S = lowerModule(*M, Diags);
  if (!S)
    return std::nullopt;
  if (!typecheck(*S, Diags))
    return std::nullopt;
  return S;
}
