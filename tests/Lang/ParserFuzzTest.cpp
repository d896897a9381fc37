//===- tests/Lang/ParserFuzzTest.cpp ----------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// Robustness: the front end must never crash or hang — every input
/// either parses or produces diagnostics. Random byte soup, random token
/// soup, and truncations of valid specifications.
///
//===----------------------------------------------------------------------===//

#include "tessla/Lang/Parser.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

using namespace tessla;

namespace {

/// Parses and returns whether diagnostics were produced; the test only
/// cares that we return at all and that failure implies diagnostics.
void parseAnything(const std::string &Source) {
  DiagnosticEngine Diags;
  auto S = parseSpec(Source, Diags);
  if (!S) {
    EXPECT_TRUE(Diags.hasErrors())
        << "silent failure on input: " << Source;
  }
}

} // namespace

TEST(ParserFuzzTest, RandomBytes) {
  std::mt19937_64 Rng(71);
  for (int Round = 0; Round != 500; ++Round) {
    size_t Length = Rng() % 200;
    std::string Source;
    for (size_t I = 0; I != Length; ++I)
      Source += static_cast<char>(32 + Rng() % 95); // printable ASCII
    parseAnything(Source);
  }
}

TEST(ParserFuzzTest, RandomTokenSoup) {
  const char *Tokens[] = {"in",   "def",  "out",    "if",    "then",
                          "else", "unit", "nil",    "time",  "last",
                          "delay", ":=",  ":",      "(",     ")",
                          "[",    "]",    ",",      "+",     "-",
                          "*",    "/",    "%",      "==",    "!=",
                          "<",    "<=",   ">",      ">=",    "&&",
                          "||",   "!",    "x",      "y",     "Int",
                          "Set",  "42",   "3.5",    "true",  "\"s\"",
                          "merge", "setAdd", "hold", "default"};
  std::mt19937_64 Rng(72);
  for (int Round = 0; Round != 500; ++Round) {
    size_t Length = 1 + Rng() % 40;
    std::string Source;
    for (size_t I = 0; I != Length; ++I) {
      Source += Tokens[Rng() % (sizeof(Tokens) / sizeof(*Tokens))];
      Source += Rng() % 8 ? " " : "\n";
    }
    parseAnything(Source);
  }
}

TEST(ParserFuzzTest, TruncationsOfValidSpec) {
  const std::string Valid = R"(
in x: Int
def prev := last(merge(y, setEmpty()), x)
def seen := setContains(prev, x)
def y    := setToggle(prev, x)
def c    := merge(last(c, x) + 1, 0)
out seen
out c
)";
  for (size_t Length = 0; Length <= Valid.size(); ++Length)
    parseAnything(Valid.substr(0, Length));
}

TEST(ParserFuzzTest, PathologicalNesting) {
  // Deep parenthesization must not blow the stack unreasonably.
  std::string Source = "in a: Int\ndef x := ";
  for (int I = 0; I != 200; ++I)
    Source += "(";
  Source += "a";
  for (int I = 0; I != 200; ++I)
    Source += ")";
  Source += "\nout x";
  parseAnything(Source);

  // Long operator chain.
  std::string Chain = "in a: Int\ndef x := a";
  for (int I = 0; I != 2000; ++I)
    Chain += " + a";
  Chain += "\nout x";
  parseAnything(Chain);
}

TEST(ParserFuzzTest, NestingPastTheBoundFailsWithADiagnostic) {
  // Inputs 100 000 levels deep fail with a diagnostic that names the
  // bound and the location, before any recursive pass can exhaust the
  // stack; MaxNestingDepth levels still parse.
  const std::string Bound = std::to_string(MaxNestingDepth);
  auto Nested = [](const std::string &Open, const std::string &Leaf,
                   const std::string &Close, size_t Levels) {
    std::string S;
    for (size_t I = 0; I != Levels; ++I)
      S += Open;
    S += Leaf;
    for (size_t I = 0; I != Levels; ++I)
      S += Close;
    return S;
  };
  auto Chain = [](size_t Operators) {
    std::string S = "a";
    for (size_t I = 0; I != Operators; ++I)
      S += " + a";
    return S;
  };
  auto Def = [](const std::string &Expr) {
    return "in a: Int\ndef x := " + Expr + "\nout x\n";
  };
  constexpr size_t Deep = 100000;
  struct Case {
    const char *Name;
    std::string Source;
    uint32_t Line; // where the diagnostic points
  };
  std::vector<Case> TooDeep = {
      {"parentheses", Def(Nested("(", "a", ")", Deep)), 2},
      {"operator chain", Def(Chain(Deep)), 2},
      {"calls", Def(Nested("abs(", "a", ")", Deep)), 2},
      {"unary operators", Def(std::string(Deep, '!') + "(a > 0)"), 2},
      {"type arguments",
       "in a: " + Nested("Set[", "Int", "]", Deep) + "\nout a\n", 1},
      {"one past the bound", Def(Chain(MaxNestingDepth + 1)), 2},
  };
  for (const Case &C : TooDeep) {
    SCOPED_TRACE(C.Name);
    DiagnosticEngine Diags;
    EXPECT_FALSE(parseSpec(C.Source, Diags));
    ASSERT_TRUE(Diags.hasErrors());
    const Diagnostic &D = Diags.diagnostics().front();
    EXPECT_EQ(D.Message,
              "nesting deeper than " + Bound + " levels [nesting-depth]");
    EXPECT_EQ(D.Loc.Line, C.Line) << Diags.str();
  }

  for (const std::string &Source :
       {Def(Chain(MaxNestingDepth)),
        Def(Nested("(", "a", ")", MaxNestingDepth)),
        // The parentheses and the comparison are two of the levels.
        Def(std::string(MaxNestingDepth - 2, '!') + "(a > 0)"),
        Def(Nested("(", Chain(MaxNestingDepth / 2), ")",
                   MaxNestingDepth / 2))}) {
    DiagnosticEngine Diags;
    EXPECT_TRUE(parseSpec(Source, Diags)) << Diags.str();
  }
}

TEST(ParserFuzzTest, UnterminatedConstructs) {
  for (const char *Source :
       {"in", "in x", "in x:", "in x: Set[", "def", "def x", "def x :=",
        "def x := if a then", "def x := merge(a", "out",
        "def x := \"abc", "in x: Map[Int", "def x := last(a,"})
    parseAnything(Source);
}
