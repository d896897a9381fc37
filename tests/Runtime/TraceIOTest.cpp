//===- tests/Runtime/TraceIOTest.cpp ----------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "tessla/Runtime/TraceIO.h"

#include "../TestSpecs.h"

#include <gtest/gtest.h>

using namespace tessla;
using namespace tessla::testspecs;

TEST(ValueLiteralTest, ParsesScalars) {
  EXPECT_EQ(parseValueLiteral("42")->getInt(), 42);
  EXPECT_EQ(parseValueLiteral("-3")->getInt(), -3);
  EXPECT_DOUBLE_EQ(parseValueLiteral("2.5")->getFloat(), 2.5);
  EXPECT_EQ(parseValueLiteral("true")->getBool(), true);
  EXPECT_EQ(parseValueLiteral("false")->getBool(), false);
  EXPECT_EQ(parseValueLiteral("()")->kind(), Value::Kind::Unit);
  EXPECT_EQ(parseValueLiteral("\"hi\\n\"")->getString(), "hi\n");
  EXPECT_EQ(parseValueLiteral("  7 ")->getInt(), 7) << "trims whitespace";
}

TEST(ValueLiteralTest, RejectsGarbage) {
  EXPECT_FALSE(parseValueLiteral(""));
  EXPECT_FALSE(parseValueLiteral("4x"));
  EXPECT_FALSE(parseValueLiteral("\"unterminated"));
  EXPECT_FALSE(parseValueLiteral("\"bad\\q\""));
}

TEST(TraceIOTest, ParsesEventsAgainstSpec) {
  Spec S = parseOrDie("in i: Int\nin f: Float\ndef t := time(i)\nout t");
  DiagnosticEngine Diags;
  auto Events = parseTrace(R"(
# comment
0: i = 1
-- another comment
3: f = 2.5

7: i = -4
)",
                           S, Diags);
  ASSERT_TRUE(Events) << Diags.str();
  ASSERT_EQ(Events->size(), 3u);
  EXPECT_EQ(std::get<0>((*Events)[0]), *S.lookup("i"));
  EXPECT_EQ(std::get<1>((*Events)[1]), 3);
  EXPECT_DOUBLE_EQ(std::get<2>((*Events)[1]).getFloat(), 2.5);
  EXPECT_EQ(std::get<2>((*Events)[2]).getInt(), -4);
}

TEST(TraceIOTest, RejectsUnknownAndNonInputStreams) {
  Spec S = parseOrDie("in i: Int\ndef t := time(i)\nout t");
  DiagnosticEngine Diags;
  EXPECT_FALSE(parseTrace("0: nope = 1", S, Diags));
  DiagnosticEngine Diags2;
  EXPECT_FALSE(parseTrace("0: t = 1", S, Diags2))
      << "derived streams cannot be fed";
}

TEST(TraceIOTest, RejectsMalformedLines) {
  Spec S = parseOrDie("in i: Int\ndef t := time(i)\nout t");
  for (const char *Bad : {"i = 1", "x: i = 1", "-1: i = 1", "0: i 1",
                          "0: i = @"}) {
    DiagnosticEngine Diags;
    EXPECT_FALSE(parseTrace(Bad, S, Diags)) << Bad;
  }
}

// Records are checked against their input's declared type, with the
// line of the offending record; an integral literal on a Float input
// reads as a Float (an integral Float renders without a decimal point).
TEST(TraceIOTest, ChecksValuesAgainstDeclaredTypes) {
  Spec S = parseOrDie("in x: Int\nin p: Float\ndef t := time(x)\nout t");
  DiagnosticEngine Diags;
  EXPECT_FALSE(parseTrace("1: x = 3\n2: x = \"abc\"\n", S, Diags));
  EXPECT_NE(Diags.str().find("2:1"), std::string::npos) << Diags.str();
  EXPECT_NE(Diags.str().find("input 'x': expected Int, got String"),
            std::string::npos)
      << Diags.str();
  DiagnosticEngine Diags2;
  EXPECT_FALSE(parseTrace("1: x = 2.5\n", S, Diags2)) << "no narrowing";
  DiagnosticEngine Diags3;
  auto Events = parseTrace("1: p = 2\n2: p = -7\n", S, Diags3);
  ASSERT_TRUE(Events) << Diags3.str();
  EXPECT_EQ(std::get<2>((*Events)[0]).kind(), Value::Kind::Float);
  EXPECT_DOUBLE_EQ(std::get<2>((*Events)[0]).getFloat(), 2.0);
  EXPECT_DOUBLE_EQ(std::get<2>((*Events)[1]).getFloat(), -7.0);
}

TEST(TraceIOTest, RoundTripThroughMonitor) {
  Spec S = parseOrDie("in i: Int\ndef x := i + i\nout x");
  DiagnosticEngine Diags;
  auto Events = parseTrace("1: i = 2\n5: i = 10\n", S, Diags);
  ASSERT_TRUE(Events);
  Program Plan = compileOrDie(S);
  auto Out = runMonitor(Plan, *Events);
  EXPECT_EQ(formatOutputs(Plan.spec(), Out), "1: x = 4\n5: x = 20\n");
}
