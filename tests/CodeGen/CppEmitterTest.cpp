//===- tests/CodeGen/CppEmitterTest.cpp -------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "tessla/CodeGen/CppEmitter.h"

#include "../TestSpecs.h"

#include <gtest/gtest.h>

using namespace tessla;
using namespace tessla::testspecs;

namespace {

std::string emit(const Spec &S, bool Optimize, bool EmitMain = false) {
  CppEmitterOptions Opts;
  Opts.EmitMain = EmitMain;
  DiagnosticEngine Diags;
  auto Source = emitCppMonitor(compileOrDie(S, Optimize), Opts, Diags);
  EXPECT_TRUE(Source) << Diags.str();
  return Source ? *Source : std::string();
}

} // namespace

TEST(CppEmitterTest, OptimizedFigure1UsesMutableContainers) {
  std::string Source = emit(figure1(), /*Optimize=*/true);
  EXPECT_NE(Source.find("class GeneratedMonitor"), std::string::npos);
  // Mutable family: shared_ptr<unordered_set> with destructive insert.
  EXPECT_NE(Source.find("std::shared_ptr<std::unordered_set<int64_t"),
            std::string::npos)
      << Source;
  EXPECT_NE(Source.find("->insert("), std::string::npos);
  // No persistent set should appear in the optimized Fig. 1 monitor.
  EXPECT_EQ(Source.find("tessla::HamtSet"), std::string::npos);
  // Input feed method and the triggering section.
  EXPECT_NE(Source.find("void feed_i(int64_t Ts, int64_t Value)"),
            std::string::npos);
  EXPECT_NE(Source.find("minNextDelay"), std::string::npos);
  EXPECT_NE(Source.find("flushBefore"), std::string::npos);
}

TEST(CppEmitterTest, BaselineFigure1UsesPersistentContainers) {
  std::string Source = emit(figure1(), /*Optimize=*/false);
  EXPECT_NE(Source.find("tessla::HamtSet<int64_t"), std::string::npos)
      << Source;
  EXPECT_NE(Source.find(".insert("), std::string::npos);
  EXPECT_EQ(Source.find("std::shared_ptr<std::unordered_set"),
            std::string::npos);
}

TEST(CppEmitterTest, CalcSectionFollowsTranslationOrder) {
  std::string Source = emit(figure1(), /*Optimize=*/true);
  // The read (s = setContains) must be emitted before the write
  // (y = setAdd) — Fig. 7's optimal order.
  size_t ReadPos = Source.find("// s = setContains(...)");
  size_t WritePos = Source.find("// y = setAdd(...)");
  ASSERT_NE(ReadPos, std::string::npos);
  ASSERT_NE(WritePos, std::string::npos);
  EXPECT_LT(ReadPos, WritePos);
}

TEST(CppEmitterTest, HeaderDocumentsSpecAndMutability) {
  std::string Source = emit(figure1(), /*Optimize=*/true);
  EXPECT_NE(Source.find("// Flat specification:"), std::string::npos);
  EXPECT_NE(Source.find("yl = last(m, i)"), std::string::npos);
  EXPECT_NE(Source.find("// Mutable aggregate streams:"),
            std::string::npos);
}

TEST(CppEmitterTest, LastAndDelaySlots) {
  Spec S = parseOrDie(R"(
    in r: Int
    def d := delay(r, r)
    def l := last(time(r), r)
    out l
    out d
  )");
  std::string Source = emit(S, true);
  EXPECT_NE(Source.find("_last_init"), std::string::npos);
  EXPECT_NE(Source.find("_nextTs_set"), std::string::npos);
  EXPECT_NE(Source.find("delay amounts must be positive"),
            std::string::npos);
}

TEST(CppEmitterTest, MapAndQueueTypes) {
  std::string Source = emit(mapWindow(10), true);
  EXPECT_NE(Source.find("std::unordered_map<int64_t, int64_t"),
            std::string::npos)
      << Source;
  std::string QSource = emit(queueWindow(10), true);
  EXPECT_NE(QSource.find("std::deque<int64_t>"), std::string::npos);
  EXPECT_NE(QSource.find("tessla::cgen::queueTrim"), std::string::npos);
  std::string QBase = emit(queueWindow(10), false);
  EXPECT_NE(QBase.find("tessla::PQueue<int64_t>"), std::string::npos);
}

TEST(CppEmitterTest, EmitMainProducesDriver) {
  std::string Source = emit(figure1(), true, /*EmitMain=*/true);
  EXPECT_NE(Source.find("int main()"), std::string::npos);
  EXPECT_NE(Source.find("feed_i(Ts"), std::string::npos);
}

TEST(CppEmitterTest, UnsupportedConstructsReported) {
  // Aggregate-typed input.
  {
    Spec S = parseOrDie(R"(
      in s: Set[Int]
      def r := setSize(s)
      out r
    )");
    DiagnosticEngine Diags;
    EXPECT_FALSE(
        emitCppMonitor(compileOrDie(S), CppEmitterOptions(), Diags));
    EXPECT_TRUE(Diags.hasErrors());
  }
  // Aggregate equality.
  {
    Spec S = parseOrDie(R"(
      in i: Int
      def a := setAdd(setEmpty(), i)
      def b := setAdd(setEmpty(), i)
      def e := a == b
      out e
    )");
    DiagnosticEngine Diags;
    EXPECT_FALSE(
        emitCppMonitor(compileOrDie(S), CppEmitterOptions(), Diags));
    EXPECT_TRUE(Diags.hasErrors());
  }
}

// In shim mode the monitor hands each output to a C callback as its
// index into Program::outputs() plus codec bytes: no std::function and no
// text rendering. The standalone driver keeps its text path.
TEST(CppEmitterTest, NativeShimPassesOutputsAsIndexAndCodecBytes) {
  Spec S = parseOrDie(R"(
    in i: Int
    def s := setAdd(merge(last(s, i), setEmpty()), i)
    def f := toFloat(i)
    out f
    out s
  )");
  Program P = compileOrDie(S);
  CppEmitterOptions Opts;
  Opts.EmitNativeShim = true;
  DiagnosticEngine Diags;
  auto Source = emitCppMonitor(P, Opts, Diags);
  ASSERT_TRUE(Source) << Diags.str();
  EXPECT_EQ(Source->find("std::function"), std::string::npos) << *Source;
  EXPECT_EQ(Source->find("cgen::str("), std::string::npos) << *Source;
  ASSERT_EQ(P.outputs().size(), 2u);
  for (size_t I = 0; I != P.outputs().size(); ++I) {
    const std::string &Name = S.stream(P.outputs()[I].Id).Name;
    EXPECT_NE(Source->find("emitOutput(ts, " + std::to_string(I) + ", v_" +
                           Name + "); // " + Name),
              std::string::npos)
        << *Source;
  }
  EXPECT_NE(Source->find("tessla_native_abi(void) { return " +
                         std::to_string(NativeShimAbiVersion) + "; }"),
            std::string::npos);

  std::string Standalone = emit(S, /*Optimize=*/false, /*EmitMain=*/true);
  EXPECT_NE(Standalone.find("std::function"), std::string::npos);
  EXPECT_NE(Standalone.find("tessla::cgen::str(v_f)"), std::string::npos);
}
