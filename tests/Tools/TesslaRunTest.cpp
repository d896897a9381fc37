//===- tests/Tools/TesslaRunTest.cpp ----------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// The deployment pipeline end to end: `tesslac --emit=tpb` produces a
/// bundle, the frontend-free `tessla-run` binary executes it, and the
/// output is byte-identical to `tesslac --run` interpreting the same
/// specification — sequential and fleet mode, over the checked-in paper
/// workload specifications (specs/).
///
//===----------------------------------------------------------------------===//

#include "../TestSpecs.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <sys/wait.h>
#include <unistd.h>
#include <string>

namespace {

std::string tempPath(const std::string &Name) {
  // Pid-unique: ctest runs the test cases of this binary as separate
  // concurrent processes sharing one TempDir.
  return ::testing::TempDir() + std::to_string(::getpid()) + "_" + Name;
}

void writeFile(const std::string &Path, const std::string &Contents) {
  std::ofstream Out(Path);
  Out << Contents;
  ASSERT_TRUE(Out.good());
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

/// Runs \p Cmd, captures stdout; \p Err receives stderr when non-null.
std::pair<int, std::string> run(const std::string &Cmd,
                                std::string *Err = nullptr) {
  std::string OutPath = tempPath("tesslarun_out.txt");
  std::string ErrPath = tempPath("tesslarun_err.txt");
  int Rc =
      std::system((Cmd + " > " + OutPath + " 2> " + ErrPath).c_str());
  if (Err)
    *Err = slurp(ErrPath);
  return {Rc, slurp(OutPath)};
}

/// Compiles \p SpecPath to a bundle, runs it through tessla-run with
/// \p RunArgs, and expects output byte-identical to `tesslac --run` with
/// the same arguments.
void expectBundleParity(const std::string &SpecPath,
                        const std::string &TracePath,
                        const std::string &RunArgs = "") {
  std::string Bundle = tempPath("parity.tpb");
  auto [RcEmit, OutEmit] = run(std::string(TESSLAC_PATH) + " " +
                               SpecPath + " -O1 --emit=tpb -o " + Bundle);
  ASSERT_EQ(RcEmit, 0) << SpecPath;

  auto [RcRef, Ref] = run(std::string(TESSLAC_PATH) + " " + SpecPath +
                          " -O1 --run " + TracePath + " " + RunArgs);
  ASSERT_EQ(RcRef, 0) << SpecPath;

  auto [RcRun, Out] = run(std::string(TESSLA_RUN_PATH) + " " + Bundle +
                          " --trace " + TracePath + " " + RunArgs);
  EXPECT_EQ(RcRun, 0) << SpecPath;
  EXPECT_EQ(Out, Ref) << SpecPath << " " << RunArgs;
  EXPECT_FALSE(Ref.empty()) << "parity over empty output proves nothing";

  // The trace also arrives over stdin when --trace is omitted.
  auto [RcStdin, OutStdin] = run(std::string(TESSLA_RUN_PATH) + " " +
                                 Bundle + " " + RunArgs + " < " +
                                 TracePath);
  EXPECT_EQ(RcStdin, 0);
  EXPECT_EQ(OutStdin, Ref);
}

std::string specsDir() { return TESSLA_SPECS_DIR; }

std::string intTrace(const std::string &Stream, int Count) {
  std::string Text;
  for (int I = 1; I <= Count; ++I)
    Text += std::to_string(I) + ": " + Stream + " = " +
            std::to_string((I * 7) % 23) + "\n";
  return Text;
}

} // namespace

TEST(TesslaRunTest, SeenSetWorkloadParity) {
  std::string Trace = tempPath("run_seen_trace.txt");
  writeFile(Trace, intTrace("x", 40));
  expectBundleParity(specsDir() + "/seen_set.tessla", Trace);
}

TEST(TesslaRunTest, QueueWindowWorkloadParity) {
  std::string Trace = tempPath("run_queue_trace.txt");
  writeFile(Trace, intTrace("x", 40));
  expectBundleParity(specsDir() + "/queue_window.tessla", Trace);
}

TEST(TesslaRunTest, DbAccessWorkloadParity) {
  std::string Trace = tempPath("run_db_trace.txt");
  writeFile(Trace, "1: ins = 5\n2: acc = 5\n3: acc = 6\n4: del = 5\n"
                   "5: acc = 5\n6: ins = 6\n7: acc = 6\n");
  expectBundleParity(specsDir() + "/db_access.tessla", Trace);
}

TEST(TesslaRunTest, FleetReplayParity) {
  std::string Trace = tempPath("run_fleet_trace.txt");
  writeFile(Trace, intTrace("x", 20));
  for (const char *Shards : {"1", "3"})
    expectBundleParity(specsDir() + "/seen_set.tessla", Trace,
                       std::string("--fleet ") + Shards + " --sessions 4");
}

TEST(TesslaRunTest, FleetEngineFlagsParity) {
  // The execution-engine flags ride the bundle path too: a loaded
  // Program must replay byte-identically under both engines.
  std::string Trace = tempPath("run_fleet_engine_trace.txt");
  writeFile(Trace, intTrace("x", 20));
  for (const char *Engine : {"--batched", "--per-session"})
    expectBundleParity(specsDir() + "/seen_set.tessla", Trace,
                       std::string("--fleet 2 --sessions 4 ") + Engine);
}

// A String on an Int input fails both tools with a typed, line-numbered
// diagnostic and exit 1, sequentially and through a fleet — for a spec
// whose builtins read the value and for one that only stores it.
TEST(TesslaRunTest, MistypedTraceFailsWithATypedDiagnostic) {
  std::string QueueSpec = tempPath("mistyped_queue.tessla");
  writeFile(QueueSpec, tessla::testspecs::QueueTrimSpec);
  std::string Trace = tempPath("mistyped_trace.txt");
  writeFile(Trace, "1: x = 3\n2: x = \"abc\"\n");
  for (const std::string &Spec :
       {QueueSpec, specsDir() + "/seen_set.tessla"}) {
    std::string Bundle = tempPath("mistyped.tpb");
    ASSERT_EQ(run(std::string(TESSLAC_PATH) + " " + Spec +
                  " --emit=tpb -o " + Bundle)
                  .first,
              0);
    for (const std::string &Cmd :
         {std::string(TESSLAC_PATH) + " " + Spec + " --run " + Trace,
          std::string(TESSLA_RUN_PATH) + " " + Bundle + " --trace " + Trace +
              " --fleet 2 --sessions 4"}) {
      std::string Err;
      int Rc = run(Cmd, &Err).first;
      ASSERT_TRUE(WIFEXITED(Rc)) << Cmd;
      EXPECT_EQ(WEXITSTATUS(Rc), 1) << Cmd << "\n" << Err;
      // The diagnostic names the trace it is about.
      EXPECT_NE(Err.find("error " + Trace +
                         ":2:1: input 'x': expected Int, got String"),
                std::string::npos)
          << Cmd << "\n" << Err;
    }
  }
}

TEST(TesslaRunTest, PlanPrintsLoadedProgram) {
  std::string Bundle = tempPath("run_plan.tpb");
  auto [RcEmit, OutEmit] =
      run(std::string(TESSLAC_PATH) + " " + specsDir() +
          "/seen_set.tessla -O1 --emit=tpb -o " + Bundle);
  ASSERT_EQ(RcEmit, 0);
  auto [Rc, Out] = run(std::string(TESSLA_RUN_PATH) + " " + Bundle +
                       " --plan");
  EXPECT_EQ(Rc, 0);
  EXPECT_NE(Out.find("slots:"), std::string::npos) << Out;
  EXPECT_NE(Out.find("[fused]"), std::string::npos) << Out;
  // The bundle preserves the plan rendering exactly.
  auto [RcRef, Ref] = run(std::string(TESSLAC_PATH) + " " + specsDir() +
                          "/seen_set.tessla -O1 --emit=plan");
  ASSERT_EQ(RcRef, 0);
  EXPECT_EQ(Out, Ref);
}

TEST(TesslaRunTest, CorruptBundleFailsWithDiagnostic) {
  std::string Bundle = tempPath("run_corrupt.tpb");
  auto [RcEmit, OutEmit] =
      run(std::string(TESSLAC_PATH) + " " + specsDir() +
          "/seen_set.tessla -O1 --emit=tpb -o " + Bundle);
  ASSERT_EQ(RcEmit, 0);
  std::string Bytes = slurp(Bundle);
  ASSERT_GT(Bytes.size(), 32u);
  Bytes[Bytes.size() / 2] ^= 0x40;
  writeFile(Bundle, Bytes);
  std::string Err;
  auto [Rc, Out] = run(std::string(TESSLA_RUN_PATH) + " " + Bundle, &Err);
  EXPECT_NE(Rc, 0);
  EXPECT_NE(Err.find("tpb:"), std::string::npos) << Err;

  // A missing bundle and a non-bundle file fail the same clean way.
  std::string ErrMissing;
  auto [RcMissing, OutMissing] = run(
      std::string(TESSLA_RUN_PATH) + " /definitely/not/here.tpb",
      &ErrMissing);
  EXPECT_NE(RcMissing, 0);
  EXPECT_FALSE(ErrMissing.empty());
  std::string ErrText;
  auto [RcText, OutText] =
      run(std::string(TESSLA_RUN_PATH) + " " + specsDir() +
              "/seen_set.tessla",
          &ErrText);
  EXPECT_NE(RcText, 0);
  EXPECT_NE(ErrText.find("magic"), std::string::npos) << ErrText;
}

TEST(TesslaRunTest, DelaySpecWithHorizon) {
  std::string Trace = tempPath("run_empty_trace.txt");
  writeFile(Trace, "");
  std::string Bundle = tempPath("run_periodic.tpb");
  auto [RcEmit, OutEmit] =
      run(std::string(TESSLAC_PATH) + " " + specsDir() +
          "/periodic.tessla -O1 --emit=tpb -o " + Bundle);
  ASSERT_EQ(RcEmit, 0);
  auto [Rc, Out] = run(std::string(TESSLA_RUN_PATH) + " " + Bundle +
                       " --trace " + Trace + " --horizon 50");
  EXPECT_EQ(Rc, 0);
  auto [RcRef, Ref] = run(std::string(TESSLAC_PATH) + " " + specsDir() +
                          "/periodic.tessla -O1 --run " + Trace +
                          " --horizon 50");
  ASSERT_EQ(RcRef, 0);
  EXPECT_EQ(Out, Ref);
  EXPECT_NE(Out.find("t = "), std::string::npos) << Out;
}

TEST(TesslaRunTest, NativeEngineBundleParity) {
  // The native tier is deployment-side: a loaded bundle is compiled by
  // the system compiler behind the frontend-free binary and must replay
  // byte-identically to the interpreter — sequentially and in a fleet.
  std::string Trace = tempPath("run_native_trace.txt");
  writeFile(Trace, intTrace("x", 20));
  expectBundleParity(specsDir() + "/seen_set.tessla", Trace,
                     "--engine=native");
  expectBundleParity(specsDir() + "/seen_set.tessla", Trace,
                     "--fleet 2 --sessions 4 --engine=native");
}

TEST(TesslaRunTest, EngineAliasesAndConflictsMatchTesslac) {
  std::string Trace = tempPath("run_engine_alias_trace.txt");
  writeFile(Trace, intTrace("x", 12));
  std::string Bundle = tempPath("engine_alias.tpb");
  auto [RcEmit, OutEmit] = run(std::string(TESSLAC_PATH) + " " +
                               specsDir() + "/seen_set.tessla -O1 "
                               "--emit=tpb -o " + Bundle);
  ASSERT_EQ(RcEmit, 0);
  auto [RcRef, Ref] = run(std::string(TESSLA_RUN_PATH) + " " + Bundle +
                          " --trace " + Trace);
  ASSERT_EQ(RcRef, 0);
  ASSERT_FALSE(Ref.empty()) << "vacuous comparison";
  // The aliases and their --engine= spellings agree with the default.
  for (const char *Engine : {" --engine=interp", " --engine=batched",
                             " --per-session", " --batched"}) {
    auto [Rc, Out] = run(std::string(TESSLA_RUN_PATH) + " " + Bundle +
                         " --trace " + Trace + Engine);
    EXPECT_EQ(Rc, 0) << Engine;
    EXPECT_EQ(Out, Ref) << Engine;
  }
  // Disagreeing selections are rejected, same wording as tesslac.
  std::string Err;
  auto [RcConflict, OutConflict] =
      run(std::string(TESSLA_RUN_PATH) + " " + Bundle + " --trace " +
              Trace + " --per-session --engine=native",
          &Err);
  EXPECT_NE(RcConflict, 0);
  EXPECT_NE(Err.find("conflicting engine selections '--per-session' and "
                     "'--engine=native'"),
            std::string::npos)
      << Err;
}

TEST(TesslaRunTest, ServeConnectCheckpointMigration) {
  // The service lifecycle across real processes: serve a bundle on a
  // Unix socket, feed the first half of a trace, take a live
  // checkpoint, kill the server, re-serve the checkpoint in a *new*
  // server with a different shard count, feed the rest, and the
  // finished trace is byte-identical to an uninterrupted local fleet
  // run of the same bundle.
  std::string Bundle = tempPath("serve.tpb");
  auto [RcEmit, OutEmit] = run(std::string(TESSLAC_PATH) + " " +
                               specsDir() + "/seen_set.tessla -O1 "
                               "--emit=tpb -o " + Bundle);
  ASSERT_EQ(RcEmit, 0);
  std::string Trace = tempPath("serve_trace.txt");
  writeFile(Trace, intTrace("x", 40));

  auto [RcRef, Ref] = run(std::string(TESSLA_RUN_PATH) + " " + Bundle +
                          " --trace " + Trace + " --fleet 2 --sessions 4");
  ASSERT_EQ(RcRef, 0);
  ASSERT_FALSE(Ref.empty()) << "uninterrupted reference is vacuous";

  // Await a background server's socket (they bind before accepting).
  auto AwaitSocket = [](const std::string &Path) {
    for (int I = 0; I != 200 && ::access(Path.c_str(), F_OK) != 0; ++I)
      ::usleep(50 * 1000);
    return ::access(Path.c_str(), F_OK) == 0;
  };

  std::string SockA = tempPath("serve_a.sock");
  std::string LogA = tempPath("serve_a.log");
  ASSERT_EQ(std::system((std::string(TESSLA_RUN_PATH) + " " + Bundle +
                         " --serve " + SockA + " --fleet 2 > " + LogA +
                         " 2>&1 &")
                            .c_str()),
            0);
  ASSERT_TRUE(AwaitSocket(SockA)) << slurp(LogA);

  // Feed the head (ts <= 20) from two concurrent producer processes.
  auto [RcFeed, OutFeed] = run(std::string(TESSLA_RUN_PATH) + " " +
                               Bundle + " --connect " + SockA +
                               " --trace " + Trace +
                               " --sessions 4 --producers 2"
                               " --feed-until 20");
  EXPECT_EQ(RcFeed, 0) << slurp(LogA);

  std::string Ck = tempPath("serve.tcp");
  std::string CkErr;
  auto [RcCk, OutCk] = run(std::string(TESSLA_RUN_PATH) + " " + Bundle +
                               " --connect " + SockA +
                               " --checkpoint-to " + Ck + " --stats",
                           &CkErr);
  EXPECT_EQ(RcCk, 0) << CkErr;
  EXPECT_NE(CkErr.find("checkpoint:"), std::string::npos) << CkErr;
  ASSERT_EQ(::access(Ck.c_str(), F_OK), 0);

  auto [RcDown, OutDown] = run(std::string(TESSLA_RUN_PATH) + " " +
                               Bundle + " --connect " + SockA +
                               " --shutdown");
  EXPECT_EQ(RcDown, 0) << slurp(LogA);

  // Second server: different shard count, seeded from the checkpoint.
  std::string SockB = tempPath("serve_b.sock");
  std::string LogB = tempPath("serve_b.log");
  ASSERT_EQ(std::system((std::string(TESSLA_RUN_PATH) + " " + Bundle +
                         " --serve " + SockB + " --fleet 3" +
                         " --restore-from " + Ck + " > " + LogB +
                         " 2>&1 &")
                            .c_str()),
            0);
  ASSERT_TRUE(AwaitSocket(SockB)) << slurp(LogB);

  auto [RcTail, OutTail] = run(std::string(TESSLA_RUN_PATH) + " " +
                               Bundle + " --connect " + SockB +
                               " --trace " + Trace +
                               " --sessions 4 --producers 2"
                               " --skip-until 20");
  EXPECT_EQ(RcTail, 0) << slurp(LogB);

  auto [RcFin, Out] = run(std::string(TESSLA_RUN_PATH) + " " + Bundle +
                          " --connect " + SockB + " --finish");
  EXPECT_EQ(RcFin, 0) << slurp(LogB);
  EXPECT_EQ(Out, Ref)
      << "checkpoint-migrated service run diverged from the "
         "uninterrupted local fleet";

  auto [RcDownB, OutDownB] = run(std::string(TESSLA_RUN_PATH) + " " +
                                 Bundle + " --connect " + SockB +
                                 " --shutdown");
  EXPECT_EQ(RcDownB, 0) << slurp(LogB);
}

TEST(TesslaRunTest, ConnectRejectsForeignBundle) {
  // The HelloAck carries the server program's checksum: a client armed
  // with a different bundle must refuse before feeding anything.
  std::string BundleA = tempPath("mismatch_a.tpb");
  std::string BundleB = tempPath("mismatch_b.tpb");
  ASSERT_EQ(run(std::string(TESSLAC_PATH) + " " + specsDir() +
                "/seen_set.tessla -O1 --emit=tpb -o " + BundleA)
                .first,
            0);
  ASSERT_EQ(run(std::string(TESSLAC_PATH) + " " + specsDir() +
                "/queue_window.tessla -O1 --emit=tpb -o " + BundleB)
                .first,
            0);

  std::string Sock = tempPath("mismatch.sock");
  std::string Log = tempPath("mismatch.log");
  ASSERT_EQ(std::system((std::string(TESSLA_RUN_PATH) + " " + BundleA +
                         " --serve " + Sock + " > " + Log + " 2>&1 &")
                            .c_str()),
            0);
  for (int I = 0; I != 200 && ::access(Sock.c_str(), F_OK) != 0; ++I)
    ::usleep(50 * 1000);
  ASSERT_EQ(::access(Sock.c_str(), F_OK), 0) << slurp(Log);

  std::string Err;
  auto [RcBad, OutBad] = run(std::string(TESSLA_RUN_PATH) + " " +
                                 BundleB + " --connect " + Sock +
                                 " --stats",
                             &Err);
  EXPECT_NE(RcBad, 0);
  EXPECT_NE(Err.find("bundle mismatch"), std::string::npos) << Err;

  auto [RcDown, OutDown] = run(std::string(TESSLA_RUN_PATH) + " " +
                               BundleA + " --connect " + Sock +
                               " --shutdown");
  EXPECT_EQ(RcDown, 0) << slurp(Log);
}
