//===- tools/tessla-run.cpp - Frontend-free bundle runner -------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// Executes a compiled TeSSLa program bundle (.tpb, see
/// Program/Serialize.h) over a textual trace — the deployment half of
/// the toolchain. This binary links only the runtime column
/// (values + program + runtime): no lexer, parser, type checker,
/// analysis or optimizer is in its link graph, which the configure-time
/// guard in tools/CMakeLists.txt enforces.
///
/// \code
///   tesslac spec.tessla -O1 --emit=tpb -o spec.tpb   # build machine
///   tessla-run spec.tpb < trace.txt                  # deployment box
///   tessla-run spec.tpb --trace trace.txt --fleet 4 --sessions 64
///   tessla-run spec.tpb --plan                       # inspect the plan
/// \endcode
///
/// Output is byte-identical to `tesslac --run` over the same program:
/// sequential events as "ts: name = value", fleet events prefixed with
/// "s<session>| ", fleet statistics on stderr.
///
//===----------------------------------------------------------------------===//

#include "tessla/CodeGen/NativeCompile.h"
#include "tessla/Program/Serialize.h"
#include "tessla/Runtime/Checkpoint.h"
#include "tessla/Runtime/FleetClient.h"
#include "tessla/Runtime/FleetServer.h"
#include "tessla/Runtime/MonitorFleet.h"
#include "tessla/Runtime/TraceIO.h"
#include "tessla/Runtime/Transport.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace tessla;

namespace {

void printUsage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s <spec.tpb> [options]\n"
      "  --trace <trace.txt>               read the trace from a file\n"
      "                                    (default: stdin)\n"
      "  --horizon <t>                     bound delay draining at finish\n"
      "  --fleet <n>                       replay through a MonitorFleet\n"
      "                                    with n worker shards\n"
      "  --sessions <m>                    fleet sessions; the trace is\n"
      "                                    replayed once per session\n"
      "                                    (default 1)\n"
      "  --producers <p>                   fleet producer threads; the\n"
      "                                    sessions are partitioned over\n"
      "                                    them (default 1)\n"
      "  --engine=interp|batched|native    execution engine: one\n"
      "                                    interpreter Monitor per\n"
      "                                    session, SoA lockstep lanes,\n"
      "                                    or the compiled native tier\n"
      "                                    (CppEmitter -> system compiler\n"
      "                                    -> dlopen; falls back to the\n"
      "                                    interpreter when no compiler\n"
      "                                    is available). Outputs are\n"
      "                                    byte-identical across engines.\n"
      "                                    Default: batched (fleet),\n"
      "                                    interpreter (sequential)\n"
      "  --batched | --per-session         aliases for --engine=batched /\n"
      "                                    --engine=interp\n"
      "  --plan                            print the loaded program\n"
      "                                    instead of executing\n"
      "service mode (Runtime/FleetServer.h over a Unix socket):\n"
      "  --serve <socket>                  run as a monitor server: accept\n"
      "                                    wire-format connections until a\n"
      "                                    Shutdown frame. --fleet/--engine/\n"
      "                                    --horizon configure the fleet;\n"
      "                                    --restore-from seeds it from a\n"
      "                                    checkpoint before serving\n"
      "  --connect <socket>                talk to a server instead of\n"
      "                                    executing locally. Feeds the\n"
      "                                    trace (stdin or --trace) unless\n"
      "                                    only control actions are given\n"
      "  --checkpoint-to <file.tcp>        ask the server for a live\n"
      "                                    checkpoint and write it\n"
      "  --restore-from <file.tcp>         restore a checkpoint (into the\n"
      "                                    server with --connect, or into\n"
      "                                    a fresh server with --serve)\n"
      "  --fork <src>:<dst>                O(1) snapshot-fork of live\n"
      "                                    session <src> into new session\n"
      "                                    <dst> (producers must be closed)\n"
      "  --finish                          fleet end-of-input: print the\n"
      "                                    merged outputs\n"
      "  --stats                           print the server's fleet stats\n"
      "  --shutdown                        stop the server process\n"
      "  --feed-until <t>                  feed only events with ts <= t\n"
      "  --skip-until <t>                  skip events with ts <= t (for\n"
      "                                    resuming after a checkpoint)\n",
      Argv0);
}

/// Engine selection shared by the sequential and fleet paths. Explicit
/// selections must agree; the aliases and --engine= are one knob.
enum class EngineSel { Default, Interp, Batched, Native };

std::optional<std::string> readFile(const char *Path) {
  std::ifstream In(Path);
  if (!In)
    return std::nullopt;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

std::string readStdin() {
  std::stringstream Buffer;
  Buffer << std::cin.rdbuf();
  return Buffer.str();
}

std::optional<std::vector<uint8_t>> readBinaryFile(const char *Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return std::nullopt;
  std::vector<uint8_t> Bytes{std::istreambuf_iterator<char>(In),
                             std::istreambuf_iterator<char>()};
  return Bytes;
}

} // namespace

int main(int argc, char **argv) {
  const char *BundlePath = nullptr;
  const char *TracePath = nullptr;
  bool PrintPlan = false;
  std::optional<Time> Horizon;
  unsigned FleetShards = 0; // 0 = single-session sequential replay
  unsigned FleetSessions = 1;
  unsigned FleetProducers = 1;
  EngineSel Engine = EngineSel::Default;
  const char *EngineFlag = nullptr; // the flag that selected it
  const char *ServePath = nullptr;
  const char *ConnectPath = nullptr;
  const char *CheckpointTo = nullptr;
  const char *RestoreFrom = nullptr;
  const char *ForkArg = nullptr;
  bool DoFinish = false;
  bool DoStats = false;
  bool DoShutdown = false;
  std::optional<Time> FeedUntil;
  std::optional<Time> SkipUntil;

  auto selectEngine = [&](EngineSel Sel, const char *Flag) {
    if (Engine != EngineSel::Default && Engine != Sel) {
      std::fprintf(stderr,
                   "conflicting engine selections '%s' and '%s'\n",
                   EngineFlag, Flag);
      return false;
    }
    Engine = Sel;
    EngineFlag = Flag;
    return true;
  };

  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    if (std::strcmp(Arg, "--trace") == 0 && I + 1 < argc) {
      TracePath = argv[++I];
    } else if (std::strcmp(Arg, "--horizon") == 0 && I + 1 < argc) {
      Horizon = std::strtoll(argv[++I], nullptr, 10);
    } else if (std::strcmp(Arg, "--fleet") == 0 && I + 1 < argc) {
      FleetShards = static_cast<unsigned>(
          std::max(1ll, std::strtoll(argv[++I], nullptr, 10)));
    } else if (std::strcmp(Arg, "--sessions") == 0 && I + 1 < argc) {
      FleetSessions = static_cast<unsigned>(
          std::max(1ll, std::strtoll(argv[++I], nullptr, 10)));
    } else if (std::strcmp(Arg, "--producers") == 0 && I + 1 < argc) {
      FleetProducers = static_cast<unsigned>(
          std::max(1ll, std::strtoll(argv[++I], nullptr, 10)));
    } else if (std::strncmp(Arg, "--engine=", 9) == 0) {
      const char *Which = Arg + 9;
      EngineSel Sel;
      if (std::strcmp(Which, "interp") == 0)
        Sel = EngineSel::Interp;
      else if (std::strcmp(Which, "batched") == 0)
        Sel = EngineSel::Batched;
      else if (std::strcmp(Which, "native") == 0)
        Sel = EngineSel::Native;
      else {
        std::fprintf(stderr, "unknown engine '%s'\n", Which);
        printUsage(argv[0]);
        return 2;
      }
      if (!selectEngine(Sel, Arg))
        return 2;
    } else if (std::strcmp(Arg, "--batched") == 0) {
      if (!selectEngine(EngineSel::Batched, Arg))
        return 2;
    } else if (std::strcmp(Arg, "--per-session") == 0) {
      if (!selectEngine(EngineSel::Interp, Arg))
        return 2;
    } else if (std::strcmp(Arg, "--plan") == 0) {
      PrintPlan = true;
    } else if (std::strcmp(Arg, "--serve") == 0 && I + 1 < argc) {
      ServePath = argv[++I];
    } else if (std::strcmp(Arg, "--connect") == 0 && I + 1 < argc) {
      ConnectPath = argv[++I];
    } else if (std::strcmp(Arg, "--checkpoint-to") == 0 && I + 1 < argc) {
      CheckpointTo = argv[++I];
    } else if (std::strcmp(Arg, "--restore-from") == 0 && I + 1 < argc) {
      RestoreFrom = argv[++I];
    } else if (std::strcmp(Arg, "--fork") == 0 && I + 1 < argc) {
      ForkArg = argv[++I];
    } else if (std::strcmp(Arg, "--finish") == 0) {
      DoFinish = true;
    } else if (std::strcmp(Arg, "--stats") == 0) {
      DoStats = true;
    } else if (std::strcmp(Arg, "--shutdown") == 0) {
      DoShutdown = true;
    } else if (std::strcmp(Arg, "--feed-until") == 0 && I + 1 < argc) {
      FeedUntil = std::strtoll(argv[++I], nullptr, 10);
    } else if (std::strcmp(Arg, "--skip-until") == 0 && I + 1 < argc) {
      SkipUntil = std::strtoll(argv[++I], nullptr, 10);
    } else if (std::strcmp(Arg, "--help") == 0) {
      printUsage(argv[0]);
      return 0;
    } else if (Arg[0] != '-' && !BundlePath) {
      BundlePath = Arg;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", Arg);
      printUsage(argv[0]);
      return 2;
    }
  }
  if (!BundlePath) {
    printUsage(argv[0]);
    return 2;
  }

  DiagnosticEngine Diags;
  std::optional<Program> PlanOpt = loadProgramFile(BundlePath, Diags);
  if (!PlanOpt) {
    std::fprintf(stderr, "%s", Diags.str(BundlePath).c_str());
    return 1;
  }
  Program &Plan = *PlanOpt;

  if (PrintPlan) {
    std::printf("%s", Plan.str().c_str());
    return 0;
  }

  // Resolve the native tier up front (shared by the sequential, fleet
  // and server paths) so a missing compiler degrades to the interpreter
  // with one diagnostic instead of failing the run.
  EngineFactory NativeFactory;
  if (Engine == EngineSel::Native) {
    std::string NativeErr;
    NativeFactory =
        makeNativeEngineFactory(Plan, NativeCompileOptions(), NativeErr);
    if (!NativeFactory) {
      std::fprintf(stderr,
                   "native engine unavailable: %s; falling back to the "
                   "interpreter\n",
                   NativeErr.c_str());
      Engine = EngineSel::Interp;
    }
  }

  auto makeFleetOpts = [&](unsigned Shards) {
    FleetOptions FOpts;
    FOpts.Shards = Shards;
    FOpts.Horizon = Horizon;
    switch (Engine) {
    case EngineSel::Default:
      FOpts.Mode = FleetMode::Auto;
      break;
    case EngineSel::Interp:
      FOpts.Mode = FleetMode::PerSession;
      break;
    case EngineSel::Batched:
      FOpts.Mode = FleetMode::Batched;
      break;
    case EngineSel::Native:
      FOpts.Mode = FleetMode::Native;
      FOpts.NativeFactory = NativeFactory;
      break;
    }
    return FOpts;
  };

  if (ServePath) {
    unsigned Shards = FleetShards == 0 ? 1 : FleetShards;
    FleetServer Server(Plan, makeFleetOpts(Shards));
    if (RestoreFrom) {
      auto Bytes = readBinaryFile(RestoreFrom);
      if (!Bytes) {
        std::fprintf(stderr, "cannot open %s\n", RestoreFrom);
        return 1;
      }
      std::string Err;
      auto N = Server.client().restore(*Bytes, &Err);
      if (!N) {
        std::fprintf(stderr, "restore failed: %s\n", Err.c_str());
        return 1;
      }
      std::fprintf(stderr, "restored %llu session(s) from %s\n",
                   static_cast<unsigned long long>(*N), RestoreFrom);
    }
    std::string Err;
    auto L = listenUnixSocket(ServePath, &Err);
    if (!L) {
      std::fprintf(stderr, "%s\n", Err.c_str());
      return 1;
    }
    std::fprintf(stderr, "serving %s on %s (%u shard(s))\n", BundlePath,
                 ServePath, Shards);
    Server.serve(*L);
    return 0;
  }

  if (ConnectPath) {
    std::string Err;
    uint64_t ServerCk = 0;
    auto Client = makeUnixSocketClient(ConnectPath, &Err, &ServerCk);
    if (!Client) {
      std::fprintf(stderr, "%s\n", Err.c_str());
      return 1;
    }
    if (ServerCk != programChecksum(Plan)) {
      std::fprintf(stderr,
                   "bundle mismatch: the server runs a different program "
                   "(checksum %016llx, local %016llx)\n",
                   static_cast<unsigned long long>(ServerCk),
                   static_cast<unsigned long long>(programChecksum(Plan)));
      return 1;
    }
    if (RestoreFrom) {
      auto Bytes = readBinaryFile(RestoreFrom);
      if (!Bytes) {
        std::fprintf(stderr, "cannot open %s\n", RestoreFrom);
        return 1;
      }
      auto N = Client->restore(*Bytes, &Err);
      if (!N) {
        std::fprintf(stderr, "restore failed: %s\n", Err.c_str());
        return 1;
      }
      std::fprintf(stderr, "restored %llu session(s)\n",
                   static_cast<unsigned long long>(*N));
    }

    // Feed the trace unless this is a control-only invocation.
    bool ControlOnly = (CheckpointTo || RestoreFrom || ForkArg || DoFinish ||
                        DoStats || DoShutdown) &&
                       !TracePath;
    if (!ControlOnly) {
      std::string TraceText;
      if (TracePath) {
        auto Text = readFile(TracePath);
        if (!Text) {
          std::fprintf(stderr, "cannot open %s\n", TracePath);
          return 1;
        }
        TraceText = std::move(*Text);
      } else {
        TraceText = readStdin();
      }
      DiagnosticEngine TraceDiags;
      auto Events = parseTrace(TraceText, Plan.spec(), TraceDiags);
      if (!Events) {
        std::fprintf(stderr, "%s",
                     TraceDiags.str(TracePath ? TracePath : "<stdin>").c_str());
        return 1;
      }
      unsigned Producers = std::min(FleetProducers, FleetSessions);
      std::vector<std::thread> Threads;
      std::vector<uint64_t> Busy(Producers, 0);
      std::atomic<bool> FeedFailed{false};
      for (unsigned P = 0; P != Producers; ++P)
        Threads.emplace_back([&, P] {
          std::string PErr;
          auto Prod = Client->producer(&PErr);
          if (!Prod) {
            std::fprintf(stderr, "producer %u: %s\n", P, PErr.c_str());
            FeedFailed.store(true);
            return;
          }
          for (const auto &[Id, Ts, V] : *Events) {
            if (SkipUntil && Ts <= *SkipUntil)
              continue;
            if (FeedUntil && Ts > *FeedUntil)
              break;
            for (SessionId Session = P; Session < FleetSessions;
                 Session += Producers)
              if (!Prod->feed(Session, Id, Ts, V)) {
                std::fprintf(stderr, "producer %u: %s\n", P,
                             Prod->error().c_str());
                FeedFailed.store(true);
                return;
              }
          }
          if (!Prod->close()) {
            std::fprintf(stderr, "producer %u: %s\n", P,
                         Prod->error().c_str());
            FeedFailed.store(true);
          }
          Busy[P] = Prod->busySignals();
        });
      for (std::thread &T : Threads)
        T.join();
      uint64_t TotalBusy = 0;
      for (uint64_t B : Busy)
        TotalBusy += B;
      if (TotalBusy)
        std::fprintf(stderr, "backpressure: %llu busy signal(s)\n",
                     static_cast<unsigned long long>(TotalBusy));
      if (FeedFailed.load())
        return 1;
    }

    if (ForkArg) {
      char *Sep = nullptr;
      unsigned long long Src = std::strtoull(ForkArg, &Sep, 10);
      if (!Sep || *Sep != ':') {
        std::fprintf(stderr, "--fork expects <src>:<dst>, got '%s'\n",
                     ForkArg);
        return 2;
      }
      char *End = nullptr;
      unsigned long long Dst = std::strtoull(Sep + 1, &End, 10);
      if (End == Sep + 1 || (End && *End != '\0')) {
        std::fprintf(stderr, "--fork expects <src>:<dst>, got '%s'\n",
                     ForkArg);
        return 2;
      }
      if (!Client->forkSession(Src, Dst, &Err)) {
        std::fprintf(stderr, "fork failed: %s\n", Err.c_str());
        return 1;
      }
      std::fprintf(stderr, "forked session %llu -> %llu\n", Src, Dst);
    }

    if (CheckpointTo) {
      auto Bytes = Client->snapshot(&Err);
      if (!Bytes) {
        std::fprintf(stderr, "checkpoint failed: %s\n", Err.c_str());
        return 1;
      }
      DiagnosticEngine WriteDiags;
      if (!writeCheckpointFile(*Bytes, CheckpointTo, WriteDiags)) {
        std::fprintf(stderr, "%s", WriteDiags.str().c_str());
        return 1;
      }
      std::fprintf(stderr, "checkpoint: %zu bytes -> %s\n", Bytes->size(),
                   CheckpointTo);
    }

    if (DoFinish) {
      auto R = Client->finish(&Err);
      if (!R) {
        std::fprintf(stderr, "finish failed: %s\n", Err.c_str());
        return 1;
      }
      for (const SessionOutputEvent &E : R->Outputs)
        std::printf("s%llu| %lld: %s = %s\n",
                    static_cast<unsigned long long>(E.Session),
                    static_cast<long long>(E.Event.Ts),
                    Plan.spec().stream(E.Event.Id).Name.c_str(),
                    E.Event.V.str().c_str());
      if (R->FailedSessions) {
        std::fprintf(stderr, "%llu session(s) failed\n",
                     static_cast<unsigned long long>(R->FailedSessions));
        return 1;
      }
    }

    if (DoStats) {
      auto S = Client->statsText(&Err);
      if (!S) {
        std::fprintf(stderr, "stats failed: %s\n", Err.c_str());
        return 1;
      }
      std::printf("%s", S->c_str());
    }

    if (DoShutdown && !Client->shutdownServer(&Err)) {
      std::fprintf(stderr, "shutdown failed: %s\n", Err.c_str());
      return 1;
    }
    return 0;
  }

  std::string TraceText;
  if (TracePath) {
    auto Text = readFile(TracePath);
    if (!Text) {
      std::fprintf(stderr, "cannot open %s\n", TracePath);
      return 1;
    }
    TraceText = std::move(*Text);
  } else {
    TraceText = readStdin();
  }
  DiagnosticEngine TraceDiags;
  auto Events = parseTrace(TraceText, Plan.spec(), TraceDiags);
  if (!Events) {
    std::fprintf(stderr, "%s",
                 TraceDiags.str(TracePath ? TracePath : "<stdin>").c_str());
    return 1;
  }

  if (FleetShards > 0) {
    // Same multi-session replay shape as `tesslac --run --fleet`: the
    // sessions are partitioned over the producer threads, each feeding
    // the whole trace to its sessions through its own handle.
    FleetOptions FOpts = makeFleetOpts(FleetShards);
    unsigned Producers = std::min(FleetProducers, FleetSessions);
    FOpts.MaxProducers = std::max(FOpts.MaxProducers, Producers);
    MonitorFleet Fleet(Plan, FOpts);
    std::vector<std::thread> Threads;
    Threads.reserve(Producers);
    for (unsigned P = 0; P != Producers; ++P)
      Threads.emplace_back([&, P] {
        ProducerHandle Handle = Fleet.producer();
        for (const auto &[Id, Ts, V] : *Events)
          for (SessionId Session = P; Session < FleetSessions;
               Session += Producers)
            Handle.feed(Session, Id, Ts, V);
      });
    for (std::thread &T : Threads)
      T.join();
    Fleet.finish();
    for (const SessionOutputEvent &E : Fleet.takeOutputs())
      std::printf("s%llu| %lld: %s = %s\n",
                  static_cast<unsigned long long>(E.Session),
                  static_cast<long long>(E.Event.Ts),
                  Plan.spec().stream(E.Event.Id).Name.c_str(),
                  E.Event.V.str().c_str());
    std::fprintf(stderr, "%s", Fleet.stats().str().c_str());
    if (Fleet.failed()) {
      for (const SessionError &E : Fleet.errors())
        std::fprintf(stderr, "session %llu error: %s\n",
                     static_cast<unsigned long long>(E.Session),
                     E.Message.c_str());
      return 1;
    }
    return 0;
  }

  // Sequential replay through a non-default engine: collect through the
  // ShardEngine interface, then print — same bytes as the streaming
  // interpreter path below.
  if (Engine == EngineSel::Batched || Engine == EngineSel::Native) {
    std::unique_ptr<ShardEngine> Eng =
        Engine == EngineSel::Batched ? makeBatchedEngine(Plan)
                                     : NativeFactory(Plan, true);
    EventBatch Batch;
    for (const auto &[Id, Ts, V] : *Events)
      Batch.Records.push_back({0, Id, Ts, V});
    std::string Err;
    std::vector<OutputEvent> Outs =
        runEngineSingle(*Eng, Batch, Horizon, &Err);
    for (const OutputEvent &E : Outs)
      std::printf("%lld: %s = %s\n", static_cast<long long>(E.Ts),
                  Plan.spec().stream(E.Id).Name.c_str(), E.V.str().c_str());
    Eng.reset(); // a native engine must not outlive this scope's library
    if (!Err.empty()) {
      std::fprintf(stderr, "monitor error: %s\n", Err.c_str());
      return 1;
    }
    return 0;
  }

  Monitor M(Plan);
  M.setOutputHandler([&Plan](Time Ts, StreamId Id, const Value &V) {
    std::printf("%lld: %s = %s\n", static_cast<long long>(Ts),
                Plan.spec().stream(Id).Name.c_str(), V.str().c_str());
  });
  for (const auto &[Id, Ts, V] : *Events)
    if (!M.feed(Id, Ts, V))
      break;
  M.finish(Horizon);
  if (M.failed()) {
    std::fprintf(stderr, "monitor error: %s\n", M.errorMessage().c_str());
    return 1;
  }
  return 0;
}
