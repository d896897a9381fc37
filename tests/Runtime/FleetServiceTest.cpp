//===- tests/Runtime/FleetServiceTest.cpp -----------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// The monitor service end to end: a FleetServer driven through real
/// transports (socketpair pipes and a Unix-domain socket) by the remote
/// FleetClient, held against the in-process client over the same
/// workload — byte-identical outputs, identical counters. Covers the
/// full session lifecycle over the wire (handshake, multi-producer
/// feed, snapshot, restore into a fresh server, finish, stats,
/// shutdown), wire-level backpressure (Busy frames reaching
/// busySignals()), and the protocol error paths: version mismatch,
/// control operations while producers are open, restore after feeding.
///
//===----------------------------------------------------------------------===//

#include "tessla/Runtime/FleetClient.h"
#include "tessla/Runtime/FleetServer.h"
#include "tessla/Runtime/Checkpoint.h"

#include "../TestSpecs.h"

#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <thread>
#include <unistd.h>

using namespace tessla;
using namespace tessla::testspecs;

namespace {

/// One record of the workload trace.
struct Rec {
  SessionId Session;
  Time Ts;
  int64_t V;
};

std::vector<Rec> workloadTrace(unsigned Sessions, int64_t Events) {
  std::vector<Rec> Recs;
  for (int64_t I = 1; I <= Events; ++I)
    for (SessionId S = 1; S <= Sessions; ++S)
      Recs.push_back({S, I, (I * 7 + static_cast<int64_t>(S)) % 23});
  return Recs;
}

std::string renderFinish(const Spec &S, const FleetFinish &R) {
  std::string Out;
  for (const SessionOutputEvent &E : R.Outputs)
    Out += "s" + std::to_string(E.Session) + "| " +
           formatEvent(S, E.Event) + "\n";
  return Out;
}

/// Pipe-backed server harness: each dial spins up a server-side
/// connection thread over one end of a fresh socketpair and hands the
/// other end to the client. The harness joins the connection threads on
/// destruction (after the client closed its ends).
class PipeServer {
public:
  PipeServer(const Program &P, FleetOptions Opts = {})
      : Server(P, std::move(Opts)) {}

  ~PipeServer() {
    for (std::thread &T : Threads)
      T.join();
  }

  TransportDialer dialer() {
    return [this](std::string *) -> std::unique_ptr<Transport> {
      auto [ClientEnd, ServerEnd] = makePipeTransportPair();
      std::lock_guard<std::mutex> L(Mu);
      Threads.emplace_back(
          [this, End = std::move(ServerEnd)]() mutable {
            Server.handleConnection(std::move(End));
          });
      return std::move(ClientEnd);
    };
  }

  FleetServer Server;

private:
  std::mutex Mu;
  std::vector<std::thread> Threads;
};

/// Runs \p Recs through \p Client over \p Producers endpoints
/// (sessions partitioned round-robin) and finishes; returns the
/// rendered outputs.
std::string runWorkload(FleetClient &Client, const Spec &S, StreamId X,
                        const std::vector<Rec> &Recs, unsigned Producers,
                        uint64_t *BusyOut = nullptr) {
  std::vector<std::thread> Threads;
  std::vector<uint64_t> Busy(Producers, 0);
  for (unsigned P = 0; P != Producers; ++P)
    Threads.emplace_back([&, P] {
      std::string Err;
      auto Prod = Client.producer(&Err);
      ASSERT_TRUE(Prod) << Err;
      for (const Rec &R : Recs) {
        if (R.Session % Producers != P)
          continue;
        ASSERT_TRUE(Prod->feed(R.Session, X, R.Ts, Value::integer(R.V)))
            << Prod->error();
      }
      ASSERT_TRUE(Prod->close()) << Prod->error();
      Busy[P] = Prod->busySignals();
    });
  for (std::thread &T : Threads)
    T.join();
  if (BusyOut)
    for (uint64_t B : Busy)
      *BusyOut += B;
  std::string Err;
  auto R = Client.finish(&Err);
  EXPECT_TRUE(R) << Err;
  if (!R)
    return std::string();
  EXPECT_EQ(R->FailedSessions, 0u);
  EXPECT_EQ(R->TotalOutputs, R->Outputs.size());
  return renderFinish(S, *R);
}

} // namespace

TEST(FleetServiceTest, RemoteMatchesInProcessByteForByte) {
  Program P = compileOrDie(seenSet(), true, 1);
  StreamId X = *P.spec().lookup("x");
  std::vector<Rec> Recs = workloadTrace(6, 30);

  FleetOptions Opts;
  Opts.Shards = 2;
  auto InProc = makeInProcessClient(P, Opts);
  std::string Reference = runWorkload(*InProc, P.spec(), X, Recs, 2);
  ASSERT_FALSE(Reference.empty());

  PipeServer Server(P, Opts);
  std::string Err;
  uint64_t RemoteChecksum = 0;
  auto Remote = makeRemoteClient(Server.dialer(), &Err, &RemoteChecksum);
  ASSERT_TRUE(Remote) << Err;
  EXPECT_EQ(RemoteChecksum, programChecksum(P))
      << "HelloAck must carry the server program's identity";
  EXPECT_EQ(runWorkload(*Remote, P.spec(), X, Recs, 2), Reference);
}

// A mistyped record that arrives over the wire fails only its session
// on the server's fleet (either interpreting engine); the server keeps
// serving, and the other sessions' outputs match an in-process run of
// their records alone.
TEST(FleetServiceTest, MistypedRecordFailsOnlyItsSessionOverTheWire) {
  Program P = compileOrDie(parseOrDie(QueueTrimSpec));
  StreamId X = *P.spec().lookup("x");
  std::vector<Rec> Recs = workloadTrace(4, 20);
  std::vector<Rec> Healthy;
  for (const Rec &R : Recs)
    if (R.Session != 3)
      Healthy.push_back(R);
  for (FleetMode Mode : {FleetMode::PerSession, FleetMode::Batched}) {
    FleetOptions Opts;
    Opts.Shards = 2;
    Opts.Mode = Mode;
    auto InProc = makeInProcessClient(P, Opts);
    std::string Reference = runWorkload(*InProc, P.spec(), X, Healthy, 1);
    ASSERT_FALSE(Reference.empty());

    PipeServer Server(P, Opts);
    std::string Err;
    auto Remote = makeRemoteClient(Server.dialer(), &Err);
    ASSERT_TRUE(Remote) << Err;
    auto Prod = Remote->producer(&Err);
    ASSERT_TRUE(Prod) << Err;
    for (const Rec &R : Recs)
      ASSERT_TRUE(Prod->feed(R.Session, X, R.Ts,
                             R.Session == 3 && R.Ts == 2
                                 ? Value::string("abc")
                                 : Value::integer(R.V)))
          << Prod->error();
    ASSERT_TRUE(Prod->close()) << Prod->error();
    auto Finished = Remote->finish(&Err);
    ASSERT_TRUE(Finished) << Err;
    EXPECT_EQ(Finished->FailedSessions, 1u);
    std::string Out;
    for (const SessionOutputEvent &E : Finished->Outputs)
      if (E.Session != 3)
        Out += "s" + std::to_string(E.Session) + "| " +
               formatEvent(P.spec(), E.Event) + "\n";
    EXPECT_EQ(Out, Reference);
  }
}

TEST(FleetServiceTest, SnapshotRestoreOverTheWire) {
  Program P = compileOrDie(seenSet(), true, 1);
  StreamId X = *P.spec().lookup("x");
  std::vector<Rec> Recs = workloadTrace(4, 24);
  const Time SplitTs = 12;

  FleetOptions Opts;
  Opts.Shards = 2;
  auto InProc = makeInProcessClient(P, Opts);
  std::string Reference = runWorkload(*InProc, P.spec(), X, Recs, 1);

  // Server 1: feed the head over the wire, take a live snapshot.
  PipeServer ServerA(P, Opts);
  std::string Err;
  auto RemoteA = makeRemoteClient(ServerA.dialer(), &Err);
  ASSERT_TRUE(RemoteA) << Err;
  {
    auto Prod = RemoteA->producer(&Err);
    ASSERT_TRUE(Prod) << Err;
    for (const Rec &R : Recs)
      if (R.Ts <= SplitTs)
        ASSERT_TRUE(Prod->feed(R.Session, X, R.Ts, Value::integer(R.V)));
    ASSERT_TRUE(Prod->close()) << Prod->error();
  }
  auto Bytes = RemoteA->snapshot(&Err);
  ASSERT_TRUE(Bytes) << Err;
  EXPECT_FALSE(Bytes->empty());

  // The snapshot is *live*: server 1 keeps running and finishes the
  // whole trace itself...
  {
    auto Prod = RemoteA->producer(&Err);
    ASSERT_TRUE(Prod) << Err;
    for (const Rec &R : Recs)
      if (R.Ts > SplitTs)
        ASSERT_TRUE(Prod->feed(R.Session, X, R.Ts, Value::integer(R.V)));
    ASSERT_TRUE(Prod->close()) << Prod->error();
  }
  auto FinishA = RemoteA->finish(&Err);
  ASSERT_TRUE(FinishA) << Err;
  EXPECT_EQ(renderFinish(P.spec(), *FinishA), Reference);

  // ...while server 2 — a different process in production, a fresh
  // fleet with a different shard count here — resumes from the bytes
  // and produces the identical trace.
  FleetOptions OptsB;
  OptsB.Shards = 3;
  PipeServer ServerB(P, OptsB);
  auto RemoteB = makeRemoteClient(ServerB.dialer(), &Err);
  ASSERT_TRUE(RemoteB) << Err;
  auto Lanes = RemoteB->restore(*Bytes, &Err);
  ASSERT_TRUE(Lanes) << Err;
  EXPECT_EQ(*Lanes, 4u);
  {
    auto Prod = RemoteB->producer(&Err);
    ASSERT_TRUE(Prod) << Err;
    for (const Rec &R : Recs)
      if (R.Ts > SplitTs)
        ASSERT_TRUE(Prod->feed(R.Session, X, R.Ts, Value::integer(R.V)));
    ASSERT_TRUE(Prod->close()) << Prod->error();
  }
  auto FinishB = RemoteB->finish(&Err);
  ASSERT_TRUE(FinishB) << Err;
  EXPECT_EQ(renderFinish(P.spec(), *FinishB), Reference);

  // Stats render after a finish (the ShardStats::str() key-value form).
  auto Stats = RemoteB->statsText(&Err);
  ASSERT_TRUE(Stats) << Err;
  EXPECT_NE(Stats->find("sessions"), std::string::npos) << *Stats;
}

TEST(FleetServiceTest, BusyFramesSurfaceBackpressure) {
  // Tiny rings, one shard doing aggregate work, a producer hammering
  // batches of one record: the shard falls behind, the in-process feed
  // blocks (counted), and the count must travel back as Busy frames to
  // the remote producer's busySignals().
  Program P = compileOrDie(seenSet(), true, 1);
  StreamId X = *P.spec().lookup("x");
  FleetOptions Opts;
  Opts.Shards = 1;
  Opts.BatchSize = 1;
  Opts.QueueCapacity = 4;
  PipeServer Server(P, Opts);
  std::string Err;
  auto Remote = makeRemoteClient(Server.dialer(), &Err);
  ASSERT_TRUE(Remote) << Err;

  std::vector<Rec> Recs = workloadTrace(4, 800);
  uint64_t Busy = 0;
  std::string Out = runWorkload(*Remote, P.spec(), X, Recs, 1, &Busy);
  ASSERT_FALSE(Out.empty());
  EXPECT_GT(Busy, 0u)
      << "3200 records through a 4-batch ring never stalled; "
         "backpressure reporting is vacuous";
}

TEST(FleetServiceTest, WrongWireVersionIsRefused) {
  Program P = compileOrDie(seenSet(), true, 1);
  PipeServer Server(P);
  auto Dial = Server.dialer();
  auto Conn = Dial(nullptr);
  ASSERT_TRUE(Conn);

  // A Hello from the future: u32 version nobody implements.
  uint32_t Bad = WireFormatVersion + 7;
  std::vector<uint8_t> Payload(4);
  for (unsigned I = 0; I != 4; ++I)
    Payload[I] = static_cast<uint8_t>(Bad >> (8 * I));
  ASSERT_TRUE(Conn->send(encodeFrame(FrameType::Hello, Payload)));

  FrameDecoder Dec;
  std::string Err;
  auto Frame = recvFrame(*Conn, Dec, Err);
  ASSERT_TRUE(Frame) << Err;
  EXPECT_EQ(Frame->Type, FrameType::Error);
  auto Msg = decodeString(Frame->Payload.data(), Frame->Payload.size(), Err);
  ASSERT_TRUE(Msg) << Err;
  EXPECT_NE(Msg->find("version"), std::string::npos) << *Msg;

  // The server drops the connection after any Error frame.
  uint8_t Byte;
  EXPECT_EQ(Conn->recv(&Byte, 1), 0);
  Conn->close();
}

TEST(FleetServiceTest, ControlRequiresQuiescence) {
  Program P = compileOrDie(seenSet(), true, 1);
  StreamId X = *P.spec().lookup("x");

  // In-process: the rejection is synchronous and the client survives.
  auto Client = makeInProcessClient(P);
  std::string Err;
  auto Prod = Client->producer(&Err);
  ASSERT_TRUE(Prod) << Err;
  EXPECT_FALSE(Client->snapshot(&Err));
  EXPECT_NE(Err.find("producer"), std::string::npos) << Err;
  EXPECT_FALSE(Client->finish(&Err));
  ASSERT_TRUE(Prod->feed(1, X, 1, Value::integer(3)));
  ASSERT_TRUE(Prod->close());
  // Quiescent again: control operations work.
  auto R = Client->finish(&Err);
  ASSERT_TRUE(R) << Err;
  EXPECT_GT(R->TotalOutputs, 0u);
}

TEST(FleetServiceTest, RemoteControlWhileProducerOpenGetsErrorFrame) {
  Program P = compileOrDie(seenSet(), true, 1);
  StreamId X = *P.spec().lookup("x");
  PipeServer Server(P);
  std::string Err;
  auto Remote = makeRemoteClient(Server.dialer(), &Err);
  ASSERT_TRUE(Remote) << Err;

  auto Prod = Remote->producer(&Err);
  ASSERT_TRUE(Prod) << Err;
  ASSERT_TRUE(Prod->feed(1, X, 1, Value::integer(3)));
  ASSERT_TRUE(Prod->flush());

  // The server-side producer materializes when the Batch frame is
  // *processed*, on the connection thread — wait until the running
  // stats show it.
  for (int I = 0; I != 5000; ++I) {
    auto S = Remote->statsText(&Err);
    ASSERT_TRUE(S) << Err;
    if (S->find("producers-open=1") != std::string::npos)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Snapshot with an open producer: an Error frame, and the control
  // connection is gone afterwards (wire errors are fatal per
  // connection).
  EXPECT_FALSE(Remote->snapshot(&Err));
  EXPECT_NE(Err.find("producer"), std::string::npos) << Err;
  EXPECT_FALSE(Remote->statsText(&Err));

  // The producer connection is unaffected; its lifecycle completes.
  ASSERT_TRUE(Prod->close()) << Prod->error();
}

TEST(FleetServiceTest, RestoreAfterFeedingIsRejected) {
  Program P = compileOrDie(seenSet(), true, 1);
  StreamId X = *P.spec().lookup("x");

  // Build a valid checkpoint first.
  auto Donor = makeInProcessClient(P);
  std::string Err;
  {
    auto Prod = Donor->producer(&Err);
    ASSERT_TRUE(Prod) << Err;
    ASSERT_TRUE(Prod->feed(1, X, 1, Value::integer(3)));
    ASSERT_TRUE(Prod->close());
  }
  auto Bytes = Donor->snapshot(&Err);
  ASSERT_TRUE(Bytes) << Err;

  // A client that already fed is no longer fresh: restore is refused,
  // in-process and over the wire alike.
  auto Client = makeInProcessClient(P);
  {
    auto Prod = Client->producer(&Err);
    ASSERT_TRUE(Prod) << Err;
    ASSERT_TRUE(Prod->feed(2, X, 1, Value::integer(4)));
    ASSERT_TRUE(Prod->close());
  }
  EXPECT_FALSE(Client->restore(*Bytes, &Err));
  EXPECT_FALSE(Err.empty());

  PipeServer Server(P);
  auto Remote = makeRemoteClient(Server.dialer(), &Err);
  ASSERT_TRUE(Remote) << Err;
  {
    auto Prod = Remote->producer(&Err);
    ASSERT_TRUE(Prod) << Err;
    ASSERT_TRUE(Prod->feed(2, X, 1, Value::integer(4)));
    ASSERT_TRUE(Prod->close());
  }
  EXPECT_FALSE(Remote->restore(*Bytes, &Err));
  EXPECT_FALSE(Err.empty());
}

TEST(FleetServiceTest, GarbageBytesPoisonTheConnection) {
  Program P = compileOrDie(seenSet(), true, 1);
  PipeServer Server(P);
  auto Dial = Server.dialer();
  auto Conn = Dial(nullptr);
  ASSERT_TRUE(Conn);

  std::vector<uint8_t> Garbage(64, 0xAB);
  ASSERT_TRUE(Conn->send(Garbage));

  // The server answers a malformed stream with an Error frame (or just
  // hangs up); either way the connection reaches end-of-stream without
  // the server crashing.
  FrameDecoder Dec;
  std::string Err;
  auto Frame = recvFrame(*Conn, Dec, Err);
  if (Frame)
    EXPECT_EQ(Frame->Type, FrameType::Error);
  uint8_t Byte;
  EXPECT_LE(Conn->recv(&Byte, 1), 0);
  Conn->close();
}

TEST(FleetServiceTest, UnixSocketLifecycleWithShutdown) {
  Program P = compileOrDie(seenSet(), true, 1);
  StreamId X = *P.spec().lookup("x");
  std::vector<Rec> Recs = workloadTrace(4, 20);

  FleetOptions Opts;
  Opts.Shards = 2;
  auto InProc = makeInProcessClient(P, Opts);
  std::string Reference = runWorkload(*InProc, P.spec(), X, Recs, 2);

  std::string Path = ::testing::TempDir() + "tessla_svc_" +
                     std::to_string(::getpid()) + ".sock";
  std::string Err;
  auto L = listenUnixSocket(Path, &Err);
  ASSERT_TRUE(L) << Err;
  FleetServer Server(P, Opts);
  std::thread Serve([&] { Server.serve(*L); });

  uint64_t Checksum = 0;
  auto Remote = makeUnixSocketClient(Path, &Err, &Checksum);
  ASSERT_TRUE(Remote) << Err;
  EXPECT_EQ(Checksum, programChecksum(P));
  EXPECT_EQ(runWorkload(*Remote, P.spec(), X, Recs, 2), Reference);

  EXPECT_TRUE(Remote->shutdownServer(&Err)) << Err;
  Serve.join();
  EXPECT_TRUE(Server.shutdownRequested());
}

namespace {

/// Drives the fork workload through \p Client: session 1 gets the head
/// of the trace, forkSession(1, 9) snapshots it into a new lane, and
/// both sessions then receive the identical tail. Returns the rendered
/// finish output.
std::string runForkWorkload(FleetClient &Client, const Spec &S, StreamId X,
                            const std::vector<Rec> &Recs, Time SplitTs) {
  std::string Err;
  {
    auto Prod = Client.producer(&Err);
    EXPECT_TRUE(Prod) << Err;
    if (!Prod)
      return std::string();
    for (const Rec &R : Recs)
      if (R.Session == 1 && R.Ts <= SplitTs)
        EXPECT_TRUE(Prod->feed(R.Session, X, R.Ts, Value::integer(R.V)));
    EXPECT_TRUE(Prod->close()) << Prod->error();
  }
  EXPECT_TRUE(Client.forkSession(1, 9, &Err)) << Err;
  {
    auto Prod = Client.producer(&Err);
    EXPECT_TRUE(Prod) << Err;
    if (!Prod)
      return std::string();
    for (const Rec &R : Recs)
      if (R.Session == 1 && R.Ts > SplitTs) {
        EXPECT_TRUE(Prod->feed(1, X, R.Ts, Value::integer(R.V)));
        EXPECT_TRUE(Prod->feed(9, X, R.Ts, Value::integer(R.V)));
      }
    EXPECT_TRUE(Prod->close()) << Prod->error();
  }
  auto R = Client.finish(&Err);
  EXPECT_TRUE(R) << Err;
  if (!R)
    return std::string();
  EXPECT_EQ(R->FailedSessions, 0u);
  return renderFinish(S, *R);
}

} // namespace

TEST(FleetServiceTest, ForkSessionMatchesReplayInProcessAndOverTheWire) {
  Program P = compileOrDie(seenSet(), true, 1);
  StreamId X = *P.spec().lookup("x");
  std::vector<Rec> Recs = workloadTrace(1, 40);
  const Time SplitTs = 20;

  // Replay reference: two independent sessions each fed the *full*
  // trace. A fork at the split must be indistinguishable from this —
  // the forked lane replays the head via its copied recorded outputs
  // and then diverges-by-zero on the identical tail.
  FleetOptions Opts;
  Opts.Shards = 2;
  std::string Reference;
  {
    auto Client = makeInProcessClient(P, Opts);
    std::string Err;
    auto Prod = Client->producer(&Err);
    ASSERT_TRUE(Prod) << Err;
    for (const Rec &R : Recs) {
      ASSERT_TRUE(Prod->feed(1, X, R.Ts, Value::integer(R.V)));
      ASSERT_TRUE(Prod->feed(9, X, R.Ts, Value::integer(R.V)));
    }
    ASSERT_TRUE(Prod->close()) << Prod->error();
    auto R = Client->finish(&Err);
    ASSERT_TRUE(R) << Err;
    Reference = renderFinish(P.spec(), *R);
  }
  ASSERT_FALSE(Reference.empty());

  auto InProc = makeInProcessClient(P, Opts);
  EXPECT_EQ(runForkWorkload(*InProc, P.spec(), X, Recs, SplitTs), Reference);

  PipeServer Server(P, Opts);
  std::string Err;
  auto Remote = makeRemoteClient(Server.dialer(), &Err);
  ASSERT_TRUE(Remote) << Err;
  EXPECT_EQ(runForkWorkload(*Remote, P.spec(), X, Recs, SplitTs), Reference);
}

TEST(FleetServiceTest, ForkErrorPathsInProcessAndOverTheWire) {
  Program P = compileOrDie(seenSet(), true, 1);
  StreamId X = *P.spec().lookup("x");

  // In-process: rejections are synchronous and the client survives.
  auto Client = makeInProcessClient(P);
  std::string Err;
  {
    auto Prod = Client->producer(&Err);
    ASSERT_TRUE(Prod) << Err;
    ASSERT_TRUE(Prod->feed(1, X, 1, Value::integer(3)));
    ASSERT_TRUE(Prod->close());
  }
  EXPECT_FALSE(Client->forkSession(2, 3, &Err));
  EXPECT_NE(Err.find("not live"), std::string::npos) << Err;
  EXPECT_FALSE(Client->forkSession(1, 1, &Err));
  EXPECT_NE(Err.find("differ"), std::string::npos) << Err;
  ASSERT_TRUE(Client->forkSession(1, 2, &Err)) << Err;
  EXPECT_FALSE(Client->forkSession(1, 2, &Err));
  EXPECT_NE(Err.find("already live"), std::string::npos) << Err;
  auto R = Client->finish(&Err);
  ASSERT_TRUE(R) << Err;

  // Over the wire: a failed fork elicits an Error frame, and wire
  // errors are fatal per connection (same contract as every other
  // control operation).
  PipeServer Server(P);
  auto Remote = makeRemoteClient(Server.dialer(), &Err);
  ASSERT_TRUE(Remote) << Err;
  EXPECT_FALSE(Remote->forkSession(5, 6, &Err));
  EXPECT_NE(Err.find("not live"), std::string::npos) << Err;
  EXPECT_FALSE(Remote->statsText(&Err));
}
