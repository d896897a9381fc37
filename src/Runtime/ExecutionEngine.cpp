//===- Runtime/ExecutionEngine.cpp ------------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "tessla/Runtime/ExecutionEngine.h"

#include "tessla/Runtime/BatchedMonitor.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

using namespace tessla;

EngineLaneState ShardEngine::extractLane(unsigned) {
  std::fprintf(stderr,
               "tessla: extractLane() on a '%s' engine, which does not "
               "support migration\n",
               name());
  std::abort();
}

unsigned ShardEngine::insertLane(EngineLaneState) {
  std::fprintf(stderr,
               "tessla: insertLane() on a '%s' engine, which does not "
               "support migration\n",
               name());
  std::abort();
}

EngineLaneState ShardEngine::snapshotLane(unsigned) const {
  std::fprintf(stderr,
               "tessla: snapshotLane() on a '%s' engine, which does not "
               "support migration\n",
               name());
  std::abort();
}

namespace {

/// The reference engine: one interpreter Monitor per lane. Eager —
/// records are validated and applied at feed() time, so pump() is a
/// no-op and lanes are always idle.
class PerSessionShardEngine final : public ShardEngine {
public:
  PerSessionShardEngine(const Program &Prog, bool CollectOutputs)
      : Prog(Prog), CollectOutputs(CollectOutputs) {}

  unsigned addLane(SessionId Session) override {
    unsigned L = allocLane(Session);
    Lanes[L].M = std::make_unique<Monitor>(Prog);
    attachHandler(L);
    return L;
  }

  bool feed(unsigned Lane, StreamId Input, Time Ts, Value V) override {
    return Lanes[Lane].M->feed(Input, Ts, std::move(V));
  }

  void pump() override {}

  void finishAll(std::optional<Time> Horizon) override {
    for (LaneSlot &Slot : Lanes)
      if (Slot.Live)
        Slot.M->finish(Horizon);
  }

  bool supportsMigration() const override { return true; }

  EngineLaneState extractLane(unsigned Lane) override {
    LaneSlot &Slot = Lanes[Lane];
    assert(Slot.Live && "extractLane() targets a live lane");
    EngineLaneState S;
    Slot.M->extractState(S);
    S.Session = Slot.Session;
    S.Outputs = std::move(*Slot.Outputs);
    Slot.M.reset();
    Slot.Outputs.reset();
    Slot.Live = false;
    --NumLive;
    FreeLanes.push_back(Lane);
    return S;
  }

  EngineLaneState snapshotLane(unsigned Lane) const override {
    const LaneSlot &Slot = Lanes[Lane];
    assert(Slot.Live && "snapshotLane() targets a live lane");
    EngineLaneState S;
    Slot.M->snapshotState(S);
    S.Session = Slot.Session;
    S.Outputs = *Slot.Outputs; // Value handles shared, not deep-copied
    return S;
  }

  void visitValues(
      const std::function<void(const Value &)> &Fn) const override {
    for (const LaneSlot &Slot : Lanes) {
      if (!Slot.Live)
        continue;
      Slot.M->visitValues(Fn);
      for (const OutputEvent &E : *Slot.Outputs)
        Fn(E.V);
    }
  }

  unsigned insertLane(EngineLaneState S) override {
    unsigned L = allocLane(S.Session);
    LaneSlot &Slot = Lanes[L];
    Slot.M = std::make_unique<Monitor>(Prog);
    Slot.M->restoreState(S);
    *Slot.Outputs = std::move(S.Outputs);
    attachHandler(L);
    // A buffering engine may hand over unconsumed records; this engine
    // is eager, so apply them now — feed() runs the same validation the
    // donor had merely deferred.
    for (EnginePendingRecord &R : S.Queue)
      if (!Slot.M->feed(R.Input, R.Ts, std::move(R.V)))
        break;
    return L;
  }

  SessionId laneSession(unsigned Lane) const override {
    return Lanes[Lane].Session;
  }
  bool laneFailed(unsigned Lane) const override {
    return Lanes[Lane].M->failed();
  }
  const std::string &laneError(unsigned Lane) const override {
    return Lanes[Lane].M->errorMessage();
  }
  uint64_t laneInputEvents(unsigned Lane) const override {
    return Lanes[Lane].M->inputEvents();
  }
  uint64_t laneOutputEvents(unsigned Lane) const override {
    return Lanes[Lane].M->outputEvents();
  }
  uint64_t laneInPlaceHits(unsigned Lane) const override {
    return Lanes[Lane].M->inPlaceHits();
  }
  uint64_t laneInPlaceMisses(unsigned Lane) const override {
    return Lanes[Lane].M->inPlaceMisses();
  }
  bool laneIdle(unsigned) const override { return true; }

  std::vector<OutputEvent> takeLaneOutputs(unsigned Lane) override {
    return std::move(*Lanes[Lane].Outputs);
  }

  size_t laneCount() const override { return NumLive; }
  const char *name() const override { return "per-session"; }

private:
  struct LaneSlot {
    std::unique_ptr<Monitor> M;
    // Stable address: the output handler captures the vector across
    // Lanes reallocation.
    std::unique_ptr<std::vector<OutputEvent>> Outputs;
    SessionId Session = 0;
    bool Live = false;
  };

  const Program &Prog;
  const bool CollectOutputs;
  std::vector<LaneSlot> Lanes;
  std::vector<unsigned> FreeLanes;
  size_t NumLive = 0;

  unsigned allocLane(SessionId Session) {
    unsigned L;
    if (!FreeLanes.empty()) {
      L = FreeLanes.back();
      FreeLanes.pop_back();
    } else {
      L = static_cast<unsigned>(Lanes.size());
      Lanes.emplace_back();
    }
    Lanes[L].Session = Session;
    Lanes[L].Live = true;
    Lanes[L].Outputs = std::make_unique<std::vector<OutputEvent>>();
    ++NumLive;
    return L;
  }

  void attachHandler(unsigned Lane) {
    if (!CollectOutputs)
      return; // the monitor still counts outputs without a handler
    std::vector<OutputEvent> *Out = Lanes[Lane].Outputs.get();
    Lanes[Lane].M->setOutputHandler(
        [Out](Time Ts, StreamId Id, const Value &V) {
          // Borrowed handler value; recording requires a deep copy.
          Out->push_back({Ts, Id, V.deepCopy()});
        });
  }
};

} // namespace

std::unique_ptr<ShardEngine> tessla::makePerSessionEngine(const Program &Prog,
                                                          bool CollectOutputs) {
  return std::make_unique<PerSessionShardEngine>(Prog, CollectOutputs);
}

std::unique_ptr<ShardEngine> tessla::makeBatchedEngine(const Program &Prog,
                                                       bool CollectOutputs) {
  return std::make_unique<BatchedMonitor>(Prog, CollectOutputs);
}

std::vector<OutputEvent> tessla::runEngineSingle(ShardEngine &Engine,
                                                 const EventBatch &Batch,
                                                 std::optional<Time> Horizon,
                                                 std::string *ErrorOut) {
  unsigned Lane = Engine.addLane(Batch.Records.empty()
                                     ? SessionId(0)
                                     : Batch.Records.front().Session);
  for (const EventRecord &R : Batch.Records)
    if (!Engine.feed(Lane, R.Input, R.Ts, R.V))
      break;
  Engine.finishAll(Horizon);
  if (ErrorOut)
    *ErrorOut = Engine.laneFailed(Lane) ? Engine.laneError(Lane) : "";
  return Engine.takeLaneOutputs(Lane);
}
