//===- tessla/Runtime/TraceIO.h - Textual event traces ---------*- C++ -*-===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reading and writing TeSSLa-style textual traces, one event per line:
///
/// \code
///   0: i = 7
///   3: i = 9
///   3: ready = ()
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef TESSLA_RUNTIME_TRACEIO_H
#define TESSLA_RUNTIME_TRACEIO_H

#include "tessla/Runtime/Monitor.h"
#include "tessla/Support/Diagnostics.h"

#include <tuple>

namespace tessla {

/// One parsed/generated input event.
using TraceEvent = std::tuple<StreamId, Time, Value>;

/// Identifies one monitoring session (e.g. one user/connection) in the
/// multi-session runtime (Runtime/MonitorFleet.h). Single-session
/// helpers use session 0.
using SessionId = uint64_t;

/// One input record as it travels through the ingestion machinery: a
/// trace event attributed to its session. This is the single record
/// shape shared by the sequential replay helpers below and by the
/// fleet's producer rings — there is deliberately no second,
/// fleet-internal representation.
struct EventRecord {
  SessionId Session = 0;
  StreamId Input = 0;
  Time Ts = 0;
  Value V;
};

/// The shared ingestion batch: a run of records plus the two fields the
/// fleet's fan-in needs on the wire. `Seq` is the batch's position in
/// the fleet-wide hand-off order (monotone per producer; shards merge
/// producer rings by ascending Seq), `Close` marks a producer's
/// end-of-input sentinel. Sequential consumers ignore both.
struct EventBatch {
  std::vector<EventRecord> Records;
  uint64_t Seq = 0;
  bool Close = false;

  bool empty() const { return Records.empty(); }
  size_t size() const { return Records.size(); }
  void clear() {
    Records.clear();
    Close = false;
  }
};

/// Wraps time-ordered trace events into one batch attributed to
/// \p Session.
EventBatch toBatch(const std::vector<TraceEvent> &Events,
                   SessionId Session = 0);

/// Feeds every record of \p B into \p M in order (sessions are ignored;
/// the caller picked the monitor). Stops early and returns false once
/// the monitor fails.
bool feedBatch(Monitor &M, const EventBatch &B);

/// Runs one batch through a fresh monitor over \p Prog, collecting
/// deep-copied outputs — the EventBatch flavour of runMonitor()
/// (Runtime/Monitor.h).
std::vector<OutputEvent>
runMonitor(const Program &Prog, const EventBatch &Batch,
           std::optional<Time> Horizon = std::nullopt,
           std::string *ErrorOut = nullptr);

/// Parses a textual trace against \p S's input streams. Events must be
/// listed in non-decreasing timestamp order (checked by the monitor, not
/// here). Lines that are empty or start with '#'/"--" are skipped. An
/// integral literal on a Float input reads as a Float. Returns nullopt
/// and reports through \p Diags on malformed lines, unknown stream names
/// and values of the wrong type.
std::optional<std::vector<TraceEvent>>
parseTrace(std::string_view Text, const Spec &S, DiagnosticEngine &Diags);

/// Parses one scalar value literal (42, 1.5, true, "s", ()).
std::optional<Value> parseValueLiteral(std::string_view Text);

/// Renders one output event as "ts: name = value".
std::string formatEvent(const Spec &S, const OutputEvent &E);

/// Renders a whole output trace, one event per line.
std::string formatOutputs(const Spec &S,
                          const std::vector<OutputEvent> &Events);

} // namespace tessla

#endif // TESSLA_RUNTIME_TRACEIO_H
