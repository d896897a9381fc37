//===- tessla/Runtime/RecordCheck.h - Input record admission ---*- C++ -*-===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one check every engine runs on an input record before it touches
/// lane state, and the one rendering of every lane failure. Monitor::feed,
/// BatchedMonitor's deferred record loop and the native shim's feed all
/// call checkRecord() with their lane's input cursor and report a fault
/// through describeRecordFault(), so the engines agree on failure points
/// and messages by construction rather than by mirroring each other.
///
//===----------------------------------------------------------------------===//

#ifndef TESSLA_RUNTIME_RECORDCHECK_H
#define TESSLA_RUNTIME_RECORDCHECK_H

#include "tessla/Lang/Spec.h"
#include "tessla/Program/Program.h"

#include <optional>
#include <string>

namespace tessla {

/// Why an engine rejects an input record, in check order.
enum class RecordFault : uint8_t {
  None,
  AfterFinish,  ///< the lane already finished
  NegativeTime, ///< a timestamp below 0
  OutOfOrder,   ///< a timestamp below the lane's pending one
  Mistyped,     ///< the value does not conform to the input's type
  Duplicate,    ///< a second event on one stream at one timestamp
};

/// Whether \p V has the shape of type \p T, elements included.
/// Unresolved type variables accept anything.
bool conformsDeep(const Type &T, const Value &V);

/// conformsDeep() with the scalar case inline: a scalar input pays one
/// kind compare.
inline bool conformsTo(const Type &T, const Value &V) {
  static_assert(static_cast<uint8_t>(TypeKind::Queue) ==
                    static_cast<uint8_t>(Value::Kind::Queue),
                "TypeKind and Value::Kind share their order");
  if (static_cast<uint8_t>(T.kind()) == static_cast<uint8_t>(V.kind()) &&
      !V.isAggregate())
    return true;
  return conformsDeep(T, V);
}

/// Checks the record (\p Input, \p Ts, \p V) against a lane whose input
/// cursor is \p PendingTs (the timestamp collecting inputs) and
/// \p CalcDone (its calculation already ran). \p SlotPresent tells
/// whether \p Input already has an event at \p PendingTs.
inline RecordFault checkRecord(const Program &Prog, bool Finished,
                               StreamId Input, Time Ts, const Value &V,
                               Time PendingTs, bool CalcDone,
                               bool SlotPresent) {
  if (Finished)
    return RecordFault::AfterFinish;
  if (Ts < 0)
    return RecordFault::NegativeTime;
  if (Ts < PendingTs || (CalcDone && Ts == PendingTs))
    return RecordFault::OutOfOrder;
  if (!conformsTo(Prog.spec().stream(Input).Ty, V))
    return RecordFault::Mistyped;
  if (Ts == PendingTs && SlotPresent)
    return RecordFault::Duplicate;
  return RecordFault::None;
}

/// Renders a lane failure at timestamp \p Ts of stream \p Id:
/// `at t=<Ts>, stream '<name>': <Message>`.
std::string failureAt(const Spec &S, Time Ts, StreamId Id,
                      const std::string &Message);

/// Renders \p Fault, which checkRecord() reported for the record
/// (\p Input, \p Ts, \p V).
std::string describeRecordFault(const Program &Prog, RecordFault Fault,
                                StreamId Input, Time Ts, const Value &V);

/// The message of a value that does not conform to type \p T, e.g.
/// "expected Int, got String" (the trace reader's diagnostic, too).
std::string mistypedMessage(const Type &T, const Value &V);

/// finish()'s drain bound: delay firings strictly before it still run.
/// \p Horizon is inclusive; none drains until no delay is armed.
Time drainBound(std::optional<Time> Horizon);

} // namespace tessla

#endif // TESSLA_RUNTIME_RECORDCHECK_H
