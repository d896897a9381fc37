//===- Runtime/RecordCheck.cpp ----------------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "tessla/Runtime/RecordCheck.h"

#include "tessla/Runtime/Containers.h"
#include "tessla/Support/Format.h"

#include <limits>

using namespace tessla;

namespace {

/// Describes the part of \p V that does not conform to \p T ("Int",
/// "Set of String", "Map with value Bool"), or "" when it conforms.
std::string mismatch(const Type &T, const Value &V) {
  if (T.isVar())
    return "";
  if (static_cast<uint8_t>(T.kind()) != static_cast<uint8_t>(V.kind()))
    return std::string(valueKindName(V.kind()));
  std::string Found;
  auto Check = [&Found](const Type &ET, const Value &E, const char *What) {
    if (Found.empty())
      if (std::string M = mismatch(ET, E); !M.empty())
        Found = What + M;
  };
  switch (V.kind()) {
  case Value::Kind::Set:
    V.asSet().forEach(
        [&](const Value &E) { Check(T.params()[0], E, "Set of "); });
    break;
  case Value::Kind::Queue:
    V.asQueue().forEach(
        [&](const Value &E) { Check(T.params()[0], E, "Queue of "); });
    break;
  case Value::Kind::Map:
    V.asMap().forEach([&](const Value &K, const Value &E) {
      Check(T.params()[0], K, "Map with key ");
      Check(T.params()[1], E, "Map with value ");
    });
    break;
  default:
    break;
  }
  return Found;
}

} // namespace

bool tessla::conformsDeep(const Type &T, const Value &V) {
  return mismatch(T, V).empty();
}

std::string tessla::mistypedMessage(const Type &T, const Value &V) {
  return "expected " + T.str() + ", got " + mismatch(T, V);
}

std::string tessla::failureAt(const Spec &S, Time Ts, StreamId Id,
                              const std::string &Message) {
  return formatString("at t=%lld, stream '%s': %s",
                      static_cast<long long>(Ts), S.stream(Id).Name.c_str(),
                      Message.c_str());
}

std::string tessla::describeRecordFault(const Program &Prog,
                                        RecordFault Fault, StreamId Input,
                                        Time Ts, const Value &V) {
  const Spec &S = Prog.spec();
  switch (Fault) {
  case RecordFault::None:
    break;
  case RecordFault::AfterFinish:
    return "feed() after finish()";
  case RecordFault::NegativeTime:
    return failureAt(S, Ts, Input, "timestamps must be non-negative");
  case RecordFault::OutOfOrder:
    return failureAt(S, Ts, Input,
                     "input events must arrive in timestamp order");
  case RecordFault::Mistyped:
    return failureAt(S, Ts, Input, mistypedMessage(S.stream(Input).Ty, V));
  case RecordFault::Duplicate:
    return failureAt(S, Ts, Input,
                     "two events on one stream at the same timestamp");
  }
  return "";
}

Time tessla::drainBound(std::optional<Time> Horizon) {
  if (!Horizon || *Horizon == std::numeric_limits<Time>::max())
    return std::numeric_limits<Time>::max();
  return *Horizon + 1;
}
