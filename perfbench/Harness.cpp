//===- perfbench/Harness.cpp ------------------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sys/resource.h>

using namespace perfbench;

namespace {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

thread_local std::vector<uint32_t> OpenSpans;

} // namespace

Tracer &Tracer::get() {
  static Tracer T;
  return T;
}

uint32_t Tracer::begin(const char *Name) {
  if (!Enabled)
    return 0;
  Span S;
  S.Name = Name;
  S.Parent = OpenSpans.empty() ? 0 : OpenSpans.back();
  S.StartNs = nowNs();
  std::lock_guard<std::mutex> Lock(Mu);
  S.Id = static_cast<uint32_t>(Spans.size() + 1);
  Spans.push_back(S);
  OpenSpans.push_back(S.Id);
  return S.Id;
}

void Tracer::end(uint32_t Id) {
  if (Id == 0)
    return;
  int64_t End = nowNs();
  if (!OpenSpans.empty() && OpenSpans.back() == Id)
    OpenSpans.pop_back();
  std::lock_guard<std::mutex> Lock(Mu);
  Spans[Id - 1].EndNs = End;
}

double Tracer::total(const char *Name, size_t Since) const {
  std::lock_guard<std::mutex> Lock(Mu);
  int64_t Ns = 0;
  for (size_t I = Since; I < Spans.size(); ++I)
    if (Spans[I].EndNs != 0 && std::strcmp(Spans[I].Name, Name) == 0)
      Ns += Spans[I].EndNs - Spans[I].StartNs;
  return static_cast<double>(Ns) * 1e-9;
}

size_t Tracer::mark() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Spans.size();
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::lock_guard<std::mutex> Lock(Mu);
  for (const Span &S : Spans)
    std::fprintf(F,
                 "{\"id\": %u, \"parent\": %u, \"name\": \"%s\", "
                 "\"start_ns\": %" PRId64 ", \"end_ns\": %" PRId64 "}\n",
                 S.Id, S.Parent, S.Name, S.StartNs, S.EndNs);
  return std::fclose(F) == 0;
}

void OutputDigest::add(tessla::Time Ts, tessla::StreamId Stream,
                       const tessla::Value &V) {
  auto Mix = [this](const void *Data, size_t Size) {
    const auto *P = static_cast<const unsigned char *>(Data);
    for (size_t I = 0; I != Size; ++I) {
      Hash ^= P[I];
      Hash *= 1099511628211ull;
    }
  };
  int64_t T = Ts;
  uint64_t Id = Stream;
  auto Kind = static_cast<uint8_t>(V.kind());
  Mix(&T, sizeof T);
  Mix(&Id, sizeof Id);
  Mix(&Kind, sizeof Kind);
  switch (V.kind()) {
  case tessla::Value::Kind::Unit:
    break;
  case tessla::Value::Kind::Bool: {
    uint8_t B = V.getBool();
    Mix(&B, sizeof B);
    break;
  }
  case tessla::Value::Kind::Int: {
    int64_t I = V.getInt();
    Mix(&I, sizeof I);
    break;
  }
  case tessla::Value::Kind::Float: {
    double D = V.getFloat();
    Mix(&D, sizeof D);
    break;
  }
  case tessla::Value::Kind::String:
    Mix(V.getString().data(), V.getString().size());
    break;
  default: { // aggregates: the canonical (sorted) rendering
    std::string S = V.str();
    Mix(S.data(), S.size());
    break;
  }
  }
  ++Count;
}

double perfbench::median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  return N % 2 ? Values[N / 2] : (Values[N / 2 - 1] + Values[N / 2]) / 2;
}

double perfbench::peakRssMiB() {
  struct rusage RU;
  std::memset(&RU, 0, sizeof RU);
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

void perfbench::printResult(bool Correct, uint64_t Attempted,
                            uint64_t Failed,
                            const std::vector<Metric> &Metrics) {
  std::string Line = "{\"correct\": ";
  Line += Correct ? "true" : "false";
  Line += ", \"attempted\": " + std::to_string(Attempted);
  Line += ", \"failed\": " + std::to_string(Failed);
  Line += ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I) {
    char Num[64];
    double V = std::isfinite(Metrics[I].Value) ? Metrics[I].Value : 0.0;
    std::snprintf(Num, sizeof Num, "%.17g", V);
    if (I)
      Line += ", ";
    Line += "\"" + Metrics[I].Name + "\": {\"value\": " + Num +
            ", \"unit\": \"" + Metrics[I].Unit + "\"}";
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  std::fflush(stdout);
}
