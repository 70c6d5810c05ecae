//===- perfbench/Support.cpp - Spans, checks and hashing --------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cassert>
#include <cmath>
#include <cstdio>

using namespace perfbench;

SpanRecorder::SpanRecorder() {
  Pid = Tracer.addProcess("perfbench");
  Tracer.nameThread(Pid, 0, "client");
}

void SpanRecorder::begin(const char *Name) {
  const bool Counting = setAllocCounting(false);
  Span S;
  S.Name = Name;
  size_t Dot = S.Name.find('.');
  if (Dot != std::string::npos)
    S.Layer = S.Name.substr(0, Dot);
  S.Parent = Open.empty() ? -1 : Open.back();
  Open.push_back(int(Spans.size()));
  Spans.push_back(std::move(S));
  Spans.back().Allocs = allocCount();
  Spans.back().StartUs = Tracer.nowUs();
  setAllocCounting(Counting);
}

void SpanRecorder::end() {
  assert(!Open.empty() && "end() without begin()");
  const bool Counting = setAllocCounting(false);
  Span &S = Spans[size_t(Open.back())];
  S.EndUs = Tracer.nowUs();
  S.Allocs = allocCount() - S.Allocs;
  Open.pop_back();
  std::vector<dra::TraceArg> Args{dra::TraceArg::num("allocs", S.Allocs)};
  if (S.Parent >= 0)
    Args.push_back(dra::TraceArg::str("parent", Spans[size_t(S.Parent)].Name));
  Tracer.completeEvent(Pid, 0, S.Name, S.Layer.empty() ? S.Name : S.Layer,
                       S.StartUs, S.EndUs - S.StartUs, std::move(Args));
  setAllocCounting(Counting);
}

void Checks::expect(bool Ok, const std::string &What) {
  if (!Ok)
    Failures.push_back(What);
}

void Checks::near(double Got, double Want, const std::string &What) {
  double Scale = std::max(std::fabs(Got), std::fabs(Want));
  if (std::fabs(Got - Want) <= 1e-6 * Scale)
    return;
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf), ": got %.17g, want %.17g", Got, Want);
  Failures.push_back(What + Buf);
}

uint64_t perfbench::fnv1a(const void *Data, size_t Bytes, uint64_t H) {
  const auto *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I != Bytes; ++I) {
    H ^= P[I];
    H *= 1099511628211ull;
  }
  return H;
}

std::string perfbench::hex64(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx", static_cast<unsigned long long>(V));
  return Buf;
}
