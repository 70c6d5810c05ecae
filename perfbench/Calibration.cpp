//===- perfbench/Calibration.cpp - Host speed reference kernel --------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
//
// A fixed piece of work that mixes what the pipeline spends its time on:
// an event queue of doubles (the simulator), read-modify-writes spread over
// a table larger than the caches (per-disk state), small allocations in a
// node-based map (graph and attribution bookkeeping), a sort (compile
// passes) and shortest round-trip double formatting (JSON export). Every
// slice does exactly the same work, so a slice's time measures only how
// fast the host runs right now. The kernel is part of the benchmark, not
// of the library, so no change to src/ moves it.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <queue>
#include <random>

using namespace perfbench;

namespace {

/// 4 MiB of uint32_t: past a core's L2, well inside the shared L3.
constexpr size_t TableWords = size_t(1) << 20;

double slice() {
  static std::vector<uint32_t> Table(TableWords, 1);
  std::mt19937_64 Rng(12345);
  std::uniform_real_distribution<double> Unit(0.0, 1.0);
  uint64_t Sink = 0;

  std::priority_queue<double, std::vector<double>, std::greater<>> Events;
  for (int I = 0; I != 3000; ++I) {
    Events.push(Unit(Rng) * 1000.0);
    if (I % 3 == 2) {
      Sink += uint64_t(Events.top());
      Events.pop();
    }
  }

  for (int I = 0; I != 16000; ++I) {
    uint32_t &W = Table[Rng() & (TableWords - 1)];
    W = W * 33 + uint32_t(I);
    Sink += W;
  }

  std::map<uint32_t, double> Nodes;
  for (int I = 0; I != 1500; ++I)
    Nodes[uint32_t(Rng() % 5000)] += Unit(Rng);
  for (auto It = Nodes.begin(); It != Nodes.end();)
    It = (It->first & 1) ? Nodes.erase(It) : std::next(It);
  Sink += Nodes.size();

  std::vector<uint64_t> Keys(5000);
  for (uint64_t &K : Keys)
    K = Rng();
  std::sort(Keys.begin(), Keys.end());
  Sink += Keys[Keys.size() / 2];

  std::string Text;
  char Buf[32];
  for (int I = 0; I != 800; ++I) {
    int N = std::snprintf(Buf, sizeof(Buf), "%.17g,", Unit(Rng) * 1e4);
    Text.append(Buf, size_t(N));
  }
  Sink += Text.size();
  return double(Sink);
}

} // namespace

double perfbench::calibrationSliceMs() {
  auto T0 = Clock::now();
  volatile double Sink = slice();
  (void)Sink;
  return msSince(T0);
}
