//===- bench/online_serve.cpp - Online serving vs the batch oracle ----------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
// Benchmarks the online serving subsystem (docs/SERVING.md) on a fixed
// two-nest program (3200 iterations; DRA_BENCH_SCALE is ignored):
//
//   1. self-gates the batch-oracle contract: a whole-app-in-one-tick
//      session must produce a byte-identical report (its ledger and
//      attribution sections included) and flame export to the batch
//      Pipeline for every scheme — any byte of disagreement exits
//      nonzero, so CI fails even without the JSON gate;
//   2. prints the tick-budget amortization table: total and per-tick wall
//      time of budgeted incremental serving against the one-shot batch
//      compile, plus the simulated energy each schedule costs;
//   3. emits a dra-report-v1 artifact (DRA_BENCH_JSON) of the one-tick
//      serve runs, gated in CI against bench/baselines — the serving path
//      must not move a single simulated number.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "frontend/Parser.h"
#include "serve/SessionRunner.h"

#include <chrono>
#include <functional>
#include <iostream>

using namespace dra;

namespace {

// Two nests whose consumer iteration (i0,i1) depends on producer (i1,i0):
// restructuring has real freedom and incremental ticks have real
// dependence gating. 2 x 40 x 40 = 3200 iterations.
const char *Source = R"(program online
array A[40][40]
array B[40][40]
nest producer compute 2.0 {
  for i0 = 0 .. 39
  for i1 = 0 .. 39
  read A[i0][i1]
  write B[i0][i1]
}
nest consumer compute 2.0 {
  for i0 = 0 .. 39
  for i1 = 0 .. 39
  read B[i1][i0]
  write A[i0][i1]
}
)";

constexpr uint64_t NumIters = 3200;
constexpr uint64_t IterPerFrame = 512; // Arrival chunk in the budgeted runs.

StreamSession makeSession(const char *Scheme, uint64_t Budget) {
  StreamSession S;
  S.ProgramSource = Source;
  S.Config.SchemeName = Scheme;
  S.Config.StripeFactor = 8;
  S.Config.StripeUnitKb = 32;
  S.Config.TickBudget = Budget;
  uint64_t Tick = 0;
  for (uint64_t First = 0; First < NumIters; First += IterPerFrame) {
    StreamFrame F;
    F.Tick = Tick++;
    StreamRequest R;
    R.Op = StreamOp::Exec;
    R.First = First;
    R.Count = std::min(IterPerFrame, NumIters - First);
    F.Requests.push_back(R);
    S.Frames.push_back(F);
    if (Budget == 0)
      break; // Oracle shape: the whole app in one tick.
  }
  if (Budget == 0)
    S.Frames[0].Requests[0].Count = NumIters;
  return S;
}

double wallMs(const std::function<void()> &F) {
  auto T0 = std::chrono::steady_clock::now();
  F();
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(T1 - T0).count();
}

SessionResult runServe(const StreamSession &S, PipelineConfig &CfgOut) {
  DiagnosticEngine DE;
  StreamingConsumer Err(std::cerr);
  DE.addConsumer(&Err);
  SessionRunner Runner(S, DE);
  SessionResult R = Runner.run();
  if (!R.Ok) {
    std::fprintf(stderr, "online_serve: session failed\n");
    std::exit(1);
  }
  CfgOut = Runner.pipelineConfig();
  return R;
}

} // namespace

int main() {
  std::printf("online serving bench: %llu iterations, stripe 8 x 32 KB\n\n",
              (unsigned long long)NumIters);

  // Part 1: batch-oracle byte-identity across every power scheme.
  std::printf("one-tick serve vs batch pipeline (byte-identity gate):\n");
  std::string Error;
  std::optional<Program> P = Parser::parse(Source, Error);
  if (!P) {
    std::fprintf(stderr, "online_serve: program parse failed: %s\n",
                 Error.c_str());
    return 1;
  }
  std::vector<SchemeRun> OneTickRuns;
  PipelineConfig Cfg;
  std::string FootprintJson;
  for (const char *SchemeStr : {"Base", "TPM", "DRPM", "T-TPM-s", "T-DRPM-s"}) {
    SessionResult R = runServe(makeSession(SchemeStr, 0), Cfg);
    Scheme Sch;
    if (!schemeByName(SchemeStr, Sch)) {
      std::fprintf(stderr, "online_serve: unknown scheme %s\n", SchemeStr);
      return 1;
    }
    Pipeline Pipe(*P, Cfg);
    AppResults ServeApp{"online", {R.Run}, R.FootprintJson};
    AppResults BatchApp{"online", {Pipe.run(Sch)},
                        Pipe.footprint().renderJson()};
    struct Export {
      const char *Name;
      std::string Serve, Batch;
    } Exports[] = {
        {"report", renderRunReportJson(Cfg, {ServeApp}, "gate"),
         renderRunReportJson(Cfg, {BatchApp}, "gate")},
        {"flame", renderAttribFlame({ServeApp}), renderAttribFlame({BatchApp})},
    };
    for (const Export &E : Exports) {
      if (E.Serve != E.Batch) {
        std::fprintf(stderr,
                     "online_serve: FAIL %s: %s export differs from the "
                     "batch oracle (%zu vs %zu bytes)\n",
                     SchemeStr, E.Name, E.Serve.size(), E.Batch.size());
        return 1;
      }
    }
    std::printf("  %-9s identical (report, flame); %.1f J\n",
                SchemeStr, R.Run.Sim.EnergyJ);
    OneTickRuns.push_back(R.Run);
    FootprintJson = R.FootprintJson;
  }

  // Part 2: tick-budget amortization. The batch compile is the floor; each
  // budgeted run pays per-tick subgraph builds and scheduler invocations.
  std::printf("\ntick-budget amortization (T-TPM-s, %llu-iteration frames):\n",
              (unsigned long long)IterPerFrame);
  Scheme Sch;
  schemeByName("T-TPM-s", Sch);
  double BatchMs = wallMs([&] {
    Pipeline Pipe(*P, Cfg);
    (void)Pipe.run(Sch);
  });
  std::printf("  %-12s %8s %12s %14s %10s\n", "budget", "ticks", "total ms",
              "ms per tick", "energy J");
  std::printf("  %-12s %8s %12.2f %14s %10s\n", "batch", "-", BatchMs, "-",
              "-");
  for (uint64_t Budget : {uint64_t(0), uint64_t(1024), uint64_t(256),
                          uint64_t(64)}) {
    SessionResult R;
    double Ms = wallMs([&] { R = runServe(makeSession("T-TPM-s", Budget), Cfg); });
    std::printf("  %-12llu %8zu %12.2f %14.3f %10.1f\n",
                (unsigned long long)Budget, R.Ticks.size(), Ms,
                Ms / double(R.Ticks.size()), R.Run.Sim.EnergyJ);
  }

  // Part 3: dra-report-v1 artifact of the one-tick runs for the CI
  // regression gate (same numbers the identity gate just proved equal to
  // the batch pipeline's).
  if (std::getenv("DRA_BENCH_JSON")) {
    AppResults App{"online", OneTickRuns, FootprintJson};
    std::string Path =
        writeArtifact(std::getenv("DRA_BENCH_JSON"), "online_serve", "json",
                      renderRunReportJson(Cfg, {App}, "online_serve"));
    std::printf("\n(run report written to %s)\n", Path.c_str());
  }
  return 0;
}
