//===- bench/sharded_sim.cpp - Sharded simulator scaling bench --------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
// Benchmarks the sharded discrete-event simulator (DESIGN.md Sec. 11) on a
// 1024-disk multi-tenant scenario: four independently generated tenants
// with power-law (Zipf-like) tile heat, merged onto one shared 1024-way
// striped pool via trace/TenantMerge. Three parts:
//
//   1. byte-identity self-gate: for every power policy the 8-shard engine
//      must reproduce the serial SimEngine's report/ledger/attrib/timeline
//      exports byte for byte — any disagreement exits nonzero, so CI fails
//      even without the JSON regression gate;
//   2. the scaling table: serial vs {1,2,4,8}-shard wall time on the TPM
//      policy with full accounting (ledger + attribution). When the host
//      has >= 8 hardware threads and no sanitizer is compiled in, the
//      8-shard run must beat serial by >= 3x (DRA_BENCH_SKIP_SPEEDUP=1
//      disables the gate, e.g. on loaded shared runners); on smaller hosts
//      the table still prints but the gate is skipped — the checked-in
//      bench/sharded_sim.scaling.json carries the reference record;
//   3. artifacts (DRA_BENCH_JSON): a dra-report-v1 document of the serial
//      runs for the CI regression gate (the identity gate just proved the
//      sharded numbers equal), plus sharded_sim.scaling.json with the
//      measured scaling table from this host.
//
// DRA_BENCH_SCALE scales the per-processor request count (default 1.0 =
// 400 requests/processor x 32 processors = 12800 requests).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "ir/ProgramBuilder.h"
#include "obs/Timeline.h"
#include "sim/ShardedSimEngine.h"
#include "sim/SimEngine.h"
#include "support/Json.h"
#include "trace/TenantMerge.h"

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <functional>
#include <random>

using namespace dra;

namespace {

constexpr unsigned NumDisks = 1024;
constexpr unsigned NumTenants = 4;
constexpr unsigned ProcsPerTenant = 8;
constexpr int64_t TilesPerTenant = 4096;
constexpr unsigned NumPhases = 4;
constexpr uint64_t KiB32 = 32 * 1024;
constexpr uint64_t BlockBytes = 4096;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool Sanitized = true;
#else
constexpr bool Sanitized = false;
#endif

/// One tenant: a 1-D tiled array program striped over all 1024 disks and a
/// closed-loop trace whose tile choice follows a power-law heat curve
/// (U^3 concentrates ~87% of accesses on the first eighth of the file —
/// the skew that makes some shards hot and others idle, the worst case
/// for load balance and the interesting one for scaling).
struct TenantApp {
  Program P;
  DiskLayout Layout;
  Trace Replay;

  TenantApp(const char *Name, const StripingConfig &C, size_t PerProc,
            unsigned Seed)
      : P(makeProgram(Name)), Layout(P, C), Replay(ProcsPerTenant, BlockBytes) {
    std::mt19937 Rng(Seed);
    std::uniform_real_distribution<double> HeatD(0.0, 1.0);
    std::uniform_int_distribution<int> SizeD(1, 3);
    std::uniform_real_distribution<double> ThinkD(0.0, 25.0);
    std::uniform_int_distribution<int> WriteD(0, 4);
    std::uniform_int_distribution<uint32_t> RefD(0, 1);
    for (uint32_t Proc = 0; Proc != ProcsPerTenant; ++Proc) {
      for (size_t I = 0; I != PerProc; ++I) {
        double U = HeatD(Rng);
        // Leave room for the largest (3-tile) request at the array end.
        auto Tile = int64_t(double(TilesPerTenant - 4) * U * U * U);
        Request R;
        R.StartBlock = uint64_t(Tile) * KiB32 / BlockBytes;
        R.SizeBytes = uint64_t(SizeD(Rng)) * KiB32;
        R.IsWrite = WriteD(Rng) == 0;
        R.Proc = Proc;
        R.ThinkMs = ThinkD(Rng);
        R.Phase = uint32_t(I * NumPhases / PerProc);
        if (I % 6 != 5) // every sixth request stays unattributed
          R.Prov = Provenance{0, RefD(Rng), uint32_t(I % 2)};
        Replay.addRequest(R);
      }
    }
  }

  static Program makeProgram(const char *Name) {
    ProgramBuilder B(Name);
    ArrayId U = B.addArray("U", {TilesPerTenant});
    B.beginNest("scan", 1.0).loop(0, TilesPerTenant).read(U, {iv(0)}).endNest();
    return B.build();
  }
};

double wallMs(const std::function<void()> &F) {
  auto T0 = std::chrono::steady_clock::now();
  F();
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(T1 - T0).count();
}

/// Renders everything a run makes observable as one string (same surface
/// tests/sharded_sim_test.cpp gates on): the dra-report-v1 sim section,
/// the dra-ledger-v1 section, the dra-attrib-v1 section and the full
/// dra-timeline-v1 document.
std::string renderObservable(const SimResults &Res, const DiskParams &P,
                             const AttributionNames &Names,
                             const TimelineRecorder &TL) {
  JsonWriter W;
  W.beginObject();
  W.key("report");
  writeSimResultsJson(W, Res);
  W.key("ledger");
  writeLedgerSectionJson(W, Res, P.TpmBreakEvenS);
  SchemeRun R;
  R.Sim = Res;
  R.AttribNames = Names;
  W.key("attrib");
  writeAttributionSectionJson(W, R);
  W.endObject();
  return W.take() + "\n" + renderTimelineJson(TL, "sharded_sim");
}

} // namespace

int main() {
  double Scale = benchScale();
  size_t PerProc = std::max<size_t>(4, size_t(400 * Scale));

  StripingConfig C;
  C.StripeFactor = NumDisks;
  std::vector<TenantApp> Tenants;
  Tenants.reserve(NumTenants);
  const char *Names[NumTenants] = {"olap", "ingest", "backup", "scratch"};
  for (unsigned T = 0; T != NumTenants; ++T)
    Tenants.emplace_back(Names[T], C, PerProc, 1000 + 77 * T);

  std::vector<TenantInput> Inputs(NumTenants);
  for (unsigned T = 0; T != NumTenants; ++T) {
    Inputs[T].Label = Names[T];
    Inputs[T].Prog = &Tenants[T].P;
    Inputs[T].Replay = &Tenants[T].Replay;
    Inputs[T].Layout = &Tenants[T].Layout;
    Inputs[T].Names = attributionNamesOf(Tenants[T].P);
    Inputs[T].StartMs = 250.0 * T;
  }
  MergedWorkload W = mergeTenants(Inputs);

  DiskParams Disk;
  std::printf("sharded sim bench: %u disks, %u tenants x %u procs, "
              "%zu requests (%" PRIu64 " MB)\n\n",
              NumDisks, NumTenants, ProcsPerTenant, W.Replay.size(),
              W.Replay.totalBytes() >> 20);

  // Part 1: byte-identity self-gate, serial vs 8 shards, every policy.
  std::printf("serial vs 8-shard byte-identity gate:\n");
  struct PolicyRow {
    Scheme S;
    PowerPolicyKind Policy;
  } Rows[] = {{Scheme::Base, PowerPolicyKind::None},
              {Scheme::Tpm, PowerPolicyKind::Tpm},
              {Scheme::Drpm, PowerPolicyKind::Drpm}};
  std::vector<SchemeRun> Runs;
  for (const PolicyRow &Row : Rows) {
    TimelineRecorder SerialTL{1000.0}, ShardTL{1000.0};
    SimEngine Serial(W.Layout, Disk, Row.Policy, CacheConfig(), nullptr, "sim",
                     /*Attribution=*/true, &SerialTL);
    SimResults SerialRes = Serial.run(W.Replay);
    ShardedSimEngine Sharded(W.Layout, Disk, Row.Policy, 8, 0.0, CacheConfig(),
                             nullptr, "sim", /*Attribution=*/true, &ShardTL);
    SimResults ShardRes = Sharded.run(W.Replay);
    std::string A = renderObservable(SerialRes, Disk, W.Names, SerialTL);
    std::string B = renderObservable(ShardRes, Disk, W.Names, ShardTL);
    if (A != B) {
      std::fprintf(stderr,
                   "sharded_sim: FAIL %s: 8-shard export differs from the "
                   "serial oracle (%zu vs %zu bytes)\n",
                   schemeName(Row.S), A.size(), B.size());
      return 1;
    }
    std::printf("  %-5s identical (report, ledger, attrib, timeline); "
                "%.1f J, wall %.1f s\n",
                schemeName(Row.S), SerialRes.EnergyJ,
                SerialRes.WallTimeMs / 1000.0);
    SchemeRun Run;
    Run.S = Row.S;
    Run.Sim = SerialRes;
    Run.AttribNames = W.Names;
    Run.TraceRequests = W.Replay.size();
    Run.TraceBytes = W.Replay.totalBytes();
    Runs.push_back(std::move(Run));
  }

  // Part 2: wall-time scaling on TPM with full accounting. The serial
  // engine is the floor; each shard count replays the same trace.
  unsigned HwThreads = std::max(1u, std::thread::hardware_concurrency());
  std::printf("\nscaling (TPM, ledger + attribution, %u hardware "
              "thread%s):\n",
              HwThreads, HwThreads == 1 ? "" : "s");
  double SerialMs = wallMs([&] {
    SimEngine E(W.Layout, Disk, PowerPolicyKind::Tpm, CacheConfig(), nullptr,
                "sim", /*Attribution=*/true);
    (void)E.run(W.Replay);
  });
  std::printf("  %-8s %10.1f ms %8s\n", "serial", SerialMs, "1.00x");
  struct ScalePoint {
    unsigned Shards;
    double Ms;
    double Speedup;
  };
  std::vector<ScalePoint> Scaling;
  for (unsigned Shards : {1u, 2u, 4u, 8u}) {
    double Ms = wallMs([&] {
      ShardedSimEngine E(W.Layout, Disk, PowerPolicyKind::Tpm, Shards, 0.0,
                         CacheConfig(), nullptr, "sim", /*Attribution=*/true);
      (void)E.run(W.Replay);
    });
    double Speedup = Ms > 0.0 ? SerialMs / Ms : 0.0;
    Scaling.push_back({Shards, Ms, Speedup});
    std::printf("  %u shard%s %10.1f ms %7.2fx\n", Shards,
                Shards == 1 ? " " : "s", Ms, Speedup);
  }

  // The >= 3x gate needs 8 threads actually running concurrently and
  // representative instruction timing; sanitizers and small hosts get the
  // table without the gate (the checked-in scaling record carries the
  // reference measurement, PERFORMANCE.md).
  double SpeedupAt8 = Scaling.back().Speedup;
  bool Gate =
      !Sanitized && HwThreads >= 8 && !std::getenv("DRA_BENCH_SKIP_SPEEDUP");
  if (Gate) {
    if (SpeedupAt8 < 3.0) {
      std::fprintf(stderr,
                   "sharded_sim: FAIL: 8-shard speedup %.2fx < 3x on a "
                   "%u-thread host\n",
                   SpeedupAt8, HwThreads);
      return 1;
    }
    std::printf("  speedup gate: %.2fx >= 3x at 8 shards — ok\n", SpeedupAt8);
  } else {
    std::printf("  speedup gate: skipped (%s)\n",
                Sanitized          ? "sanitizer build"
                : HwThreads < 8    ? "fewer than 8 hardware threads"
                                   : "DRA_BENCH_SKIP_SPEEDUP set");
  }

  // Part 3: artifacts for the CI regression gate. Only the TPM run goes
  // into the dra-report-v1 artifact: per-disk sections scale with the 1024
  // disks, and one run keeps the checked-in baseline near the size of the
  // other baselines while the identity gate above already pins all three
  // policies bit-for-bit.
  if (const char *Dir = std::getenv("DRA_BENCH_JSON")) {
    PipelineConfig Cfg;
    Cfg.NumProcs = W.Replay.numProcs();
    Cfg.Attribution = true;
    AppResults App{"multitenant", {Runs[1]}, ""};
    std::string Path =
        writeArtifact(Dir, "sharded_sim", "json",
                      renderRunReportJson(Cfg, {App}, "sharded_sim"));
    std::printf("\n(run report written to %s)\n", Path.c_str());

    JsonWriter J;
    J.beginObject();
    J.key("schema");
    J.value("dra-sharded-scaling-v1");
    J.key("bench");
    J.value("sharded_sim");
    J.key("disks");
    J.value(uint64_t(NumDisks));
    J.key("tenants");
    J.value(uint64_t(NumTenants));
    J.key("requests");
    J.value(uint64_t(W.Replay.size()));
    J.key("policy");
    J.value("TPM");
    J.key("hardware_threads");
    J.value(uint64_t(HwThreads));
    J.key("sanitized");
    J.value(Sanitized);
    J.key("serial_ms");
    J.value(SerialMs);
    J.key("shards");
    J.beginArray();
    for (const ScalePoint &P : Scaling) {
      J.beginObject();
      J.key("shards");
      J.value(uint64_t(P.Shards));
      J.key("ms");
      J.value(P.Ms);
      J.key("speedup");
      J.value(P.Speedup);
      J.endObject();
    }
    J.endArray();
    J.key("speedup_at_8");
    J.value(SpeedupAt8);
    J.endObject();
    Path = writeArtifact(Dir, "sharded_sim.scaling", "json", J.take() + "\n");
    std::printf("(scaling record written to %s)\n", Path.c_str());
  }
  return 0;
}
