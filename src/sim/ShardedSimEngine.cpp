//===- sim/ShardedSimEngine.cpp - Sharded trace replay ----------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "sim/ShardedSimEngine.h"

#include "sim/CompletionBatch.h"
#include "sim/ReplayCore.h"
#include "sim/ShardRouter.h"

#include <cmath>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

using namespace dra;

ShardedSimEngine::ShardedSimEngine(const DiskLayout &Layout,
                                   const DiskParams &Params,
                                   PowerPolicyKind Policy, unsigned NumShards,
                                   double WindowMs, CacheConfig Cache,
                                   EventTracer *Trace, std::string TraceLabel,
                                   bool Attribution, TimelineRecorder *Timeline)
    : Layout(Layout), Params(Params), Policy(Policy), NumShards(NumShards),
      WindowMs(resolveSimWindowMs(WindowMs, Params, Policy)), Cache(Cache),
      Tracer(Trace), TraceLabel(std::move(TraceLabel)),
      Attribution(Attribution), Timeline(Timeline) {
  if (NumShards == 0)
    throw std::invalid_argument("sim shard count must be >= 1");
}

namespace {

/// Everything one shard worker owns. Queue/Done/FinalizeEndMs are guarded
/// by Mu; Disks and their timeline slots are touched only by the owning
/// worker between thread start and join.
struct ShardState {
  std::vector<unsigned> OwnedDisks; ///< Global disk ids, ascending.
  std::vector<Disk> Disks; ///< Index-aligned with OwnedDisks.

  std::mutex Mu;
  std::condition_variable Cv;
  std::deque<CompletionBatch> Queue;
  bool Done = false;
  double FinalizeEndMs = 0.0;
  std::exception_ptr Error;
};

} // namespace

SimResults ShardedSimEngine::run(const Trace &T) const {
  uint64_t TracePid = Tracer ? Tracer->addProcess(TraceLabel) : 0;
  const unsigned NumDisks = Layout.numDisks();
  const unsigned Shards = std::min(NumShards, std::max(1u, NumDisks));
  const ShardRouter Router{Shards};
  const DiskParams NodeParams =
      StorageSystem::scaleForNode(Params, Layout.config().DisksPerNode);

  RunTimeline *Run =
      Timeline ? &Timeline->beginRun(TraceLabel, NumDisks) : nullptr;

  // --- Build shard state: each shard owns the disks the router maps to it,
  // with full accounting (ledger, attribution, the disk's timeline slot).
  std::vector<std::unique_ptr<ShardState>> ShardVec;
  ShardVec.reserve(Shards);
  for (unsigned S = 0; S != Shards; ++S)
    ShardVec.push_back(std::make_unique<ShardState>());
  std::vector<unsigned> LocalIndex(NumDisks);
  for (unsigned D = 0; D != NumDisks; ++D) {
    ShardState &SS = *ShardVec[Router.shardOf(D)];
    LocalIndex[D] = unsigned(SS.OwnedDisks.size());
    SS.OwnedDisks.push_back(D);
  }
  for (const std::unique_ptr<ShardState> &SP : ShardVec) {
    ShardState &SS = *SP;
    SS.Disks.reserve(SS.OwnedDisks.size());
    for (unsigned D : SS.OwnedDisks)
      // No per-disk tracer under sharding (see the header): cross-shard
      // tracer interleaving has no deterministic order. Each disk belongs
      // to one shard, so its timeline slot in the shared run has exactly
      // one writer.
      SS.Disks.emplace_back(D, NodeParams, Policy, nullptr, 0,
                            Run ? &Run->Disks[D] : nullptr);
  }

  // --- Shard workers: drain batches, replay the heavy accounting path,
  // cross-check every completion against the coordinator bit-for-bit.
  auto Worker = [&LocalIndex](ShardState &SS) {
    try {
      while (true) {
        CompletionBatch B;
        {
          std::unique_lock<std::mutex> L(SS.Mu);
          SS.Cv.wait(L, [&SS] { return SS.Done || !SS.Queue.empty(); });
          if (SS.Queue.empty())
            break;
          B = std::move(SS.Queue.front());
          SS.Queue.pop_front();
        }
        for (const FragmentEvent &F : B.Events) {
          double C = SS.Disks[LocalIndex[F.Disk]].submit(
              F.ArrivalMs, F.Offset, F.Bytes, F.IsWrite, F.Prov);
          if (C != F.ExpectedCompletionMs) {
            std::ostringstream OS;
            OS << "sharded replay divergence: disk " << F.Disk << " seq "
               << F.Seq << " expected completion " << F.ExpectedCompletionMs
               << " ms, replayed " << C << " ms";
            throw std::runtime_error(OS.str());
          }
        }
      }
      double EndMs;
      {
        std::lock_guard<std::mutex> L(SS.Mu);
        EndMs = SS.FinalizeEndMs;
      }
      for (Disk &D : SS.Disks)
        D.finalize(EndMs);
    } catch (...) {
      std::lock_guard<std::mutex> L(SS.Mu);
      SS.Error = std::current_exception();
    }
  };
  std::vector<std::jthread> Workers;
  Workers.reserve(Shards);
  for (const std::unique_ptr<ShardState> &SP : ShardVec)
    Workers.emplace_back(Worker, std::ref(*SP));

  // --- Coordinator: the shared closed loop over the same storage front
  // end and disk timing models Disk uses, charging nothing; fragments
  // accumulate into per-shard batches flushed at window edges in
  // deterministic (time, proc, seq) order.
  std::vector<DiskTimingModel> Models;
  Models.reserve(NumDisks);
  for (unsigned D = 0; D != NumDisks; ++D)
    Models.emplace_back(NodeParams, Policy);
  StorageFrontEnd Front(Layout, Cache, NodeParams, Policy, [&](unsigned D) {
    return Models[D].busyUntilMs();
  });

  std::vector<CompletionBatch> Pending(Shards);
  uint64_t Seq = 0;
  double WindowEndMs = WindowMs;

  auto Flush = [&](double EdgeMs) {
    for (unsigned S = 0; S != Shards; ++S) {
      if (Pending[S].Events.empty())
        continue;
      Pending[S].WindowEndMs = EdgeMs;
      sortCompletionBatch(Pending[S]);
      ShardState &SS = *ShardVec[S];
      {
        std::lock_guard<std::mutex> L(SS.Mu);
        SS.Queue.push_back(std::move(Pending[S]));
      }
      SS.Cv.notify_one();
      Pending[S] = CompletionBatch();
    }
  };

  auto Submit = [&](double IssueMs, const Request &R) {
    if (IssueMs >= WindowEndMs) {
      // Single step to the window containing IssueMs (issue times are
      // nondecreasing, so whole empty windows are skipped at once).
      double Edge = std::floor(IssueMs / WindowMs) * WindowMs;
      Flush(Edge);
      WindowEndMs = Edge + WindowMs;
    }
    return Front.submit(
        IssueMs, T.byteOffset(R), R.SizeBytes, R.IsWrite,
        [&](const SubRequest &Sub) {
          double C = Models[Sub.Disk]
                         .submit(IssueMs, Sub.DiskByteOffset, Sub.Bytes,
                                 [](const IdleOutcome &, double, double) {})
                         .CompletionMs;
          Pending[Router.shardOf(Sub.Disk)].Events.push_back(
              FragmentEvent{IssueMs, C, Sub.DiskByteOffset, Sub.Bytes, Seq++,
                            Sub.Disk, R.Proc, R.IsWrite, R.Prov});
          return C;
        });
  };

  // Shutdown: final partial window, then release the workers.
  auto Finish = [&](double WallMs) {
    Flush(WindowEndMs);
    for (const std::unique_ptr<ShardState> &SP : ShardVec) {
      ShardState &SS = *SP;
      {
        std::lock_guard<std::mutex> L(SS.Mu);
        SS.FinalizeEndMs = WallMs;
        SS.Done = true;
      }
      SS.Cv.notify_one();
    }
    for (std::jthread &W : Workers)
      W.join();
    for (const std::unique_ptr<ShardState> &SP : ShardVec)
      if (SP->Error)
        std::rethrow_exception(SP->Error);
  };

  SimResults Res = replayAndAssemble(
      T, Submit, Finish, NumDisks,
      [&](unsigned D) {
        return ShardVec[Router.shardOf(D)]->Disks[LocalIndex[D]].takeStats();
      },
      Attribution, Timeline, Tracer, TracePid);
  Res.Cache = Front.cacheStats();
  return Res;
}
