//===- support/Parallel.cpp - Worker fan-out, chunked JSON arrays -----------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Parallel.h"
#include "support/Json.h"

#include <algorithm>
#include <array>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

using namespace dra;

namespace {

thread_local bool InWorkerRegion = false;

using ElementWriter = std::function<void(JsonWriter &, size_t)>;

/// Arrays shorter than this are written by the serial loop: the 8-disk
/// sections of the paper's runs stay serial, and below it the threads'
/// start-up would cost more than the rendering they share.
constexpr size_t MinChunkedElements = 64;

/// Chunks one array is cut into: enough that the last chunks to finish
/// leave the other threads little idle time, few enough that hand-offs
/// stay rare next to the rendering.
constexpr size_t NumChunks = 64;

/// Chunk buffers per thread: one being filled while the others wait to be
/// spliced. Rendering 1024-disk exports, a worker blocked for a free buffer
/// about four times per array with two, and less than once with four.
constexpr unsigned BuffersPerThread = 4;

// Every chunk holds an element, so chunk 0's size can set the reservations.
static_assert(MinChunkedElements >= NumChunks);

/// One writeElements call on several threads. Chunk 0 is rendered in place
/// before any thread starts, and its size sets the reservations: the output
/// once, and each thread's chunk buffers, all on the calling thread, so the
/// other threads make no large allocation of their own (their allocator
/// arenas would keep the memory). The calling thread then renders chunks
/// like every other thread, and also splices the rendered chunks into the
/// output in index order. A chunk whose predecessors are all spliced is
/// rendered straight into the output.
class ChunkedWrite {
public:
  ChunkedWrite(JsonWriter &Out, size_t N, const ElementWriter &WriteOne,
               unsigned Threads)
      : Out(Out), N(N), WriteOne(WriteOne),
        Buffers(size_t(Threads) * BuffersPerThread),
        Busy(Buffers.size(), false) {}
  ChunkedWrite(const ChunkedWrite &) = delete;
  ChunkedWrite &operator=(const ChunkedWrite &) = delete;

  void run() {
    size_t Before = Out.view().size();
    renderElements(Out, 0);
    size_t FirstBytes = Out.view().size() - Before;
    Out.reserve(FirstBytes * (NumChunks - 1) + FirstBytes * NumChunks / 4);
    for (JsonWriter &B : Buffers)
      B.reserve(FirstBytes * 2);
    runWorkers(unsigned(Buffers.size() / BuffersPerThread),
               [this](unsigned Self) { work(Self); });
  }

private:
  JsonWriter &Out;
  const size_t N;
  const ElementWriter &WriteOne;

  std::mutex Mu;
  std::condition_variable Cv;
  // Guarded by Mu: the next chunk to claim, the chunks spliced so far, the
  // buffer each rendered chunk waits in, which buffers hold a chunk, and
  // whether a thread failed. Thread T owns the BuffersPerThread buffers
  // from T * BuffersPerThread; a buffer's bytes belong to the thread
  // holding it while it is busy and to the calling thread once its chunk
  // is ready.
  size_t Next = 1;
  size_t Spliced = 1;
  std::array<JsonWriter *, NumChunks> Ready{};
  std::vector<JsonWriter> Buffers;
  std::vector<bool> Busy;
  bool Abort = false;

  size_t chunkBegin(size_t C) const {
    return C * (N / NumChunks) + std::min(C, N % NumChunks);
  }

  void renderElements(JsonWriter &W, size_t C) const {
    for (size_t I = chunkBegin(C), E = chunkBegin(C + 1); I != E; ++I)
      WriteOne(W, I);
  }

  /// Renders chunk \p C into \p Buf as one JSON array.
  void renderChunk(size_t C, JsonWriter &Buf) const {
    Buf.clear();
    Buf.beginArray();
    renderElements(Buf, C);
    Buf.endArray();
  }

  /// Splices the elements of a rendered chunk, without its brackets.
  void splice(const JsonWriter &Buf) {
    std::string_view Chunk = Buf.view();
    if (Chunk.size() > 2)
      Out.rawValue(Chunk.substr(1, Chunk.size() - 2));
  }

  JsonWriter *claimBuffer(unsigned Self) {
    for (size_t K = size_t(Self) * BuffersPerThread,
                E = K + BuffersPerThread;
         K != E; ++K)
      if (!Busy[K]) {
        Busy[K] = true;
        return &Buffers[K];
      }
    return nullptr;
  }

  void work(unsigned Self) {
    try {
      loop(Self);
    } catch (...) {
      std::lock_guard<std::mutex> G(Mu);
      Abort = true;
      Cv.notify_all();
      throw;
    }
  }

  /// Worker \p Self's loop; worker 0 is the calling thread. Every change of
  /// the guarded state happens under Mu and is followed by a notify, and a
  /// thread waits only after finding, under Mu, nothing it can do.
  void loop(unsigned Self) {
    std::unique_lock<std::mutex> L(Mu);
    for (;;) {
      while (Self == 0 && Spliced != NumChunks && Ready[Spliced]) {
        JsonWriter *Buf = Ready[Spliced];
        L.unlock();
        splice(*Buf);
        L.lock();
        Ready[Spliced++] = nullptr;
        Busy[size_t(Buf - Buffers.data())] = false;
        Cv.notify_all();
      }
      if (Abort || (Self == 0 ? Spliced : Next) == NumChunks)
        return;
      if (Next != NumChunks) {
        if (Self == 0 && Next == Spliced) {
          size_t C = Next++;
          L.unlock();
          renderElements(Out, C);
          L.lock();
          ++Spliced;
          continue;
        }
        if (JsonWriter *Buf = claimBuffer(Self)) {
          size_t C = Next++;
          L.unlock();
          renderChunk(C, *Buf);
          L.lock();
          Ready[C] = Buf;
          Cv.notify_all();
          continue;
        }
      }
      Cv.wait(L);
    }
  }
};

} // namespace

bool dra::inWorkerRegion() { return InWorkerRegion; }

void dra::runWorkers(unsigned N, const std::function<void(unsigned)> &Work) {
  if (N == 0)
    return;
  std::vector<std::exception_ptr> Errors(N);
  auto Run = [&](unsigned I) {
    const bool Outer = InWorkerRegion;
    InWorkerRegion = true;
    try {
      Work(I);
    } catch (...) {
      Errors[I] = std::current_exception();
    }
    InWorkerRegion = Outer;
  };
  {
    std::vector<std::jthread> Threads;
    Threads.reserve(N - 1);
    try {
      for (unsigned I = 1; I < N; ++I)
        Threads.emplace_back(Run, I);
    } catch (const std::system_error &) {
      // Out of threads: the ones started and the caller share the work.
    }
    Run(0);
  } // The jthreads join here.
  for (const std::exception_ptr &E : Errors)
    if (E)
      std::rethrow_exception(E);
}

void dra::writeElements(JsonWriter &W, size_t N,
                        const ElementWriter &WriteOne) {
  if (N >= MinChunkedElements && !inWorkerRegion()) {
    const auto Threads = unsigned(
        std::min<size_t>(std::thread::hardware_concurrency(), NumChunks));
    if (Threads > 1) {
      ChunkedWrite(W, N, WriteOne, Threads).run();
      return;
    }
  }
  for (size_t I = 0; I != N; ++I)
    WriteOne(W, I);
}
