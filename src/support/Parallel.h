//===- support/Parallel.h - Worker fan-out, chunked JSON arrays -*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Where the library starts threads, apart from the sharded simulator's
/// shard workers (docs/PERFORMANCE.md, "Per-disk sections in parallel";
/// DESIGN.md Sec. 11). runWorkers runs a fixed set of workers, the calling
/// thread among them, and marks every worker as inside a worker region; a
/// fan-out started from a worker runs serially on it, so fan-outs never
/// nest (a 4-job sweep never starts 16 threads).
///
/// writeElements is the one fan-out inside a run: it renders the elements
/// of a JSON array in contiguous chunks on every hardware thread and splices
/// them in index order, so the bytes equal those of the serial loop. It
/// serves the per-disk sections of the run report and the timeline.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_SUPPORT_PARALLEL_H
#define DRA_SUPPORT_PARALLEL_H

#include <cstddef>
#include <functional>

namespace dra {

class JsonWriter;

/// True on a thread that is running a runWorkers worker.
bool inWorkerRegion();

/// Runs Work(0), ..., Work(\p N - 1) at once: Work(0) on the calling
/// thread, each other on a thread of its own. Returns once every worker has
/// finished. If any worker threw, the exception of the lowest-numbered one
/// is rethrown on the calling thread after all have joined. If the system
/// refuses a thread, the workers already started run without it, so Work
/// must not depend on all \p N running (claim shared work instead).
void runWorkers(unsigned N, const std::function<void(unsigned)> &Work);

/// Writes elements [0, \p N) of the array \p W has open by calling
/// WriteOne(Writer, I) once per element, which writes element I. The bytes
/// equal those of `for (I = 0; I != N; ++I) WriteOne(W, I)`. From 64
/// elements up, outside a worker region and on a host with more than one
/// hardware thread, the elements are rendered in chunks on up to one
/// thread per hardware thread, the caller included, so WriteOne must only
/// read state it shares with other elements. An exception from WriteOne
/// reaches the caller after every thread has joined; \p W is then
/// incomplete and must be discarded.
void writeElements(JsonWriter &W, size_t N,
                   const std::function<void(JsonWriter &, size_t)> &WriteOne);

} // namespace dra

#endif // DRA_SUPPORT_PARALLEL_H
