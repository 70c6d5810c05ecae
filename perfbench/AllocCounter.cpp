//===- perfbench/AllocCounter.cpp - Counting global operator new ------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
// Replaces the global allocation functions of the benchmark binary (never
// the library's own build) with malloc-backed versions that count calls
// while counting is switched on. Every replaceable new/delete form is
// defined so allocations and releases always pair with malloc/free.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> Counting{false};
std::atomic<uint64_t> Allocs{0};

void *allocate(std::size_t N) {
  if (Counting.load(std::memory_order_relaxed))
    Allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(N ? N : 1);
}

void *allocateAligned(std::size_t N, std::align_val_t Al) {
  if (Counting.load(std::memory_order_relaxed))
    Allocs.fetch_add(1, std::memory_order_relaxed);
  auto A = static_cast<std::size_t>(Al);
  std::size_t Rounded = (N + A - 1) / A * A;
  return std::aligned_alloc(A, Rounded ? Rounded : A);
}

} // namespace

bool perfbench::setAllocCounting(bool On) {
  return Counting.exchange(On, std::memory_order_relaxed);
}

uint64_t perfbench::allocCount() {
  return Allocs.load(std::memory_order_relaxed);
}

void *operator new(std::size_t N) {
  if (void *P = allocate(N))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t N) { return ::operator new(N); }
void *operator new(std::size_t N, const std::nothrow_t &) noexcept {
  return allocate(N);
}
void *operator new[](std::size_t N, const std::nothrow_t &) noexcept {
  return allocate(N);
}
void *operator new(std::size_t N, std::align_val_t Al) {
  if (void *P = allocateAligned(N, Al))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t N, std::align_val_t Al) {
  return ::operator new(N, Al);
}
void *operator new(std::size_t N, std::align_val_t Al,
                   const std::nothrow_t &) noexcept {
  return allocateAligned(N, Al);
}
void *operator new[](std::size_t N, std::align_val_t Al,
                     const std::nothrow_t &) noexcept {
  return allocateAligned(N, Al);
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept { std::free(P); }
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete(void *P, std::align_val_t, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::align_val_t,
                       const std::nothrow_t &) noexcept {
  std::free(P);
}
