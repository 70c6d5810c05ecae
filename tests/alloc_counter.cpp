//===- tests/alloc_counter.cpp - Counting global operator new -------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
// Replaces the unaligned global allocation functions of the test binary
// that links it with malloc-backed versions that count calls while
// counting is on. Every replaced new pairs with free() through the
// matching replaced delete; the aligned forms keep their default pairing.
//
//===----------------------------------------------------------------------===//

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> Counting{false};
std::atomic<uint64_t> Allocs{0};

void *countedMalloc(std::size_t N) {
  if (Counting.load(std::memory_order_relaxed))
    Allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(N ? N : 1);
}

} // namespace

void setAllocCounting(bool On) { Counting.store(On); }
uint64_t allocCount() { return Allocs.load(); }

void *operator new(std::size_t N) {
  if (void *P = countedMalloc(N))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t N) { return ::operator new(N); }
void *operator new(std::size_t N, const std::nothrow_t &) noexcept {
  return countedMalloc(N);
}
void *operator new[](std::size_t N, const std::nothrow_t &) noexcept {
  return countedMalloc(N);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept { std::free(P); }
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
