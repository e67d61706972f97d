//===- tests/HeapCount.cpp ------------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "HeapCount.h"

#include <atomic>
#include <cstdlib>
#include <new>

static std::atomic<uint64_t> GHeapAllocs{0};

uint64_t fearless::heapAllocs() {
  return GHeapAllocs.load(std::memory_order_relaxed);
}

void *operator new(std::size_t Size) {
  GHeapAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Size) { return ::operator new(Size); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
