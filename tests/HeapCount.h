//===- tests/HeapCount.h - Counting global operator new ---------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A binary that links HeapCount.cpp (the heap_count target) replaces the
/// global operator new, new[], delete and delete[] with malloc/free
/// wrappers that count every allocation. Tests use the count to assert a
/// path allocates nothing in steady state; benches export it as
/// `allocs_per_iter`.
///
/// The replacements live in their own translation unit: defined next to
/// their callers, g++ inlines them and warns (-Wmismatched-new-delete)
/// that free() releases memory from operator new.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_TESTS_HEAPCOUNT_H
#define FEARLESS_TESTS_HEAPCOUNT_H

#include <cstdint>

namespace fearless {

/// Global operator new and new[] calls so far in this process.
uint64_t heapAllocs();

} // namespace fearless

#endif // FEARLESS_TESTS_HEAPCOUNT_H
