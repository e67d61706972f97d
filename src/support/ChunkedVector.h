//===- support/ChunkedVector.h - Append-only chunked storage ----*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ChunkedVector: an append-only sequence stored in chunks that double in
/// size (2^FirstChunkLog elements, then twice as many, and so on).
/// Appending never moves an element, so references and indices stay
/// valid for the life of the element, and dropping the whole sequence
/// frees a few chunks instead of one block per element. truncate()
/// destroys the tail, to roll back to an earlier size; its chunks stay
/// allocated for the next appends.
///
/// An empty ChunkedVector allocates nothing, and one that fits in its
/// first chunk allocates only that chunk: the pointers to later chunks
/// live in a vector that stays empty until they exist.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_SUPPORT_CHUNKEDVECTOR_H
#define FEARLESS_SUPPORT_CHUNKEDVECTOR_H

#include <bit>
#include <cassert>
#include <cstddef>
#include <new>
#include <utility>
#include <vector>

namespace fearless {

template <typename T, unsigned FirstChunkLog = 4> class ChunkedVector {
public:
  ChunkedVector() = default;
  ChunkedVector(const ChunkedVector &) = delete;
  ChunkedVector &operator=(const ChunkedVector &) = delete;
  ChunkedVector(ChunkedVector &&Other) noexcept { steal(Other); }
  ChunkedVector &operator=(ChunkedVector &&Other) noexcept {
    if (this != &Other) {
      release();
      steal(Other);
    }
    return *this;
  }
  ~ChunkedVector() { release(); }

  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }

  T &operator[](size_t I) {
    assert(I < Size && "ChunkedVector index out of range");
    auto [Chunk, Offset] = locate(I);
    return chunk(Chunk)[Offset];
  }
  const T &operator[](size_t I) const {
    assert(I < Size && "ChunkedVector index out of range");
    auto [Chunk, Offset] = locate(I);
    return chunk(Chunk)[Offset];
  }

  /// Constructs an element at the end; returns it.
  template <typename... Args> T &emplace_back(Args &&...A) {
    auto [Chunk, Offset] = locate(Size);
    if (Chunk == 0 && !First)
      First = allocate(0);
    else if (Chunk > Rest.size())
      Rest.push_back(allocate(Chunk));
    T *Elem = new (chunk(Chunk) + Offset) T(std::forward<Args>(A)...);
    ++Size;
    return *Elem;
  }

  /// Destroys every element at index \p NewSize and beyond.
  void truncate(size_t NewSize) {
    while (Size > NewSize) {
      --Size;
      auto [Chunk, Offset] = locate(Size);
      chunk(Chunk)[Offset].~T();
    }
  }

private:
  static T *allocate(size_t Chunk) {
    return static_cast<T *>(
        ::operator new((size_t{1} << (Chunk + FirstChunkLog)) * sizeof(T)));
  }

  /// The chunk and offset of index \p I: chunk K holds 2^(K+FirstChunkLog)
  /// elements and starts at index 2^FirstChunkLog * (2^K - 1).
  static std::pair<size_t, size_t> locate(size_t I) {
    size_t Biased = I + (size_t{1} << FirstChunkLog);
    unsigned Log = std::bit_width(Biased) - 1;
    return {Log - FirstChunkLog, Biased - (size_t{1} << Log)};
  }

  T *chunk(size_t Chunk) const {
    return Chunk == 0 ? First : Rest[Chunk - 1];
  }

  void release() {
    truncate(0);
    ::operator delete(First);
    for (T *Chunk : Rest)
      ::operator delete(Chunk);
    First = nullptr;
    Rest.clear();
  }

  void steal(ChunkedVector &Other) {
    First = std::exchange(Other.First, nullptr);
    Rest = std::move(Other.Rest);
    Other.Rest.clear();
    Size = std::exchange(Other.Size, 0);
  }

  T *First = nullptr;
  std::vector<T *> Rest; ///< Chunks 1, 2, ... as they are allocated.
  size_t Size = 0;
};

} // namespace fearless

#endif // FEARLESS_SUPPORT_CHUNKEDVECTOR_H
