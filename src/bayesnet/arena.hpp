// Bump arena for per-query factor scratch.
//
// Variable elimination and junction-tree calibration create a storm of
// short-lived factor tables whose lifetimes all end together (when the
// query or the calibration finishes). A bump arena turns that churn of
// std::vector allocations into pointer arithmetic: allocate() is O(1),
// nothing is freed individually, and reset() recycles the arena's
// capacity for the next round. The flat kernels (bayesnet/kernels)
// place every intermediate table in an arena and materialize only the
// final result as an owning Factor.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/contracts.hpp"

namespace sysuq::bayesnet {

/// A chunked bump allocator. Storage is handed out front-to-back from
/// geometrically growing chunks; pointers stay valid until reset() or
/// destruction. Not thread-safe — use one Arena per query / calibration
/// (the inference paths keep one per thread), never share across
/// threads.
// sysuq-thread-confined(owner)
class Arena {
 public:
  /// Default capacity of the first chunk (bytes).
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

  // sysuq-lint-allow(contract-coverage): any size is valid; tiny requests are rounded up
  explicit Arena(std::size_t initial_bytes = kDefaultChunkBytes);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Allocates `bytes` aligned to `align` (a power of two no larger
  /// than alignof(std::max_align_t)). The storage is uninitialized and
  /// lives until reset() or destruction. The bump is inline, since a VE
  /// query makes dozens of allocations; only a request the current
  /// chunk cannot hold leaves it, for grow().
  [[nodiscard]] void* allocate(std::size_t bytes, std::size_t align) {
    SYSUQ_EXPECT(align != 0 && (align & (align - 1)) == 0 &&
                     align <= alignof(std::max_align_t),
                 "Arena::allocate: alignment must be a power of two no larger "
                 "than max_align_t");
    Chunk& chunk = chunks_.back();
    const std::size_t offset = (chunk.offset + align - 1) & ~(align - 1);
    if (bytes > chunk.size || offset > chunk.size - bytes) [[unlikely]]
      return grow(bytes, align);
    chunk.offset = offset + bytes;
    used_ += bytes;
    return chunk.data.get() + offset;
  }

  /// Typed allocation of `n` uninitialized T (T must be trivially
  /// destructible — the arena never runs destructors). The element
  /// count is checked against SIZE_MAX / sizeof(T) (std::invalid_argument).
  template <typename T>
  [[nodiscard]] T* alloc(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena::alloc: arena storage is never destructed");
    return static_cast<T*>(allocate(checked_array_bytes(n, sizeof(T)),
                                    alignof(T)));
  }

  /// Retires every allocation. The largest chunk is kept so a
  /// steady-state workload stops touching malloc; the rest are freed.
  void reset();

  /// Bytes handed out since construction or the last reset().
  [[nodiscard]] std::size_t bytes_used() const { return used_; }

  /// Total capacity currently held (all chunks).
  [[nodiscard]] std::size_t bytes_capacity() const { return capacity_; }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t offset = 0;
  };

  /// n * elem_size; throws std::invalid_argument when it overflows (a
  /// hard throw, not a contract: compiled out, a wrapped byte count would
  /// hand out a block smaller than the array).
  [[nodiscard]] static std::size_t checked_array_bytes(std::size_t n,
                                                       std::size_t elem_size) {
    if (elem_size != 0 && n > SIZE_MAX / elem_size)
      throw std::invalid_argument("Arena::alloc: element count overflows size_t");
    return n * elem_size;
  }

  /// allocate()'s slow path: adds a chunk that holds the request and
  /// allocates from it.
  [[nodiscard]] void* grow(std::size_t bytes, std::size_t align);
  void add_chunk(std::size_t min_bytes);

  std::vector<Chunk> chunks_;
  std::size_t used_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace sysuq::bayesnet
