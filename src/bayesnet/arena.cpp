#include "bayesnet/arena.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "core/contracts.hpp"

namespace sysuq::bayesnet {

Arena::Arena(std::size_t initial_bytes) {
  add_chunk(std::max<std::size_t>(initial_bytes, 64));
}

Arena::~Arena() = default;

std::size_t Arena::checked_array_bytes(std::size_t n, std::size_t elem_size) {
  // A hard throw, not a contract: compiled out, a wrapped byte count
  // would hand out a block smaller than the array.
  if (elem_size != 0 && n > SIZE_MAX / elem_size)
    throw std::invalid_argument("Arena::alloc: element count overflows size_t");
  return n * elem_size;
}

void* Arena::allocate(std::size_t bytes, std::size_t align) {
  SYSUQ_EXPECT(align != 0 && (align & (align - 1)) == 0 &&
                   align <= alignof(std::max_align_t),
               "Arena::allocate: alignment must be a power of two no larger "
               "than max_align_t");
  Chunk* chunk = &chunks_.back();
  std::size_t offset = (chunk->offset + align - 1) & ~(align - 1);
  if (bytes > chunk->size || offset > chunk->size - bytes) {
    // Double the largest chunk so the amortized malloc count stays
    // logarithmic in the peak footprint.
    add_chunk(std::max(bytes + align, chunks_.back().size * 2));
    chunk = &chunks_.back();
    offset = (chunk->offset + align - 1) & ~(align - 1);
  }
  chunk->offset = offset + bytes;
  used_ += bytes;
  return chunk->data.get() + offset;
}

void Arena::reset() {
  // Keep only the largest chunk (always the back one: chunks grow
  // geometrically), rewound to empty.
  if (chunks_.size() > 1) {
    chunks_.front() = std::move(chunks_.back());
    chunks_.resize(1);
  }
  chunks_.front().offset = 0;
  capacity_ = chunks_.front().size;
  used_ = 0;
}

void Arena::add_chunk(std::size_t min_bytes) {
  Chunk c;
  c.size = min_bytes;
  c.data = std::make_unique<std::byte[]>(c.size);
  c.offset = 0;
  capacity_ += c.size;
  chunks_.push_back(std::move(c));
}

}  // namespace sysuq::bayesnet
