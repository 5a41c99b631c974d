#include "bayesnet/arena.hpp"

#include <algorithm>

namespace sysuq::bayesnet {

Arena::Arena(std::size_t initial_bytes) {
  add_chunk(std::max<std::size_t>(initial_bytes, 64));
}

Arena::~Arena() = default;

void* Arena::grow(std::size_t bytes, std::size_t align) {
  // Double the largest chunk so the amortized malloc count stays
  // logarithmic in the peak footprint.
  add_chunk(std::max(bytes + align, chunks_.back().size * 2));
  Chunk& chunk = chunks_.back();
  const std::size_t offset = (chunk.offset + align - 1) & ~(align - 1);
  chunk.offset = offset + bytes;
  used_ += bytes;
  return chunk.data.get() + offset;
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
