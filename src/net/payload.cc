#include "net/payload.h"

#include <bit>
#include <cstring>
#include <new>
#include <vector>

namespace meshnet::net {

namespace {

// Size classes are powers of two from 64 B (ACK-sized app messages) to
// 64 KiB. Only real bytes take a block: HTTP heads, error texts, TLS
// records (at most 16 KiB plus a header) and test data. Bulk bodies are
// length-only tails and need none. Larger blocks bypass the pool.
constexpr std::size_t kMinClassBytes = 64;
constexpr std::size_t kMaxClassBytes = 64 * 1024;
constexpr int kMinClassShift = 6;
constexpr int kClassCount = 11;  // 64, 128, ..., 64 KiB

int class_for(std::size_t bytes) noexcept {
  const std::size_t clamped = bytes < kMinClassBytes ? kMinClassBytes : bytes;
  const int cls = std::bit_width(clamped - 1) - kMinClassShift;
  return cls < 0 ? 0 : cls;
}

std::size_t class_bytes(int cls) noexcept {
  return kMinClassBytes << cls;
}

struct Pool {
  std::vector<void*> free_lists[kClassCount];
  PayloadPoolStats stats;

  ~Pool() {
    for (auto& list : free_lists) {
      for (void* block : list) ::operator delete(block);
    }
  }
};

Pool& pool() noexcept {
  thread_local Pool instance;
  return instance;
}

}  // namespace

struct PayloadPoolAccess {
  using Block = Payload::Block;

  static Block* acquire(std::size_t bytes) {
    Pool& p = pool();
    if (bytes > kMaxClassBytes) {
      ++p.stats.unpooled;
      void* raw = ::operator new(sizeof(Block) + bytes);
      Block* block = static_cast<Block*>(raw);
      block->refs = 1;
      block->capacity = static_cast<std::uint32_t>(bytes);
      return block;
    }
    const int cls = class_for(bytes);
    auto& list = p.free_lists[cls];
    if (!list.empty()) {
      ++p.stats.pool_hits;
      --p.stats.blocks_cached;
      p.stats.bytes_cached -= class_bytes(cls);
      Block* block = static_cast<Block*>(list.back());
      list.pop_back();
      block->refs = 1;
      return block;
    }
    ++p.stats.pool_misses;
    void* raw = ::operator new(sizeof(Block) + class_bytes(cls));
    Block* block = static_cast<Block*>(raw);
    block->refs = 1;
    block->capacity = static_cast<std::uint32_t>(class_bytes(cls));
    return block;
  }

  static void release(Block* block) noexcept {
    if (block->capacity > kMaxClassBytes) {
      ::operator delete(block);
      return;
    }
    Pool& p = pool();
    const int cls = class_for(block->capacity);
    p.free_lists[cls].push_back(block);
    ++p.stats.blocks_cached;
    p.stats.bytes_cached += class_bytes(cls);
  }
};

PayloadPoolStats payload_pool_stats() noexcept { return pool().stats; }

void payload_pool_trim() noexcept {
  Pool& p = pool();
  for (auto& list : p.free_lists) {
    for (void* block : list) ::operator delete(block);
    list.clear();
  }
  p.stats.blocks_cached = 0;
  p.stats.bytes_cached = 0;
}

Payload Payload::copy_of(std::string_view bytes, std::size_t tail) {
  Payload out;
  out.tail_ = static_cast<std::uint32_t>(tail);
  if (bytes.empty()) return out;
  Block* block = PayloadPoolAccess::acquire(bytes.size());
  std::memcpy(block->bytes(), bytes.data(), bytes.size());
  out.block_ = block;
  out.data_ = block->bytes();
  out.real_ = static_cast<std::uint32_t>(bytes.size());
  return out;
}

Payload Payload::filled(std::size_t count, char fill) {
  Payload out;
  if (count == 0) return out;
  Block* block = PayloadPoolAccess::acquire(count);
  std::memset(block->bytes(), fill, count);
  out.block_ = block;
  out.data_ = block->bytes();
  out.real_ = static_cast<std::uint32_t>(count);
  return out;
}

std::string Payload::materialize() const {
  std::string out;
  out.reserve(size());
  out.append(view()).append(tail_, 'x');
  return out;
}

void Payload::release() noexcept {
  if (block_ != nullptr) {
    if (--block_->refs == 0) PayloadPoolAccess::release(block_);
    block_ = nullptr;
  }
}

}  // namespace meshnet::net
