#pragma once

// Pooled, refcounted packet payload buffers.
//
// Every simulated segment used to carry a shared_ptr<const std::string>,
// which costs one control-block allocation plus one string allocation per
// segment and a pair of atomic refcount ops per packet copy. Payload
// replaces that with a view into a refcounted block drawn from a
// thread-local size-class pool: each message's bytes are copied into ONE
// block (by the HTTP codec, or by Connection::send for raw bytes) and
// every MSS segment (and every retransmit) is a zero-copy slice of it, so
// steady-state packet flow does not touch the allocator at all once the
// pool is warm.
//
// A payload is a real-byte prefix followed by a length-only tail: bytes
// that count on the wire (segmentation, serialization time, stats) but
// never exist in memory. HTTP bodies travel as tails, so a megabyte
// response costs the same per hop as an empty one; only the message head
// (and bodies that tests, error texts or the TLS record layer need as
// text) is real. A tail reads as that many 'x' bytes wherever it has to
// be materialized. The tail never touches the pool.
//
// Thread affinity: a simulation (and all of its packets) lives on a
// single thread — the sweep runner pins each point to one worker — so
// refcounts are plain integers and the pool is thread_local. Payloads
// must not be shared across threads.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace meshnet::net {

/// Allocation behaviour of the calling thread's payload pool (counters
/// are cumulative; deterministic for a deterministic packet sequence).
struct PayloadPoolStats {
  std::uint64_t pool_hits = 0;     ///< blocks served from a freelist
  std::uint64_t pool_misses = 0;   ///< blocks that hit the allocator
  std::uint64_t unpooled = 0;      ///< oversized blocks (> max class)
  std::uint64_t blocks_cached = 0; ///< blocks currently in freelists
  std::uint64_t bytes_cached = 0;  ///< capacity held in freelists
};

/// Snapshot of the calling thread's pool counters.
PayloadPoolStats payload_pool_stats() noexcept;

/// Frees every cached block on the calling thread (tests / leak tools).
void payload_pool_trim() noexcept;

class Payload {
 public:
  Payload() noexcept = default;

  /// Copies `bytes` into a pooled block and appends `tail` length-only
  /// bytes. The one copy per send(): slices of the result share the block.
  static Payload copy_of(std::string_view bytes, std::size_t tail = 0);

  /// Convenience for tests/benches: a block of `count` copies of `fill`.
  static Payload filled(std::size_t count, char fill);

  /// A pooled block of `count` real bytes that `write(char*)` fills in
  /// place: the one copy for bytes assembled from parts (a TLS record's
  /// header and body).
  template <typename Write>
  static Payload build(std::size_t count, Write&& write) {
    Payload out = allocate(count);
    if (out.block_ != nullptr) write(out.block_->bytes());
    return out;
  }

  Payload(const Payload& other) noexcept
      : block_(other.block_),
        data_(other.data_),
        real_(other.real_),
        tail_(other.tail_) {
    if (block_ != nullptr) ++block_->refs;
  }

  Payload(Payload&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)),
        data_(std::exchange(other.data_, nullptr)),
        real_(std::exchange(other.real_, 0)),
        tail_(std::exchange(other.tail_, 0)) {}

  Payload& operator=(const Payload& other) noexcept {
    if (this != &other) {
      release();
      block_ = other.block_;
      data_ = other.data_;
      real_ = other.real_;
      tail_ = other.tail_;
      if (block_ != nullptr) ++block_->refs;
    }
    return *this;
  }

  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      release();
      block_ = std::exchange(other.block_, nullptr);
      data_ = std::exchange(other.data_, nullptr);
      real_ = std::exchange(other.real_, 0);
      tail_ = std::exchange(other.tail_, 0);
    }
    return *this;
  }

  ~Payload() { release(); }

  /// A sub-range sharing this payload's block (no copy); it keeps the
  /// real bytes and the tail it covers. `offset` + `length` must lie
  /// within size().
  Payload slice(std::size_t offset, std::size_t length) const noexcept {
    Payload out;
    if (offset < real_) {
      out.block_ = block_;
      out.data_ = data_ + offset;
      out.real_ = static_cast<std::uint32_t>(
          length < real_ - offset ? length : real_ - offset);
      if (block_ != nullptr) ++block_->refs;
    }
    out.tail_ = static_cast<std::uint32_t>(length - out.real_);
    return out;
  }

  /// Total length on the wire: real bytes plus tail.
  std::size_t size() const noexcept { return std::size_t{real_} + tail_; }
  bool empty() const noexcept { return size() == 0; }
  /// The real-byte prefix.
  std::string_view view() const noexcept { return {data_, real_}; }
  /// Length-only bytes after view().
  std::size_t tail() const noexcept { return tail_; }

  /// The whole payload as text, the tail written out as 'x' bytes.
  std::string materialize() const;

  void reset() noexcept {
    release();
    data_ = nullptr;
    real_ = 0;
    tail_ = 0;
  }

 private:
  friend struct PayloadPoolAccess;

  struct Block {
    std::uint32_t refs;
    std::uint32_t capacity;
    // payload bytes follow the header in the same allocation
    char* bytes() noexcept { return reinterpret_cast<char*>(this + 1); }
  };

  /// `count` uninitialized real bytes in a pooled block.
  static Payload allocate(std::size_t count);
  void release() noexcept;

  Block* block_ = nullptr;
  const char* data_ = nullptr;
  std::uint32_t real_ = 0;
  std::uint32_t tail_ = 0;
};

}  // namespace meshnet::net
