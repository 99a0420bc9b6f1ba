#pragma once

// A FIFO in a power-of-two ring that reuses its slots, for packets that
// wait out a constant delay: a link's propagation and the network's
// loopback. Each waiting packet has one scheduled event that captures only
// its owner; a constant delay means events fire in push order, so every
// event pops the front. Steady state neither allocates nor makes a heap
// task.

#include <cstddef>
#include <utility>
#include <vector>

namespace meshnet::net {

template <typename T>
class FifoRing {
 public:
  void push(T value) {
    if (count_ == slots_.size()) {
      // Full: unroll into a ring twice the size.
      std::vector<T> grown(slots_.empty() ? 4 : 2 * slots_.size());
      for (std::size_t i = 0; i < count_; ++i) {
        grown[i] = std::move(slots_[(head_ + i) & mask()]);
      }
      slots_ = std::move(grown);
      head_ = 0;
    }
    slots_[(head_ + count_) & mask()] = std::move(value);
    ++count_;
  }

  /// Removes and returns the oldest element. The ring must not be empty.
  T pop() {
    T value = std::move(slots_[head_]);
    head_ = (head_ + 1) & mask();
    --count_;
    return value;
  }

  std::size_t size() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }

 private:
  std::size_t mask() const noexcept { return slots_.size() - 1; }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace meshnet::net
