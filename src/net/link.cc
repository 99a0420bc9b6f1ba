#include "net/link.h"

#include <utility>

#include "util/logging.h"

namespace meshnet::net {

Link::Link(sim::Simulator& sim, std::string name, double rate_bits_per_second,
           sim::Duration propagation_delay, std::unique_ptr<Qdisc> qdisc)
    : sim_(sim),
      name_(std::move(name)),
      rate_bps_(rate_bits_per_second),
      prop_delay_(propagation_delay),
      qdisc_(std::move(qdisc)) {}

void Link::send(Packet packet) {
  if (!up_) {
    ++stats_.down_drops;
    return;
  }
  if (loss_probability_ > 0.0 && loss_rng_ &&
      loss_rng_->bernoulli(loss_probability_)) {
    ++stats_.loss_drops;
    return;
  }
  if (!qdisc_->enqueue(std::move(packet))) {
    MESHNET_DEBUG() << "link " << name_ << ": qdisc drop";
  }
  try_transmit();
}

void Link::set_qdisc(std::unique_ptr<Qdisc> qdisc) {
  qdisc_ = std::move(qdisc);
}

void Link::set_up(bool up) {
  if (up == up_) return;
  up_ = up;
  if (!up_) {
    ++stats_.carrier_losses;
    // Backlogged packets die with the carrier (the driver's TX ring is
    // flushed); the loss shows up to transports as missing ACKs.
    while (auto packet = qdisc_->dequeue()) {
      ++stats_.down_drops;
    }
    MESHNET_DEBUG() << "link " << name_ << ": carrier down";
  } else {
    MESHNET_DEBUG() << "link " << name_ << ": carrier up";
    try_transmit();
  }
}

void Link::set_loss(double probability, std::uint64_t seed) {
  if (probability <= 0.0) {
    loss_probability_ = 0.0;
    loss_rng_.reset();
    return;
  }
  loss_probability_ = probability;
  loss_rng_ = std::make_unique<sim::RngStream>(seed, "loss:" + name_);
}

double Link::utilization(sim::Time now) const noexcept {
  if (now <= 0) return 0.0;
  return static_cast<double>(stats_.busy_time) / static_cast<double>(now);
}

void Link::try_transmit() {
  if (transmitting_ || !up_) return;
  auto packet = qdisc_->dequeue();
  if (!packet) return;
  transmitting_ = true;
  serializing_ = std::move(*packet);
  const sim::Duration tx_time =
      sim::transmission_time(serializing_.size_bytes(), rate_bps_);
  stats_.busy_time += tx_time;
  // Serialization finishes after tx_time; the bits arrive prop_delay later.
  sim_.schedule_after(tx_time, [this] { on_serialized(); });
}

void Link::on_serialized() {
  transmitting_ = false;
  stats_.delivered_packets += 1;
  stats_.delivered_bytes += serializing_.size_bytes();
  if (handoff_) {
    // Cut link: the destination lives on another shard. Hand the
    // packet off at serialization-complete time with the remaining
    // propagation; the parallel engine delivers it there.
    handoff_(std::move(serializing_), prop_delay_);
  } else {
    push_propagating(std::move(serializing_));
    sim_.schedule_after(prop_delay_, [this] { on_propagated(); });
  }
  try_transmit();
}

void Link::on_propagated() {
  Packet p = pop_propagating();
  if (sink_) sink_(std::move(p));
}

void Link::push_propagating(Packet packet) {
  if (ring_count_ == propagating_.size()) {
    // Full: unroll into a ring twice the size (a power of two, so
    // indices wrap with a mask).
    std::vector<Packet> grown(propagating_.empty() ? 4
                                                   : 2 * propagating_.size());
    for (std::size_t i = 0; i < ring_count_; ++i) {
      grown[i] = std::move(propagating_[(ring_head_ + i) & ring_mask()]);
    }
    propagating_ = std::move(grown);
    ring_head_ = 0;
  }
  propagating_[(ring_head_ + ring_count_) & ring_mask()] = std::move(packet);
  ++ring_count_;
}

Packet Link::pop_propagating() {
  Packet p = std::move(propagating_[ring_head_]);
  ring_head_ = (ring_head_ + 1) & ring_mask();
  --ring_count_;
  return p;
}

}  // namespace meshnet::net
