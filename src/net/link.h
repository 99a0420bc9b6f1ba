#pragma once

// A unidirectional link: qdisc + serialization at a fixed rate +
// propagation delay. The device loop pulls from the qdisc whenever the
// transmitter goes idle, so the qdisc's scheduling decision (FIFO vs
// priority) is what determines who gets the next transmission slot —
// exactly where the paper's TC-based prioritization acts.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/fifo_ring.h"
#include "net/packet.h"
#include "net/qdisc.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace meshnet::net {

struct LinkStats {
  std::uint64_t delivered_packets = 0;
  std::uint64_t delivered_bytes = 0;
  sim::Duration busy_time = 0;  ///< Total transmission time so far.
  std::uint64_t down_drops = 0;  ///< Packets lost while the link was down.
  std::uint64_t loss_drops = 0;  ///< Packets lost to injected random loss.
  std::uint64_t carrier_losses = 0;  ///< up->down transitions so far.
};

class Link {
 public:
  /// `sink` receives each packet after serialization + propagation.
  Link(sim::Simulator& sim, std::string name, double rate_bits_per_second,
       sim::Duration propagation_delay, std::unique_ptr<Qdisc> qdisc);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  void set_sink(std::function<void(Packet)> sink) { sink_ = std::move(sink); }

  /// Cross-shard handoff (the parallel engine's cut-link path). When
  /// set, the link still owns its qdisc and serializes packets on the
  /// local shard's clock — the queueing decision stays exactly where tc
  /// acts — but instead of scheduling the sink after propagation it
  /// invokes `handoff(packet, propagation_delay())` at
  /// serialization-complete time. The handoff owner is responsible for
  /// delivering the packet on the destination shard at
  /// now() + propagation_delay(); the propagation therefore doubles as
  /// the link's conservative lookahead contribution. Takes precedence
  /// over set_sink.
  void set_handoff(std::function<void(Packet, sim::Duration)> handoff) {
    handoff_ = std::move(handoff);
  }

  /// Enqueues the packet; it is dropped silently if the qdisc is full
  /// (the transport's loss recovery handles it).
  void send(Packet packet);

  /// Swaps the queueing discipline (models `tc qdisc replace`). Any
  /// backlogged packets in the old qdisc are dropped, as with real tc.
  void set_qdisc(std::unique_ptr<Qdisc> qdisc);

  /// Carrier control (the fault layer's `ip link set down/up`). Taking the
  /// link down discards the qdisc backlog and blackholes every subsequent
  /// send; bits already serialized onto the wire still arrive. Bringing it
  /// back up resumes transmission of whatever is enqueued afterwards.
  void set_up(bool up);
  bool is_up() const noexcept { return up_; }

  /// Injects Bernoulli packet loss: each sent packet is dropped with
  /// `probability` before it reaches the qdisc. The stream is seeded from
  /// (seed, link name) so runs are reproducible. probability <= 0 clears.
  void set_loss(double probability, std::uint64_t seed = 0);
  double loss_probability() const noexcept { return loss_probability_; }

  Qdisc& qdisc() noexcept { return *qdisc_; }
  const Qdisc& qdisc() const noexcept { return *qdisc_; }

  const std::string& name() const noexcept { return name_; }
  double rate_bps() const noexcept { return rate_bps_; }
  sim::Duration propagation_delay() const noexcept { return prop_delay_; }
  const LinkStats& stats() const noexcept { return stats_; }

  /// Fraction of wall-clock sim time this link has spent transmitting.
  double utilization(sim::Time now) const noexcept;

 private:
  void try_transmit();
  void on_serialized();
  void on_propagated();

  sim::Simulator& sim_;
  std::string name_;
  double rate_bps_;
  sim::Duration prop_delay_;
  std::unique_ptr<Qdisc> qdisc_;
  std::function<void(Packet)> sink_;
  std::function<void(Packet, sim::Duration)> handoff_;
  Packet serializing_;  ///< valid while transmitting_
  /// On the wire: the link's events capture only `this` and find their
  /// packet here (see fifo_ring.h), so they fit sim::InlineTask's buffer.
  FifoRing<Packet> propagating_;
  bool transmitting_ = false;
  bool up_ = true;
  double loss_probability_ = 0.0;
  std::unique_ptr<sim::RngStream> loss_rng_;
  LinkStats stats_;
};

}  // namespace meshnet::net
