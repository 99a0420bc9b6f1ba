// Tests for addressing, qdiscs, links and the routed fabric.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/address.h"
#include "net/link.h"
#include "net/network.h"
#include "net/packet.h"
#include "net/qdisc.h"
#include "sim/simulator.h"

namespace meshnet::net {
namespace {

Packet make_packet(std::uint32_t payload_bytes, Dscp dscp = Dscp::kDefault,
                   IpAddress dst = make_ip(10, 0, 0, 2)) {
  Packet p;
  p.flow = FlowKey{make_ip(10, 0, 0, 1), 1000, dst, 2000};
  p.dscp = dscp;
  if (payload_bytes > 0) {
    p.payload = Payload::filled(payload_bytes, 'x');
  }
  return p;
}

TEST(Address, IpFormatting) {
  EXPECT_EQ(ip_to_string(make_ip(10, 244, 0, 2)), "10.244.0.2");
  EXPECT_EQ(ip_to_string(0), "0.0.0.0");
  EXPECT_EQ(ip_to_string(0xffffffff), "255.255.255.255");
}

TEST(Address, ParseRoundTrip) {
  const IpAddress ip = make_ip(192, 168, 1, 77);
  EXPECT_EQ(parse_ip(ip_to_string(ip)), ip);
}

TEST(Address, ParseRejectsMalformed) {
  EXPECT_EQ(parse_ip(""), kNoAddress);
  EXPECT_EQ(parse_ip("10.0.0"), kNoAddress);
  EXPECT_EQ(parse_ip("10.0.0.256"), kNoAddress);
  EXPECT_EQ(parse_ip("a.b.c.d"), kNoAddress);
}

TEST(Address, FlowKeyReversed) {
  const FlowKey key{1, 2, 3, 4};
  const FlowKey rev = key.reversed();
  EXPECT_EQ(rev.src_ip, 3u);
  EXPECT_EQ(rev.src_port, 4);
  EXPECT_EQ(rev.dst_ip, 1u);
  EXPECT_EQ(rev.dst_port, 2);
  EXPECT_EQ(rev.reversed(), key);
}

TEST(Address, FlowKeyHashDiffers) {
  FlowKeyHash hash;
  const FlowKey a{1, 2, 3, 4};
  const FlowKey b{1, 2, 3, 5};
  EXPECT_NE(hash(a), hash(b));
  EXPECT_EQ(hash(a), hash(FlowKey{1, 2, 3, 4}));
}

// ---- Pooled payload buffers -------------------------------------------

TEST(Payload, CopySliceAndViews) {
  const std::string data = "0123456789abcdef";
  Payload whole = Payload::copy_of(data);
  EXPECT_EQ(whole.view(), data);
  EXPECT_EQ(whole.size(), data.size());
  EXPECT_FALSE(whole.empty());

  Payload mid = whole.slice(4, 6);
  EXPECT_EQ(mid.view(), "456789");
  // Slices share the block: same underlying bytes.
  EXPECT_EQ(mid.view().data(), whole.view().data() + 4);

  // The slice keeps the block alive after the parent dies.
  whole.reset();
  EXPECT_TRUE(whole.empty());
  EXPECT_EQ(mid.view(), "456789");

  Payload copy = mid;          // copy shares
  Payload moved = std::move(mid);
  EXPECT_EQ(copy.view(), "456789");
  EXPECT_EQ(moved.view(), "456789");
  EXPECT_TRUE(mid.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(Payload, EmptyAndFilled) {
  Payload empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.view(), "");
  EXPECT_TRUE(Payload::copy_of("").empty());

  Payload filled = Payload::filled(1000, 'x');
  EXPECT_EQ(filled.size(), 1000u);
  EXPECT_EQ(filled.view().front(), 'x');
  EXPECT_EQ(filled.view().back(), 'x');
}

TEST(Payload, PoolReusesBlocks) {
  payload_pool_trim();
  const PayloadPoolStats before = payload_pool_stats();
  { Payload p = Payload::filled(1400, 'x'); }
  { Payload p = Payload::filled(1400, 'y'); }  // same size class: reuse
  const PayloadPoolStats after = payload_pool_stats();
  EXPECT_EQ(after.pool_misses - before.pool_misses, 1u);
  EXPECT_EQ(after.pool_hits - before.pool_hits, 1u);
  EXPECT_EQ(after.blocks_cached, 1u);
  payload_pool_trim();
  EXPECT_EQ(payload_pool_stats().blocks_cached, 0u);
  EXPECT_EQ(payload_pool_stats().bytes_cached, 0u);
}

TEST(Payload, OversizedBlocksBypassThePool) {
  payload_pool_trim();
  const PayloadPoolStats before = payload_pool_stats();
  { Payload p = Payload::filled(256 * 1024, 'z'); }
  const PayloadPoolStats after = payload_pool_stats();
  EXPECT_EQ(after.unpooled - before.unpooled, 1u);
  EXPECT_EQ(after.blocks_cached, 0u);  // not cached on release
}

TEST(Payload, SlicesKeepTheRealBytesAndTailTheyCover) {
  const Payload whole = Payload::copy_of("head", 10);
  EXPECT_EQ(whole.size(), 14u);
  EXPECT_EQ(whole.view(), "head");
  EXPECT_EQ(whole.tail(), 10u);
  EXPECT_EQ(whole.materialize(), "head" + std::string(10, 'x'));

  const Payload real = whole.slice(1, 2);
  EXPECT_EQ(real.view(), "ea");
  EXPECT_EQ(real.tail(), 0u);

  const Payload straddle = whole.slice(2, 5);
  EXPECT_EQ(straddle.view(), "ad");
  EXPECT_EQ(straddle.tail(), 3u);
  EXPECT_EQ(straddle.size(), 5u);

  const Payload at_boundary = whole.slice(4, 3);
  EXPECT_EQ(at_boundary.view(), "");
  EXPECT_EQ(at_boundary.tail(), 3u);

  const Payload tail_only = whole.slice(9, 5);
  EXPECT_EQ(tail_only.view(), "");
  EXPECT_EQ(tail_only.tail(), 5u);
  EXPECT_EQ(tail_only.materialize(), "xxxxx");
}

TEST(Payload, OnlySlicesWithRealBytesHoldTheBlock) {
  payload_pool_trim();
  Payload whole = Payload::copy_of("head", 1000);
  Payload straddle = whole.slice(3, 10);
  Payload tail_only = whole.slice(4, 100);
  Payload tail_copy = tail_only;
  whole.reset();
  // The straddling slice still holds the block...
  EXPECT_EQ(payload_pool_stats().blocks_cached, 0u);
  EXPECT_EQ(straddle.view(), "d");
  straddle.reset();
  // ...and once it goes the block is back in the pool, although both
  // tail-only payloads are alive: they never referenced it.
  EXPECT_EQ(payload_pool_stats().blocks_cached, 1u);
  EXPECT_EQ(tail_only.size(), 100u);
  EXPECT_EQ(tail_copy.size(), 100u);
  payload_pool_trim();
}

TEST(Payload, TailBytesNeverTouchThePool) {
  payload_pool_trim();
  const PayloadPoolStats before = payload_pool_stats();
  {
    const Payload body = Payload::copy_of("", 1'600'000);
    EXPECT_EQ(body.size(), 1'600'000u);
    const Payload segment = body.slice(14'600, 1460);
    EXPECT_EQ(segment.tail(), 1460u);
  }
  PayloadPoolStats after = payload_pool_stats();
  EXPECT_EQ(after.pool_hits, before.pool_hits);
  EXPECT_EQ(after.pool_misses, before.pool_misses);
  EXPECT_EQ(after.unpooled, before.unpooled);
  EXPECT_EQ(after.blocks_cached, 0u);
  // A 200-byte head over a 1.6 MB tail takes one 256-byte block.
  {
    const Payload message =
        Payload::copy_of(std::string(200, 'h'), 1'600'000);
  }
  after = payload_pool_stats();
  EXPECT_EQ(after.pool_misses - before.pool_misses, 1u);
  EXPECT_EQ(after.unpooled, before.unpooled);
  EXPECT_EQ(after.bytes_cached, 256u);
  payload_pool_trim();
}

TEST(Packet, SizeAccounting) {
  Packet p = make_packet(100);
  EXPECT_EQ(p.payload_size(), 100u);
  EXPECT_EQ(p.size_bytes(), 140u);  // 40B header
  Packet ack = make_packet(0);
  EXPECT_EQ(ack.payload_size(), 0u);
  EXPECT_EQ(ack.size_bytes(), 40u);
}

TEST(FifoQdisc, FifoOrder) {
  FifoQdisc q(1 << 20);
  for (int i = 1; i <= 3; ++i) q.enqueue(make_packet(100 * i));
  EXPECT_EQ(q.dequeue()->payload_size(), 100u);
  EXPECT_EQ(q.dequeue()->payload_size(), 200u);
  EXPECT_EQ(q.dequeue()->payload_size(), 300u);
  EXPECT_FALSE(q.dequeue().has_value());
}

TEST(FifoQdisc, DropsWhenFull) {
  FifoQdisc q(300);
  EXPECT_TRUE(q.enqueue(make_packet(200)));   // 240 bytes
  EXPECT_FALSE(q.enqueue(make_packet(200)));  // would exceed 300
  EXPECT_EQ(q.stats().dropped_packets, 1u);
  EXPECT_EQ(q.backlog_packets(), 1u);
}

TEST(FifoQdisc, AlwaysAcceptsIntoEmptyQueue) {
  FifoQdisc q(10);  // limit below even one packet
  EXPECT_TRUE(q.enqueue(make_packet(1000)));
  EXPECT_EQ(q.backlog_packets(), 1u);
}

TEST(FifoQdisc, StatsTrackBytes) {
  FifoQdisc q(1 << 20);
  q.enqueue(make_packet(100));
  q.enqueue(make_packet(50));
  EXPECT_EQ(q.stats().enqueued_packets, 2u);
  EXPECT_EQ(q.stats().enqueued_bytes, 230u);
  EXPECT_EQ(q.stats().max_backlog_bytes, 230u);
  q.dequeue();
  EXPECT_EQ(q.stats().dequeued_packets, 1u);
  EXPECT_EQ(q.backlog_bytes(), 90u);
}

TEST(StrictPrioQdisc, HighBandAlwaysFirst) {
  StrictPrioQdisc q(2, classify_by_dscp());
  q.enqueue(make_packet(100, Dscp::kScavenger));
  q.enqueue(make_packet(200, Dscp::kExpedited));
  q.enqueue(make_packet(300, Dscp::kScavenger));
  q.enqueue(make_packet(400, Dscp::kExpedited));
  EXPECT_EQ(q.dequeue()->payload_size(), 200u);
  EXPECT_EQ(q.dequeue()->payload_size(), 400u);
  EXPECT_EQ(q.dequeue()->payload_size(), 100u);
  EXPECT_EQ(q.dequeue()->payload_size(), 300u);
}

TEST(StrictPrioQdisc, PerBandLimits) {
  StrictPrioQdisc q(2, classify_by_dscp(), 300);
  EXPECT_TRUE(q.enqueue(make_packet(200, Dscp::kExpedited)));
  EXPECT_FALSE(q.enqueue(make_packet(200, Dscp::kExpedited)));
  // The low band has its own budget.
  EXPECT_TRUE(q.enqueue(make_packet(200, Dscp::kScavenger)));
  EXPECT_EQ(q.band_drops(0), 1u);
  EXPECT_EQ(q.band_drops(1), 0u);
}

TEST(StrictPrioQdisc, ClassifierClamping) {
  StrictPrioQdisc q(2, classify_all_to(99));  // out of range -> last band
  EXPECT_TRUE(q.enqueue(make_packet(10)));
  EXPECT_EQ(q.band_backlog_packets(1), 1u);
  StrictPrioQdisc q2(2, classify_all_to(-5));  // negative -> band 0
  EXPECT_TRUE(q2.enqueue(make_packet(10)));
  EXPECT_EQ(q2.band_backlog_packets(0), 1u);
}

TEST(WeightedPrioQdisc, EmptyDequeue) {
  WeightedPrioQdisc q({0.95, 0.05}, classify_by_dscp());
  EXPECT_FALSE(q.dequeue().has_value());
}

TEST(WeightedPrioQdisc, SharesApproximateConfiguration) {
  // Keep both bands saturated and measure the byte split.
  WeightedPrioQdisc q({0.95, 0.05}, classify_by_dscp(), 1 << 30);
  auto refill = [&] {
    while (q.band_backlog_packets(0) < 50) {
      q.enqueue(make_packet(1400, Dscp::kExpedited));
    }
    while (q.band_backlog_packets(1) < 50) {
      q.enqueue(make_packet(1400, Dscp::kScavenger));
    }
  };
  for (int i = 0; i < 4000; ++i) {
    refill();
    ASSERT_TRUE(q.dequeue().has_value());
  }
  const double high = static_cast<double>(q.band_dequeued_bytes(0));
  const double low = static_cast<double>(q.band_dequeued_bytes(1));
  EXPECT_NEAR(high / (high + low), 0.95, 0.02);
}

TEST(WeightedPrioQdisc, IdleHighBandYieldsFully) {
  WeightedPrioQdisc q({0.95, 0.05}, classify_by_dscp(), 1 << 30);
  for (int i = 0; i < 100; ++i) {
    q.enqueue(make_packet(1000, Dscp::kScavenger));
  }
  // With no high traffic, every dequeue serves the low band immediately.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(q.dequeue().has_value());
  }
  EXPECT_EQ(q.band_dequeued_bytes(1), 100u * 1040u);
}

TEST(WeightedPrioQdisc, HighPacketJumpsLowBacklog) {
  WeightedPrioQdisc q({0.95, 0.05}, classify_by_dscp(), 1 << 30);
  for (int i = 0; i < 50; ++i) {
    q.enqueue(make_packet(1400, Dscp::kScavenger));
  }
  q.enqueue(make_packet(100, Dscp::kExpedited));
  // The next few dequeues must include the high packet almost instantly
  // (DRR may emit at most one low packet first from residual deficit).
  bool high_seen = false;
  for (int i = 0; i < 2 && !high_seen; ++i) {
    const auto p = q.dequeue();
    ASSERT_TRUE(p.has_value());
    high_seen = p->dscp == Dscp::kExpedited;
  }
  EXPECT_TRUE(high_seen);
}

TEST(WeightedPrioQdisc, DropsPerBand) {
  WeightedPrioQdisc q({0.5, 0.5}, classify_by_dscp(), 300);
  EXPECT_TRUE(q.enqueue(make_packet(200, Dscp::kExpedited)));
  EXPECT_FALSE(q.enqueue(make_packet(200, Dscp::kExpedited)));
  EXPECT_TRUE(q.enqueue(make_packet(200, Dscp::kScavenger)));
  EXPECT_EQ(q.band_drops(0), 1u);
  EXPECT_EQ(q.band_drops(1), 0u);
}

TEST(Classifiers, ByDstIp) {
  const IpAddress high = make_ip(10, 244, 0, 7);
  auto c = classify_by_dst_ip(high);
  EXPECT_EQ(c(make_packet(1, Dscp::kDefault, high)), 0);
  EXPECT_EQ(c(make_packet(1, Dscp::kDefault, make_ip(10, 244, 0, 8))), 1);
}

TEST(Classifiers, ByDscp) {
  auto c = classify_by_dscp();
  EXPECT_EQ(c(make_packet(1, Dscp::kExpedited)), 0);
  EXPECT_EQ(c(make_packet(1, Dscp::kScavenger)), 1);
  EXPECT_EQ(c(make_packet(1, Dscp::kDefault)), 1);
}

// ---------------------------------------------------------------- Link --

TEST(Link, SerializationAndPropagationDelay) {
  sim::Simulator sim;
  // 1250-byte payload + 40B header = 1290 bytes at 1 Gbps = 10.32 us,
  // plus 5 us propagation.
  Link link(sim, "l", 1e9, sim::microseconds(5),
            std::make_unique<FifoQdisc>());
  sim::Time delivered_at = -1;
  link.set_sink([&](Packet) { delivered_at = sim.now(); });
  link.send(make_packet(1250));
  sim.run();
  EXPECT_EQ(delivered_at, sim::transmission_time(1290, 1e9) +
                              sim::microseconds(5));
}

TEST(Link, BackToBackPacketsSerialize) {
  sim::Simulator sim;
  Link link(sim, "l", 1e9, 0, std::make_unique<FifoQdisc>());
  std::vector<sim::Time> deliveries;
  link.set_sink([&](Packet) { deliveries.push_back(sim.now()); });
  link.send(make_packet(1210));  // 1250B -> 10 us
  link.send(make_packet(1210));
  sim.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[1] - deliveries[0], sim::microseconds(10));
}

TEST(Link, UtilizationAndStats) {
  sim::Simulator sim;
  Link link(sim, "l", 1e9, 0, std::make_unique<FifoQdisc>());
  link.set_sink([](Packet) {});
  link.send(make_packet(1210));
  sim.run();
  EXPECT_EQ(link.stats().delivered_packets, 1u);
  EXPECT_EQ(link.stats().delivered_bytes, 1250u);
  EXPECT_GT(link.utilization(sim.now()), 0.99);
}

TEST(Link, QdiscReplaceDropsBacklog) {
  sim::Simulator sim;
  Link link(sim, "l", 1e3, 0, std::make_unique<FifoQdisc>());  // slow
  int delivered = 0;
  link.set_sink([&](Packet) { ++delivered; });
  for (int i = 0; i < 5; ++i) link.send(make_packet(100));
  link.set_qdisc(std::make_unique<FifoQdisc>());
  sim.run();
  EXPECT_EQ(delivered, 1);  // only the packet already on the wire
}

Packet numbered(std::uint64_t seq) {
  Packet p = make_packet(1400);
  p.seq = seq;
  return p;
}

// The link's events capture only the link; packets wait in its ring. Many
// packets share the wire at once here (propagation is ~9 serializations).
TEST(Link, ForwardingSchedulesNoHeapTasks) {
  sim::Simulator sim;
  Link link(sim, "l", 1e9, sim::microseconds(100),
            std::make_unique<FifoQdisc>(1 << 30));
  std::vector<std::uint64_t> order;
  link.set_sink([&](Packet p) { order.push_back(p.seq); });
  const std::uint64_t before = sim.loop_stats().task_heap_allocs;
  for (std::uint64_t i = 0; i < 200; ++i) link.send(numbered(i));
  sim.run();
  EXPECT_EQ(sim.loop_stats().task_heap_allocs, before);
  ASSERT_EQ(order.size(), 200u);
  for (std::uint64_t i = 0; i < 200; ++i) EXPECT_EQ(order[i], i);
}

TEST(Link, HandoffSchedulesNoHeapTasks) {
  sim::Simulator sim;
  Link link(sim, "l", 1e9, sim::microseconds(100),
            std::make_unique<FifoQdisc>(1 << 30));
  std::vector<std::uint64_t> order;
  std::vector<sim::Time> handed_at;
  link.set_handoff([&](Packet p, sim::Duration propagation) {
    EXPECT_EQ(propagation, sim::microseconds(100));
    order.push_back(p.seq);
    handed_at.push_back(sim.now());
  });
  const std::uint64_t before = sim.loop_stats().task_heap_allocs;
  for (std::uint64_t i = 0; i < 200; ++i) link.send(numbered(i));
  sim.run();
  EXPECT_EQ(sim.loop_stats().task_heap_allocs, before);
  ASSERT_EQ(order.size(), 200u);
  const sim::Duration tx = sim::transmission_time(1440, 1e9);
  for (std::uint64_t i = 0; i < 200; ++i) {
    EXPECT_EQ(order[i], i);
    // Handed off at serialization-complete time.
    EXPECT_EQ(handed_at[i], static_cast<sim::Time>(i + 1) * tx);
  }
}

// Carrier loss drops the qdisc backlog but not the bits on the wire; what
// is sent after the carrier returns arrives behind them, in order.
TEST(Link, DeliveryStaysFifoAcrossCarrierLoss) {
  sim::Simulator sim;
  Link link(sim, "l", 1e9, sim::microseconds(100),
            std::make_unique<FifoQdisc>(1 << 30));
  std::vector<std::uint64_t> order;
  link.set_sink([&](Packet p) { order.push_back(p.seq); });
  const std::uint64_t before = sim.loop_stats().task_heap_allocs;
  // 1440 B at 1 Gbps serializes in 11.52 us: by 50 us packets 0-4 are on
  // the wire (4 still serializing) and 5-19 wait in the qdisc.
  for (std::uint64_t i = 0; i < 20; ++i) link.send(numbered(i));
  sim.run_until(sim::microseconds(50));
  link.set_up(false);
  link.send(numbered(99));  // blackholed
  sim.run_until(sim::microseconds(60));
  link.set_up(true);
  for (std::uint64_t i = 20; i < 25; ++i) link.send(numbered(i));
  sim.run();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 20, 21, 22,
                                               23, 24}));
  EXPECT_EQ(link.stats().down_drops, 16u);
  EXPECT_EQ(sim.loop_stats().task_heap_allocs, before);
}

// -------------------------------------------------------------- Network --

class NetworkTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  Network net{sim};
};

TEST_F(NetworkTest, DeliversAcrossOneLink) {
  const auto a = net.add_location("a");
  const auto b = net.add_location("b");
  net.add_duplex_link(a, b, 1e9, sim::microseconds(1));
  net.attach_interface(make_ip(10, 0, 0, 1), a);
  Interface& dst = net.attach_interface(make_ip(10, 0, 0, 2), b);
  int got = 0;
  dst.set_handler([&](Packet) { ++got; });
  net.send(make_packet(100));
  sim.run();
  EXPECT_EQ(got, 1);
}

TEST_F(NetworkTest, MultiHopRouting) {
  // a - m1 - m2 - b line topology.
  const auto a = net.add_location("a");
  const auto m1 = net.add_location("m1");
  const auto m2 = net.add_location("m2");
  const auto b = net.add_location("b");
  net.add_duplex_link(a, m1, 1e9, 1000);
  net.add_duplex_link(m1, m2, 1e9, 1000);
  net.add_duplex_link(m2, b, 1e9, 1000);
  net.attach_interface(make_ip(10, 0, 0, 1), a);
  Interface& dst = net.attach_interface(make_ip(10, 0, 0, 2), b);
  sim::Time arrival = -1;
  dst.set_handler([&](Packet) { arrival = sim.now(); });
  net.send(make_packet(100));
  sim.run();
  ASSERT_GE(arrival, 0);
  // Three hops of propagation plus three serializations.
  EXPECT_GE(arrival, 3000);
}

TEST_F(NetworkTest, ShortestPathPreferred) {
  // Direct link a-b plus a detour a-c-b: traffic must use the direct one.
  const auto a = net.add_location("a");
  const auto b = net.add_location("b");
  const auto c = net.add_location("c");
  auto [direct, _] = net.add_duplex_link(a, b, 1e9, 1000, "direct");
  net.add_duplex_link(a, c, 1e9, 1000);
  net.add_duplex_link(c, b, 1e9, 1000);
  net.attach_interface(make_ip(10, 0, 0, 1), a);
  Interface& dst = net.attach_interface(make_ip(10, 0, 0, 2), b);
  dst.set_handler([](Packet) {});
  net.send(make_packet(100));
  sim.run();
  EXPECT_EQ(direct->stats().delivered_packets, 1u);
}

TEST_F(NetworkTest, LoopbackForSameLocation) {
  const auto a = net.add_location("a");
  net.set_loopback_delay(sim::microseconds(3));
  net.attach_interface(make_ip(10, 0, 0, 1), a);
  Interface& dst = net.attach_interface(make_ip(10, 0, 0, 2), a);
  sim::Time arrival = -1;
  dst.set_handler([&](Packet) { arrival = sim.now(); });
  net.send(make_packet(100));
  sim.run();
  EXPECT_EQ(arrival, sim::microseconds(3));
}

// Loopback packets wait in the network's FIFO ring; their events capture
// only the network, so delivery makes no heap task and keeps send order.
// The delay cannot change under packets in flight.
TEST(Network, LoopbackSchedulesNoHeapTasks) {
  sim::Simulator sim;
  Network net{sim};
  const auto a = net.add_location("a");
  net.attach_interface(make_ip(10, 0, 0, 1), a);
  Interface& dst = net.attach_interface(make_ip(10, 0, 0, 2), a);
  std::vector<std::uint64_t> order;
  std::vector<sim::Time> arrivals;
  dst.set_handler([&](Packet p) {
    order.push_back(p.seq);
    arrivals.push_back(sim.now());
  });
  for (std::uint64_t i = 0; i < 200; ++i) {
    Packet p = make_packet(100);
    p.seq = i;
    net.send(std::move(p));
    if (i % 50 == 49) sim.run_until(sim.now() + sim::microseconds(10));
  }
  EXPECT_FALSE(net.set_loopback_delay(sim::microseconds(1)));
  EXPECT_EQ(net.loopback_delay(), sim::microseconds(25));
  sim.run();
  EXPECT_EQ(sim.loop_stats().task_heap_allocs, 0u);
  ASSERT_EQ(order.size(), 200u);
  for (std::uint64_t i = 0; i < 200; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(arrivals.front(), sim::microseconds(25));
  EXPECT_EQ(arrivals.back(), sim::microseconds(55));
  EXPECT_TRUE(net.set_loopback_delay(sim::microseconds(1)));
  EXPECT_EQ(net.loopback_delay(), sim::microseconds(1));
}

TEST_F(NetworkTest, UnroutableCountsAndDrops) {
  const auto a = net.add_location("a");
  net.attach_interface(make_ip(10, 0, 0, 1), a);
  net.send(make_packet(100));  // dst 10.0.0.2 unknown
  sim.run();
  EXPECT_EQ(net.unroutable_drops(), 1u);
}

TEST_F(NetworkTest, PartitionedFabricCounts) {
  const auto a = net.add_location("a");
  const auto b = net.add_location("b");  // no link between them
  net.attach_interface(make_ip(10, 0, 0, 1), a);
  Interface& dst = net.attach_interface(make_ip(10, 0, 0, 2), b);
  int got = 0;
  dst.set_handler([&](Packet) { ++got; });
  net.send(make_packet(100));
  sim.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(net.unroutable_drops(), 1u);
}

TEST_F(NetworkTest, FindLinkByName) {
  const auto a = net.add_location("a");
  const auto b = net.add_location("b");
  net.add_link(a, b, 1e9, 0, nullptr, "my-link");
  EXPECT_NE(net.find_link("my-link"), nullptr);
  EXPECT_EQ(net.find_link("nope"), nullptr);
  EXPECT_EQ(net.links().size(), 1u);
}

TEST_F(NetworkTest, TopologyChangeRecomputesRoutes) {
  const auto a = net.add_location("a");
  const auto b = net.add_location("b");
  net.attach_interface(make_ip(10, 0, 0, 1), a);
  Interface& dst = net.attach_interface(make_ip(10, 0, 0, 2), b);
  int got = 0;
  dst.set_handler([&](Packet) { ++got; });
  net.send(make_packet(100));
  sim.run();
  EXPECT_EQ(got, 0);  // no route yet
  net.add_duplex_link(a, b, 1e9, 0);
  net.send(make_packet(100));
  sim.run();
  EXPECT_EQ(got, 1);
}

}  // namespace
}  // namespace meshnet::net
