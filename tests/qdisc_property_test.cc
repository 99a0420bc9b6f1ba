// Property-style parameterized tests for the queueing disciplines: the
// invariants the cross-layer results rest on, swept across
// configurations.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "net/qdisc.h"
#include "sim/random.h"

namespace meshnet::net {
namespace {

Packet packet_of(std::uint32_t bytes, Dscp dscp) {
  Packet p;
  p.flow = FlowKey{1, 1, 2, 2};
  p.dscp = dscp;
  p.payload = Payload::filled(bytes, 'x');
  return p;
}

// ---- Weighted DRR share accuracy across (share, packet-size mix) ------

using ShareParam = std::tuple<double, std::uint32_t, std::uint32_t>;

class WeightedShareTest : public ::testing::TestWithParam<ShareParam> {};

TEST_P(WeightedShareTest, LongRunShareMatchesConfig) {
  const auto [share, high_size, low_size] = GetParam();
  WeightedPrioQdisc q({share, 1.0 - share}, classify_by_dscp(), 1 << 30);
  auto refill = [&] {
    while (q.band_backlog_packets(0) < 20) {
      q.enqueue(packet_of(high_size, Dscp::kExpedited));
    }
    while (q.band_backlog_packets(1) < 20) {
      q.enqueue(packet_of(low_size, Dscp::kScavenger));
    }
  };
  for (int i = 0; i < 20000; ++i) {
    refill();
    ASSERT_TRUE(q.dequeue().has_value());
  }
  const double high = static_cast<double>(q.band_dequeued_bytes(0));
  const double low = static_cast<double>(q.band_dequeued_bytes(1));
  EXPECT_NEAR(high / (high + low), share, 0.03)
      << "share=" << share << " sizes=" << high_size << "/" << low_size;
}

INSTANTIATE_TEST_SUITE_P(
    Shares, WeightedShareTest,
    ::testing::Values(ShareParam{0.95, 1400, 1400},
                      ShareParam{0.95, 200, 8900},   // small high pkts
                      ShareParam{0.95, 8900, 200},   // large high pkts
                      ShareParam{0.75, 1400, 1400},
                      ShareParam{0.50, 1400, 700},
                      ShareParam{0.99, 1400, 1400}));

// ---- Work conservation: every enqueued byte is dequeued or dropped ----

class WorkConservationTest
    : public ::testing::TestWithParam<int> {};  // qdisc kind

std::unique_ptr<Qdisc> make_qdisc(int kind, std::uint64_t limit) {
  switch (kind) {
    case 0:
      return std::make_unique<FifoQdisc>(limit);
    case 1:
      return std::make_unique<StrictPrioQdisc>(2, classify_by_dscp(), limit);
    default:
      return std::make_unique<WeightedPrioQdisc>(
          std::vector<double>{0.9, 0.1}, classify_by_dscp(), limit);
  }
}

TEST_P(WorkConservationTest, BytesBalance) {
  auto q = make_qdisc(GetParam(), 20'000);
  sim::RngStream rng(GetParam(), "work-conservation");
  std::uint64_t dequeued_bytes = 0;
  for (int i = 0; i < 5000; ++i) {
    const auto size = static_cast<std::uint32_t>(rng.uniform_int(1, 9000));
    const Dscp dscp = rng.bernoulli(0.5) ? Dscp::kExpedited : Dscp::kScavenger;
    q->enqueue(packet_of(size, dscp));
    if (rng.bernoulli(0.7)) {
      if (const auto p = q->dequeue()) dequeued_bytes += p->size_bytes();
    }
  }
  // Drain.
  for (int i = 0; i < 20000 && !q->empty(); ++i) {
    if (const auto p = q->dequeue()) {
      dequeued_bytes += p->size_bytes();
    }
  }
  const auto& s = q->stats();
  // Accounting convention: note_enqueue fires only for accepted packets,
  // note_drop for rejected ones; every accepted byte must eventually be
  // dequeued once the queue drains.
  EXPECT_EQ(s.enqueued_packets + s.dropped_packets, 5000u);
  EXPECT_EQ(s.enqueued_bytes, s.dequeued_bytes);
  EXPECT_EQ(s.enqueued_packets, s.dequeued_packets);
  EXPECT_EQ(s.dequeued_bytes, dequeued_bytes);
  EXPECT_EQ(q->backlog_bytes(), 0u);
  EXPECT_EQ(q->backlog_packets(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Kinds, WorkConservationTest,
                         ::testing::Values(0, 1, 2));

// ---- FIFO order within a class, under every discipline -----------------

class IntraClassOrderTest : public ::testing::TestWithParam<int> {};

TEST_P(IntraClassOrderTest, NeverReordersWithinAClass) {
  auto q = make_qdisc(GetParam(), 1 << 30);
  sim::RngStream rng(7, "order");
  // Tag packets with increasing seq per class.
  std::uint64_t next_seq[2] = {0, 0};
  std::uint64_t last_out[2] = {0, 0};
  for (int i = 0; i < 3000; ++i) {
    const int cls = rng.bernoulli(0.3) ? 0 : 1;
    Packet p = packet_of(100, cls == 0 ? Dscp::kExpedited : Dscp::kScavenger);
    p.seq = ++next_seq[cls];
    q->enqueue(std::move(p));
    if (rng.bernoulli(0.6)) {
      if (const auto out = q->dequeue()) {
        const int out_cls = out->dscp == Dscp::kExpedited ? 0 : 1;
        EXPECT_GT(out->seq, last_out[out_cls]);
        last_out[out_cls] = out->seq;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, IntraClassOrderTest,
                         ::testing::Values(0, 1, 2));

// ---- Strict priority: high band never waits behind low ----------------

TEST(StrictPriorityProperty, HighNeverQueuedBehindLow) {
  StrictPrioQdisc q(2, classify_by_dscp(), 1 << 30);
  sim::RngStream rng(9, "strict");
  for (int i = 0; i < 2000; ++i) {
    if (rng.bernoulli(0.5)) {
      q.enqueue(packet_of(500, Dscp::kScavenger));
    }
    if (rng.bernoulli(0.2)) {
      q.enqueue(packet_of(500, Dscp::kExpedited));
    }
    if (rng.bernoulli(0.6)) {
      const auto p = q.dequeue();
      if (p && p->dscp != Dscp::kExpedited) {
        // A low packet may only leave when no high packet waits.
        EXPECT_EQ(q.band_backlog_packets(0), 0u);
      }
    }
  }
}

}  // namespace
}  // namespace meshnet::net
