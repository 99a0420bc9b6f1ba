// Property-style parameterized transport tests: every byte arrives
// exactly once, in order, across a sweep of adverse path conditions
// (tiny queues forcing loss, long delays, small MSS, both congestion
// controllers), and concurrent flows all complete.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "net/network.h"
#include "net/qdisc.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "transport/transport_host.h"

namespace meshnet::transport {
namespace {

// (queue_bytes, delay_us, mss, use_ledbat)
using PathParam = std::tuple<std::uint64_t, int, std::uint32_t, bool>;

class PathSweepTest : public ::testing::TestWithParam<PathParam> {};

std::string patterned(std::size_t n, std::uint64_t seed) {
  std::string out(n, '\0');
  sim::RngStream rng(seed, "payload");
  for (std::size_t i = 0; i < n; i += 64) {
    const std::uint64_t v = rng.next_u64();
    for (std::size_t j = i; j < std::min(i + 64, n); ++j) {
      out[j] = static_cast<char>((v >> ((j % 8) * 8)) ^ j);
    }
  }
  return out;
}

TEST_P(PathSweepTest, ExactlyOnceInOrderDelivery) {
  const auto [queue_bytes, delay_us, mss, ledbat] = GetParam();
  sim::Simulator sim;
  net::Network net(sim);
  const auto a = net.add_location("a");
  const auto b = net.add_location("b");
  net.add_link(a, b, 1e8, sim::microseconds(delay_us),
               std::make_unique<net::FifoQdisc>(queue_bytes), "fwd");
  net.add_link(b, a, 1e8, sim::microseconds(delay_us),
               std::make_unique<net::FifoQdisc>(queue_bytes), "rev");
  const auto ip_a = net::make_ip(10, 0, 0, 1);
  const auto ip_b = net::make_ip(10, 0, 0, 2);
  net.attach_interface(ip_a, a);
  net.attach_interface(ip_b, b);
  TransportHost host_a(sim, net, ip_a);
  TransportHost host_b(sim, net, ip_b);

  std::string received;
  host_b.listen(80, [&](Connection& c) {
    c.set_on_data([&](const net::Payload& d) { received.append(d.view()); });
  });

  ConnectionOptions options;
  options.mss = mss;
  options.cc = ledbat ? CcAlgorithm::kLedbat : CcAlgorithm::kReno;
  Connection& client = host_a.connect({ip_b, 80}, options);
  const std::string sent = patterned(400'000, queue_bytes ^ mss);
  client.send(sent);
  sim.run_until(sim::seconds(120));
  ASSERT_EQ(received.size(), sent.size())
      << "queue=" << queue_bytes << " delay=" << delay_us << " mss=" << mss
      << " cc=" << (ledbat ? "ledbat" : "reno");
  EXPECT_EQ(received, sent);
}

INSTANTIATE_TEST_SUITE_P(
    Paths, PathSweepTest,
    ::testing::Values(
        PathParam{3'000, 100, 1000, false},     // heavy loss, Reno
        PathParam{3'000, 100, 1000, true},      // heavy loss, LEDBAT
        PathParam{6'000, 5'000, 1460, false},   // loss + long RTT
        PathParam{64'000, 100, 536, false},     // tiny MSS
        PathParam{1'000'000, 10'000, 8960, false},  // clean fat path
        PathParam{1'000'000, 10'000, 8960, true},
        PathParam{4'500, 1'000, 9000, false},   // queue < one segment pair
        PathParam{20'000, 50, 100, true}));     // many tiny segments

TEST(ConcurrentFlows, AllCompleteOverSharedBottleneck) {
  sim::Simulator sim;
  net::Network net(sim);
  const auto a = net.add_location("a");
  const auto b = net.add_location("b");
  net.add_link(a, b, 1e8, sim::microseconds(500),
               std::make_unique<net::FifoQdisc>(30'000), "fwd");
  net.add_link(b, a, 1e8, sim::microseconds(500),
               std::make_unique<net::FifoQdisc>(30'000), "rev");
  const auto ip_a = net::make_ip(10, 0, 0, 1);
  const auto ip_b = net::make_ip(10, 0, 0, 2);
  net.attach_interface(ip_a, a);
  net.attach_interface(ip_b, b);
  TransportHost host_a(sim, net, ip_a);
  TransportHost host_b(sim, net, ip_b);

  constexpr int kFlows = 8;
  constexpr std::size_t kPerFlow = 200'000;
  std::vector<std::uint64_t> received(kFlows, 0);
  int next_flow = 0;
  host_b.listen(80, [&](Connection& c) {
    const int idx = next_flow++;
    c.set_on_data([&received, idx](const net::Payload& d) {
      received[static_cast<std::size_t>(idx)] += d.size();
    });
  });
  for (int i = 0; i < kFlows; ++i) {
    ConnectionOptions options;
    options.mss = 1460;
    // Mix of controllers sharing the link.
    options.cc = i % 2 ? CcAlgorithm::kLedbat : CcAlgorithm::kReno;
    host_a.connect({ip_b, 80}, options).send(std::string(kPerFlow, 'a' + i));
  }
  sim.run_until(sim::seconds(120));
  for (int i = 0; i < kFlows; ++i) {
    EXPECT_EQ(received[static_cast<std::size_t>(i)], kPerFlow)
        << "flow " << i;
  }
  // The shared path saw real loss (otherwise this test proves little).
  EXPECT_GT(host_a.stats().retransmits, 0u);
}

TEST(ConcurrentFlows, LedbatYieldsToReno) {
  // One Reno and one LEDBAT bulk flow share a bottleneck: after
  // convergence the Reno flow should hold clearly more than half the
  // goodput (the scavenger property at transport level).
  sim::Simulator sim;
  net::Network net(sim);
  const auto a = net.add_location("a");
  const auto b = net.add_location("b");
  net.add_link(a, b, 1e8, sim::microseconds(500),
               std::make_unique<net::FifoQdisc>(500'000), "fwd");
  net.add_link(b, a, 1e8, sim::microseconds(500),
               std::make_unique<net::FifoQdisc>(500'000), "rev");
  const auto ip_a = net::make_ip(10, 0, 0, 1);
  const auto ip_b = net::make_ip(10, 0, 0, 2);
  net.attach_interface(ip_a, a);
  net.attach_interface(ip_b, b);
  TransportHost host_a(sim, net, ip_a);
  TransportHost host_b(sim, net, ip_b);

  std::uint64_t received_reno = 0, received_ledbat = 0;
  int accepted = 0;
  host_b.listen(80, [&](Connection& c) {
    auto* counter = accepted++ == 0 ? &received_reno : &received_ledbat;
    c.set_on_data([counter](const net::Payload& d) { *counter += d.size(); });
  });

  ConnectionOptions reno;
  reno.mss = 1460;
  Connection& reno_conn = host_a.connect({ip_b, 80}, reno);
  ConnectionOptions ledbat;
  ledbat.mss = 1460;
  ledbat.cc = CcAlgorithm::kLedbat;
  Connection& ledbat_conn = host_a.connect({ip_b, 80}, ledbat);

  // Keep both flows backlogged.
  const std::string chunk(1 << 18, 'x');
  std::function<void()> top_up = [&] {
    if (reno_conn.send_backlog() < (1u << 20)) reno_conn.send(chunk);
    if (ledbat_conn.send_backlog() < (1u << 20)) ledbat_conn.send(chunk);
    sim.schedule_after(sim::milliseconds(20), top_up);
  };
  sim.schedule_after(0, top_up);
  sim.run_until(sim::seconds(30));

  const double total =
      static_cast<double>(received_reno + received_ledbat);
  ASSERT_GT(total, 0.0);
  EXPECT_GT(static_cast<double>(received_reno) / total, 0.7)
      << "reno=" << received_reno << " ledbat=" << received_ledbat;
}

}  // namespace
}  // namespace meshnet::transport
