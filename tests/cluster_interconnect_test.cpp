// Property tests for the inter-node interconnect: contention can only
// delay, link occupancy only moves forward, and reset() restores a
// bit-identical replay.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cluster/interconnect.hpp"
#include "common/rng.hpp"

namespace smtbal::cluster {
namespace {

struct Transfer {
  SimTime send_time;
  std::uint32_t src;
  std::uint32_t dst;
  std::uint64_t bytes;
};

std::vector<Transfer> random_transfers(Rng& rng, std::uint32_t nodes,
                                       std::size_t count) {
  std::vector<Transfer> transfers;
  transfers.reserve(count);
  SimTime now = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    // Event order is what the simulation core guarantees: injection
    // times never decrease across calls.
    now += rng.uniform() * 2e-5;
    const auto src = static_cast<std::uint32_t>(rng.below(nodes));
    auto dst = static_cast<std::uint32_t>(rng.below(nodes - 1));
    if (dst >= src) ++dst;  // src != dst
    transfers.push_back({now, src, dst, 8 + rng.below(1 << 16)});
  }
  return transfers;
}

TEST(Interconnect, ArrivalNeverBeatsTheUncontendedCost) {
  for (const Topology topology : {Topology::kFullMesh, Topology::kStar}) {
    InterconnectConfig config;
    config.topology = topology;
    Interconnect inter(config, 4);
    Rng rng(0xC0FFEEu);
    for (const Transfer& t : random_transfers(rng, 4, 500)) {
      const SimTime arrival =
          inter.transfer(t.send_time, t.src, t.dst, t.bytes);
      const SimTime floor = inter.uncontended_cost(t.bytes);
      // Tiny relative slack: transfer() accumulates per-hop while
      // uncontended_cost() prices all hops at once, so the two sums may
      // differ in the last ulp.
      EXPECT_GE(arrival - t.send_time, floor * (1.0 - 1e-12))
          << "topology " << static_cast<int>(topology) << " " << t.src
          << "->" << t.dst << " at " << t.send_time;
    }
  }
}

TEST(Interconnect, LinkBusyUntilIsMonotoneUnderContention) {
  for (const Topology topology : {Topology::kFullMesh, Topology::kStar}) {
    InterconnectConfig config;
    config.topology = topology;
    Interconnect inter(config, 3);
    Rng rng(0xBEEFu);
    std::vector<SimTime> previous = inter.link_busy_until();
    for (const Transfer& t : random_transfers(rng, 3, 500)) {
      (void)inter.transfer(t.send_time, t.src, t.dst, t.bytes);
      const std::vector<SimTime>& current = inter.link_busy_until();
      ASSERT_EQ(current.size(), previous.size());
      for (std::size_t link = 0; link < current.size(); ++link) {
        EXPECT_GE(current[link], previous[link])
            << "topology " << static_cast<int>(topology) << " link " << link;
      }
      previous = current;
    }
  }
}

TEST(Interconnect, FreshInterconnectReplaysBitIdentically) {
  for (const Topology topology : {Topology::kFullMesh, Topology::kStar}) {
    InterconnectConfig config;
    config.topology = topology;
    Interconnect inter(config, 4);
    Rng rng(0xABCDu);
    const std::vector<Transfer> transfers = random_transfers(rng, 4, 300);

    std::vector<SimTime> first;
    first.reserve(transfers.size());
    for (const Transfer& t : transfers) {
      first.push_back(inter.transfer(t.send_time, t.src, t.dst, t.bytes));
    }
    const std::vector<SimTime> occupancy = inter.link_busy_until();

    Interconnect replay(config, 4);
    for (std::size_t i = 0; i < transfers.size(); ++i) {
      const Transfer& t = transfers[i];
      const SimTime again =
          replay.transfer(t.send_time, t.src, t.dst, t.bytes);
      EXPECT_EQ(again, first[i])
          << "topology " << static_cast<int>(topology) << " transfer " << i;
    }
    EXPECT_EQ(replay.link_busy_until(), occupancy);
  }
}

}  // namespace
}  // namespace smtbal::cluster
