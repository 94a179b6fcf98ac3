// Tests for the sharded parallel simulator (sim::ShardedSim +
// emu::ShardedWorld, docs/SIM.md).
//
// The two properties the sharding refactor must not break:
//
//   1. Radio correctness — a sharded run converges to exactly the state
//      a sequential run converges to: gradient hop counts equal the BFS
//      oracle, and the full per-node tuple-space contents are identical
//      across shard counts (1 vs 2 vs 4 shards, same world seed).
//
//   2. Determinism per (seed, shard_count) — running the same world
//      twice at the same shard count yields bit-identical merged
//      metrics JSON, even though epochs run on real threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "emu/sharded_world.h"
#include "obs/export.h"
#include "tuples/all.h"

namespace tota {
namespace {

using namespace tota::tuples;

// --- sim::ShardedSim ------------------------------------------------------

sim::ShardedParams params(std::uint32_t shards, std::uint64_t seed = 7) {
  sim::ShardedParams p;
  p.radio.range_m = 100.0;
  p.seed = seed;
  p.shards = shards;
  return p;
}

/// Records every upcall it receives, with the receiving shard clock.
class RecordingHost final : public sim::Host {
 public:
  RecordingHost(sim::ShardedSim& sim, NodeId self) : sim_(sim), self_(self) {}

  void on_datagram(NodeId from,
                   std::shared_ptr<const wire::Bytes> payload) override {
    datagrams.push_back({from, sim_.node_now(self_), payload->size()});
  }
  void on_neighbor_up(NodeId neighbor) override { ups.push_back(neighbor); }
  void on_neighbor_down(NodeId neighbor) override {
    downs.push_back(neighbor);
  }

  struct Rx {
    NodeId from;
    SimTime at;
    std::size_t bytes;
  };
  std::vector<Rx> datagrams;
  std::vector<NodeId> ups;
  std::vector<NodeId> downs;

 private:
  sim::ShardedSim& sim_;
  NodeId self_;
};

TEST(ShardedSimTest, PartitionIsContiguousInX) {
  sim::ShardedSim sim(params(4));
  std::vector<NodeId> ids;
  for (int i = 0; i < 40; ++i) {
    ids.push_back(sim.add_node({static_cast<double>(i) * 10.0, 0.0}));
  }
  sim.seal();
  std::uint32_t last = 0;
  std::vector<bool> used(4, false);
  for (const NodeId id : ids) {
    const std::uint32_t owner = sim.shard_of(id);
    ASSERT_LT(owner, 4u);
    EXPECT_GE(owner, last) << "ownership must be monotone in x";
    last = owner;
    used[owner] = true;
  }
  for (int s = 0; s < 4; ++s) EXPECT_TRUE(used[s]) << "empty shard " << s;
}

TEST(ShardedSimTest, PopulationIsFrozenAtSeal) {
  sim::ShardedSim sim(params(2));
  sim.add_node({0, 0});
  sim.add_node({1000, 0});
  sim.seal();
  EXPECT_THROW(sim.add_node({50, 0}), std::logic_error);
}

TEST(ShardedSimTest, ParallelModeRequiresLookahead) {
  auto p = params(2);
  p.radio.base_delay = SimTime::zero();
  EXPECT_THROW(sim::ShardedSim{p}, std::invalid_argument);
  p.shards = 1;  // sequential mode has no lookahead constraint
  EXPECT_NO_THROW(sim::ShardedSim{p});
}

TEST(ShardedSimTest, CrossShardBroadcastArrivesOnce) {
  // Two nodes in radio range, forced into different shards by position.
  sim::ShardedSim sim(params(2));
  const NodeId a = sim.add_node({0, 0});
  const NodeId b = sim.add_node({90, 0});
  sim.seal();
  ASSERT_NE(sim.shard_of(a), sim.shard_of(b));
  RecordingHost ha(sim, a);
  RecordingHost hb(sim, b);
  sim.attach(a, &ha);
  sim.attach(b, &hb);

  sim.broadcast(a, wire::Bytes{1, 2, 3});
  sim.run_for(SimTime::from_seconds(1));

  ASSERT_EQ(hb.datagrams.size(), 1u);
  EXPECT_EQ(hb.datagrams[0].from, a);
  EXPECT_EQ(hb.datagrams[0].bytes, 3u);
  // Delay within [base, base + jitter].
  const auto& radio = sim.params().radio;
  EXPECT_GE(hb.datagrams[0].at, radio.base_delay);
  EXPECT_LE(hb.datagrams[0].at, radio.base_delay + radio.jitter);
  EXPECT_TRUE(ha.datagrams.empty()) << "no self-delivery";

  obs::MetricsRegistry merged;
  sim.export_metrics(merged);
  EXPECT_EQ(merged.get("sim.shard.cross_deliveries"), 1);
  EXPECT_EQ(merged.get("radio.tx"), 1);
  EXPECT_EQ(merged.get("radio.rx"), 1);
  EXPECT_GT(merged.get("sim.shard.epochs"), 0);
}

TEST(ShardedSimTest, MoveNodeMaintainsLinksIncrementally) {
  sim::ShardedSim sim(params(2));
  const NodeId a = sim.add_node({0, 0});
  const NodeId b = sim.add_node({90, 0});
  sim.seal();
  RecordingHost ha(sim, a);
  RecordingHost hb(sim, b);
  sim.attach(a, &ha);
  sim.attach(b, &hb);
  sim.run_for(SimTime::from_millis(10));
  ASSERT_EQ(ha.ups, std::vector<NodeId>{b});
  ASSERT_EQ(hb.ups, std::vector<NodeId>{a});

  sim.move_node(b, {5000, 5000});
  EXPECT_TRUE(sim.neighbors(a).empty());
  sim.run_for(SimTime::from_millis(10));
  EXPECT_EQ(ha.downs, std::vector<NodeId>{b});
  EXPECT_EQ(hb.downs, std::vector<NodeId>{a});

  sim.move_node(b, {50, 0});
  EXPECT_EQ(sim.neighbors(a), std::vector<NodeId>{b});
  EXPECT_EQ(sim.neighbors(a), sim.topology().neighbors(a));
  sim.run_for(SimTime::from_millis(10));
  EXPECT_EQ(ha.ups, (std::vector<NodeId>{b, b}));
}

// --- emu::ShardedWorld ----------------------------------------------------

emu::ShardedWorld::Options world_options(std::uint32_t shards,
                                         std::uint64_t seed = 7) {
  emu::ShardedWorld::Options o;
  o.net = params(shards, seed);
  return o;
}

/// Per-node tuple-space snapshot: sorted "tag|content" lines, one per
/// local tuple — the strictest portable notion of "same contents".
std::vector<std::string> space_snapshot(const emu::ShardedWorld& world,
                                        NodeId node) {
  std::vector<std::string> out;
  for (const auto& t : world.mw(node).read(Pattern())) {
    out.push_back(t->type_tag() + "|" + t->content().str());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Builds a 12×12 grid world, injects two gradients and a flood, runs to
/// convergence, and returns it.
struct ConvergedWorld {
  explicit ConvergedWorld(std::uint32_t shards, std::uint64_t seed = 7)
      : world(world_options(shards, seed)) {
    nodes = world.spawn_grid(12, 12, 80.0);
    world.run_for(SimTime::from_millis(500));
    world.mw(nodes[0]).inject(std::make_unique<GradientTuple>("alpha"));
    world.mw(nodes[77]).inject(std::make_unique<GradientTuple>("beta"));
    world.mw(nodes[140]).inject(
        std::make_unique<FloodTuple>("notice", wire::Value{42}));
    world.run_for(SimTime::from_seconds(8));
  }
  emu::ShardedWorld world;
  std::vector<NodeId> nodes;
};

TEST(ShardedWorldTest, GradientIsBfsExactPerShardCount) {
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    ConvergedWorld cw(shards);
    const auto oracle = cw.world.net().topology().hop_distances(cw.nodes[0]);
    for (const NodeId n : cw.nodes) {
      const auto replica = cw.world.mw(n).read_one(
          Pattern::of_type(GradientTuple::kTag).eq("name", "alpha"));
      ASSERT_NE(replica, nullptr)
          << "node " << to_string(n) << " missed the field at " << shards
          << " shards";
      EXPECT_EQ(replica->content().at("hopcount").as_int(),
                oracle.at(n))
          << "node " << to_string(n) << " at " << shards << " shards";
    }
  }
}

TEST(ShardedWorldTest, FinalContentsIdenticalAcrossShardCounts) {
  ConvergedWorld one(1);
  ConvergedWorld two(2);
  ConvergedWorld four(4);
  for (std::size_t i = 0; i < one.nodes.size(); ++i) {
    const auto expect = space_snapshot(one.world, one.nodes[i]);
    EXPECT_FALSE(expect.empty());
    EXPECT_EQ(space_snapshot(two.world, two.nodes[i]), expect)
        << "node index " << i << ", 2 shards vs 1";
    EXPECT_EQ(space_snapshot(four.world, four.nodes[i]), expect)
        << "node index " << i << ", 4 shards vs 1";
  }
}

TEST(ShardedWorldTest, ChurnHealsBfsExactAcrossShards) {
  ConvergedWorld cw(4);
  // Teleport a mid-grid node (likely near a shard boundary) far away,
  // let the field self-heal, then bring it home and re-converge.
  const NodeId flapper = cw.nodes[66];
  const Vec2 home = cw.world.net().position(flapper);
  cw.world.move_node(flapper, {50000, 50000});
  cw.world.run_for(SimTime::from_seconds(5));
  cw.world.move_node(flapper, home);
  cw.world.run_for(SimTime::from_seconds(5));

  const auto oracle = cw.world.net().topology().hop_distances(cw.nodes[0]);
  const Pattern alpha =
      Pattern::of_type(GradientTuple::kTag).eq("name", "alpha");
  for (const NodeId n : cw.nodes) {
    const auto replica = cw.world.mw(n).read_one(alpha);
    ASSERT_NE(replica, nullptr);
    EXPECT_EQ(replica->content().at("hopcount").as_int(), oracle.at(n));
  }
}

TEST(ShardedWorldTest, SubscriptionsFireOnWorkerThreads) {
  emu::ShardedWorld world(world_options(4));
  const auto nodes = world.spawn_grid(8, 8, 80.0);
  std::atomic<std::uint64_t> reactions{0};
  world.seal();
  for (const NodeId n : nodes) {
    world.mw(n).subscribe(
        Pattern::of_type(GradientTuple::kTag),
        [&reactions](const Event&) {
          reactions.fetch_add(1, std::memory_order_relaxed);
        },
        static_cast<int>(EventKind::kTupleArrived));
  }
  world.mw(nodes[0]).inject(std::make_unique<GradientTuple>("field"));
  world.run_for(SimTime::from_seconds(5));
  // Every node but the source sees at least one arrival.
  EXPECT_GE(reactions.load(), nodes.size() - 1);
}

std::string metrics_fingerprint(std::uint32_t shards, std::uint64_t seed) {
  ConvergedWorld cw(shards, seed);
  obs::MetricsRegistry merged;
  cw.world.export_metrics(merged);
  return obs::metrics_to_json(merged).dump();
}

TEST(ShardedWorldTest, MetricsAreDeterministicPerShardCount) {
  // The determinism contract: same seed + same shard count ⇒ the whole
  // merged metrics document is bit-identical, threads and all.
  EXPECT_EQ(metrics_fingerprint(4, 7), metrics_fingerprint(4, 7));
  EXPECT_EQ(metrics_fingerprint(2, 7), metrics_fingerprint(2, 7));
  // And the seed matters: a different world is a different document.
  EXPECT_NE(metrics_fingerprint(4, 7), metrics_fingerprint(4, 8));
}

}  // namespace
}  // namespace tota
