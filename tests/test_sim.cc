// Unit tests for the network simulator substrate.
#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.h"
#include "sim/mobility.h"
#include "sim/network.h"
#include "sim/topology.h"

namespace tota::sim {
namespace {

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(SimTime{30}, [&] { order.push_back(3); });
  q.schedule_at(SimTime{10}, [&] { order.push_back(1); });
  q.schedule_at(SimTime{20}, [&] { order.push_back(2); });
  q.run_until(SimTime{100});
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), SimTime{100});
}

TEST(EventQueueTest, SameInstantFiresInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(SimTime{5}, [&order, i] { order.push_back(i); });
  }
  q.run_until(SimTime{5});
  std::vector<int> expected;
  for (int i = 0; i < 10; ++i) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule_at(SimTime{10}, [&] { fired = true; });
  q.cancel(id);
  q.run_until(SimTime{100});
  EXPECT_FALSE(fired);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) q.schedule_after(SimTime{10}, chain);
  };
  q.schedule_at(SimTime{0}, chain);
  q.run_until(SimTime{100});
  EXPECT_EQ(count, 5);
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  EventQueue q;
  bool late_fired = false;
  q.schedule_at(SimTime{50}, [&] { late_fired = true; });
  q.run_until(SimTime{49});
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(q.now(), SimTime{49});
  q.run_until(SimTime{50});
  EXPECT_TRUE(late_fired);
}

TEST(EventQueueTest, NextEventTimePeeksWithoutRunning) {
  EventQueue q;
  EXPECT_FALSE(q.next_event_time().has_value());
  q.schedule_at(SimTime{30}, [] {});
  const EventId early = q.schedule_at(SimTime{10}, [] {});
  ASSERT_TRUE(q.next_event_time().has_value());
  EXPECT_EQ(*q.next_event_time(), SimTime{10});
  // Cancelled tombstones at the top of the heap must be skipped.
  q.cancel(early);
  ASSERT_TRUE(q.next_event_time().has_value());
  EXPECT_EQ(*q.next_event_time(), SimTime{30});
  q.run_until(SimTime{100});
  EXPECT_FALSE(q.next_event_time().has_value());
}

TEST(EventQueueTest, SchedulingInPastThrows) {
  EventQueue q;
  q.schedule_at(SimTime{10}, [] {});
  q.run_until(SimTime{20});
  EXPECT_THROW(q.schedule_at(SimTime{5}, [] {}), std::invalid_argument);
}

TEST(TopologyTest, NeighborsWithinRange) {
  Topology topo(10.0);
  topo.add(NodeId{1}, {0, 0});
  topo.add(NodeId{2}, {5, 0});
  topo.add(NodeId{3}, {20, 0});
  EXPECT_EQ(topo.neighbors(NodeId{1}), (std::vector<NodeId>{NodeId{2}}));
  EXPECT_TRUE(topo.neighbors(NodeId{3}).empty());
}

TEST(TopologyTest, RangeBoundaryIsInclusive) {
  Topology topo(10.0);
  topo.add(NodeId{1}, {0, 0});
  topo.add(NodeId{2}, {10, 0});
  EXPECT_EQ(topo.neighbors(NodeId{1}).size(), 1u);
}

TEST(TopologyTest, MoveUpdatesNeighbors) {
  Topology topo(10.0);
  topo.add(NodeId{1}, {0, 0});
  topo.add(NodeId{2}, {50, 0});
  EXPECT_TRUE(topo.neighbors(NodeId{1}).empty());
  topo.move(NodeId{2}, {7, 0});
  EXPECT_EQ(topo.neighbors(NodeId{1}).size(), 1u);
}

TEST(TopologyTest, MoveAcrossGridCells) {
  Topology topo(10.0);
  topo.add(NodeId{1}, {0, 0});
  // Drag node 2 across several cells and verify the index tracks it.
  topo.add(NodeId{2}, {100, 100});
  for (double x = 100; x >= 0; x -= 9) topo.move(NodeId{2}, {x, x});
  topo.move(NodeId{2}, {3, 3});
  EXPECT_EQ(topo.neighbors(NodeId{1}).size(), 1u);
}

TEST(TopologyTest, RemoveForgetsNode) {
  Topology topo(10.0);
  topo.add(NodeId{1}, {0, 0});
  topo.add(NodeId{2}, {1, 0});
  topo.remove(NodeId{2});
  EXPECT_FALSE(topo.contains(NodeId{2}));
  EXPECT_TRUE(topo.neighbors(NodeId{1}).empty());
  EXPECT_THROW(topo.position(NodeId{2}), std::invalid_argument);
}

TEST(TopologyTest, DuplicateAddThrows) {
  Topology topo(10.0);
  topo.add(NodeId{1}, {0, 0});
  EXPECT_THROW(topo.add(NodeId{1}, {1, 1}), std::invalid_argument);
}

TEST(TopologyTest, HopDistancesMatchLineGraph) {
  Topology topo(10.0);
  for (int i = 0; i < 6; ++i) {
    topo.add(NodeId{static_cast<std::uint64_t>(i + 1)},
             {static_cast<double>(i) * 8.0, 0});
  }
  const auto dist = topo.hop_distances(NodeId{1});
  ASSERT_EQ(dist.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(dist.at(NodeId{static_cast<std::uint64_t>(i + 1)}), i);
  }
  EXPECT_EQ(topo.hop_distance(NodeId{1}, NodeId{6}), 5);
}

TEST(TopologyTest, DisconnectedIsDetected) {
  Topology topo(10.0);
  topo.add(NodeId{1}, {0, 0});
  topo.add(NodeId{2}, {100, 0});
  EXPECT_FALSE(topo.connected());
  EXPECT_EQ(topo.hop_distance(NodeId{1}, NodeId{2}), std::nullopt);
  topo.add(NodeId{3}, {50, 0});
  EXPECT_FALSE(topo.connected());
}

TEST(MobilityTest, StaticStaysPut) {
  StaticMobility m;
  Rng rng(1);
  EXPECT_EQ(m.step({3, 4}, SimTime::from_seconds(10), rng), (Vec2{3, 4}));
}

TEST(MobilityTest, WaypointToReachesTarget) {
  WaypointTo m(10.0);  // 10 m/s
  Rng rng(1);
  m.set_target({100, 0});
  Vec2 pos{0, 0};
  pos = m.step(pos, SimTime::from_seconds(1), rng);
  EXPECT_NEAR(pos.x, 10.0, 1e-9);
  EXPECT_FALSE(m.idle());
  pos = m.step(pos, SimTime::from_seconds(20), rng);
  EXPECT_EQ(pos, (Vec2{100, 0}));
  EXPECT_TRUE(m.idle());
}

TEST(MobilityTest, RandomWaypointStaysInArena) {
  const Rect arena{{0, 0}, {100, 100}};
  RandomWaypoint m(arena, 1.0, 5.0);
  Rng rng(42);
  Vec2 pos{50, 50};
  for (int i = 0; i < 500; ++i) {
    pos = m.step(pos, SimTime::from_millis(100), rng);
    ASSERT_TRUE(arena.contains(pos)) << to_string(pos);
  }
}

TEST(MobilityTest, RandomWaypointActuallyMoves) {
  const Rect arena{{0, 0}, {100, 100}};
  RandomWaypoint m(arena, 2.0, 2.0);
  Rng rng(7);
  const Vec2 start{50, 50};
  Vec2 pos = start;
  for (int i = 0; i < 100; ++i) pos = m.step(pos, SimTime::from_millis(100), rng);
  EXPECT_GT(distance(start, pos), 0.0);
}

TEST(MobilityTest, VelocityMobilityIntegratesAndClamps) {
  const Rect arena{{0, 0}, {100, 100}};
  VelocityMobility m(arena, 5.0);
  Rng rng(1);
  m.set_velocity({3, 4});  // norm 5, at the cap
  Vec2 pos = m.step({0, 0}, SimTime::from_seconds(1), rng);
  EXPECT_NEAR(pos.x, 3.0, 1e-9);
  EXPECT_NEAR(pos.y, 4.0, 1e-9);
  m.set_velocity({30, 40});  // above cap: scaled to 5 m/s
  EXPECT_NEAR(m.velocity().norm(), 5.0, 1e-9);
  pos = m.step({99, 99}, SimTime::from_seconds(10), rng);
  EXPECT_TRUE(arena.contains(pos));
}

class RecordingHost : public Host {
 public:
  void on_datagram(NodeId from,
                   std::shared_ptr<const wire::Bytes> payload) override {
    datagrams.push_back({from, *payload});
  }
  void on_neighbor_up(NodeId n) override { ups.push_back(n); }
  void on_neighbor_down(NodeId n) override { downs.push_back(n); }

  std::vector<std::pair<NodeId, wire::Bytes>> datagrams;
  std::vector<NodeId> ups;
  std::vector<NodeId> downs;
};

NetworkParams quiet_params() {
  NetworkParams p;
  p.radio.range_m = 10.0;
  p.radio.jitter = SimTime::zero();
  p.seed = 99;
  return p;
}

TEST(NetworkTest, BroadcastReachesNeighborsOnly) {
  Network net(quiet_params());
  RecordingHost h1;
  RecordingHost h2;
  RecordingHost h3;
  const NodeId a = net.add_node({0, 0});
  const NodeId b = net.add_node({5, 0});
  const NodeId c = net.add_node({50, 0});
  net.attach(a, &h1);
  net.attach(b, &h2);
  net.attach(c, &h3);

  net.broadcast(a, {1, 2, 3});
  net.run_for(SimTime::from_seconds(1));

  ASSERT_EQ(h2.datagrams.size(), 1u);
  EXPECT_EQ(h2.datagrams[0].first, a);
  EXPECT_EQ(h2.datagrams[0].second, (wire::Bytes{1, 2, 3}));
  EXPECT_TRUE(h3.datagrams.empty());
  EXPECT_TRUE(h1.datagrams.empty());  // no self-delivery
  EXPECT_EQ(net.counters().get("radio.tx"), 1);
  EXPECT_EQ(net.counters().get("radio.rx"), 1);
}

TEST(NetworkTest, LinkEventsOnJoin) {
  Network net(quiet_params());
  RecordingHost h1;
  RecordingHost h2;
  const NodeId a = net.add_node({0, 0});
  net.attach(a, &h1);
  const NodeId b = net.add_node({5, 0});
  net.attach(b, &h2);
  net.run_for(SimTime::from_seconds(1));
  EXPECT_EQ(h1.ups, std::vector<NodeId>{b});
  EXPECT_EQ(h2.ups, std::vector<NodeId>{a});
}

TEST(NetworkTest, LinkEventsOnDeparture) {
  Network net(quiet_params());
  RecordingHost h1;
  const NodeId a = net.add_node({0, 0});
  const NodeId b = net.add_node({5, 0});
  net.attach(a, &h1);
  net.run_for(SimTime::from_seconds(1));
  net.remove_node(b);
  net.run_for(SimTime::from_seconds(1));
  EXPECT_EQ(h1.downs, std::vector<NodeId>{b});
  EXPECT_FALSE(net.alive(b));
}

TEST(NetworkTest, LinkEventsOnMove) {
  Network net(quiet_params());
  RecordingHost h1;
  const NodeId a = net.add_node({0, 0});
  const NodeId b = net.add_node({5, 0});
  net.attach(a, &h1);
  net.run_for(SimTime::from_seconds(1));
  net.move_node(b, {100, 0});
  net.run_for(SimTime::from_seconds(1));
  EXPECT_EQ(h1.downs, std::vector<NodeId>{b});
  net.move_node(b, {7, 0});
  net.run_for(SimTime::from_seconds(1));
  EXPECT_EQ(h1.ups.size(), 2u);
}

TEST(NetworkTest, LossDropsFrames) {
  NetworkParams p = quiet_params();
  p.radio.loss_probability = 1.0;
  Network net(p);
  RecordingHost h2;
  const NodeId a = net.add_node({0, 0});
  const NodeId b = net.add_node({5, 0});
  net.attach(b, &h2);
  net.broadcast(a, {42});
  net.run_for(SimTime::from_seconds(1));
  EXPECT_TRUE(h2.datagrams.empty());
  EXPECT_EQ(net.counters().get("radio.lost"), 1);
}

TEST(NetworkTest, DetectDelayPostponesLinkEvents) {
  NetworkParams p = quiet_params();
  p.link_detect_delay = SimTime::from_seconds(2);
  Network net(p);
  RecordingHost h1;
  const NodeId a = net.add_node({0, 0});
  net.attach(a, &h1);
  net.add_node({5, 0});
  net.run_for(SimTime::from_seconds(1));
  EXPECT_TRUE(h1.ups.empty());
  net.run_for(SimTime::from_seconds(2));
  EXPECT_EQ(h1.ups.size(), 1u);
}

TEST(NetworkTest, MobilityTickMovesNodes) {
  NetworkParams p = quiet_params();
  Network net(p);
  const NodeId a =
      net.add_node({0, 0}, std::make_unique<VelocityMobility>(
                               Rect{{0, 0}, {1000, 1000}}, 100.0));
  net.set_velocity(a, {10, 0});
  net.run_for(SimTime::from_seconds(1));
  EXPECT_NEAR(net.position(a).x, 10.0, 1.5);
}

TEST(NetworkTest, SetVelocityWithoutModelThrows) {
  Network net(quiet_params());
  const NodeId a = net.add_node({0, 0});
  EXPECT_THROW(net.set_velocity(a, {1, 0}), std::invalid_argument);
}

TEST(NetworkTest, DeterministicAcrossRuns) {
  auto run = [] {
    Network net(quiet_params());
    RecordingHost h;
    const NodeId a = net.add_node({0, 0});
    const NodeId b = net.add_node({5, 0});
    net.attach(b, &h);
    (void)a;
    for (int i = 0; i < 10; ++i) net.broadcast(a, {static_cast<uint8_t>(i)});
    net.run_for(SimTime::from_seconds(1));
    return h.datagrams.size();
  };
  EXPECT_EQ(run(), run());
}

TEST(RadioTest, DelayIncludesSerializationAtFiniteBandwidth) {
  RadioParams params;
  params.base_delay = SimTime::from_millis(1);
  params.jitter = SimTime::zero();
  params.bandwidth_bps = 8000.0;  // 1 byte per millisecond
  Radio radio(params);
  Rng rng(1);
  EXPECT_EQ(radio.delay(rng, 0).millis(), 1.0);
  EXPECT_EQ(radio.delay(rng, 100).millis(), 101.0);
}

TEST(RadioTest, InfiniteBandwidthIgnoresPayloadSize) {
  RadioParams params;
  params.base_delay = SimTime::from_millis(2);
  params.jitter = SimTime::zero();
  Radio radio(params);
  Rng rng(1);
  EXPECT_EQ(radio.delay(rng, 1 << 20), radio.delay(rng, 0));
}

TEST(RadioTest, JitterBoundsTheDelay) {
  RadioParams params;
  params.base_delay = SimTime::from_millis(2);
  params.jitter = SimTime::from_millis(3);
  Radio radio(params);
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const SimTime d = radio.delay(rng, 0);
    EXPECT_GE(d, SimTime::from_millis(2));
    EXPECT_LT(d, SimTime::from_millis(5));
  }
}

TEST(WiredTopologyTest, ExplicitLinksDefineNeighborhood) {
  Topology topo(100.0, Topology::Mode::kExplicit);
  topo.add(NodeId{1}, {0, 0});
  topo.add(NodeId{2}, {5, 0});     // physically adjacent…
  topo.add(NodeId{3}, {5000, 0});  // …and physically far
  // …but only the explicit links matter.
  EXPECT_TRUE(topo.neighbors(NodeId{1}).empty());
  topo.add_link(NodeId{1}, NodeId{3});
  EXPECT_EQ(topo.neighbors(NodeId{1}), std::vector<NodeId>{NodeId{3}});
  EXPECT_EQ(topo.neighbors(NodeId{3}), std::vector<NodeId>{NodeId{1}});
  EXPECT_TRUE(topo.neighbors(NodeId{2}).empty());
}

TEST(WiredTopologyTest, RemoveLinkAndNode) {
  Topology topo(100.0, Topology::Mode::kExplicit);
  topo.add(NodeId{1}, {0, 0});
  topo.add(NodeId{2}, {1, 0});
  topo.add(NodeId{3}, {2, 0});
  topo.add_link(NodeId{1}, NodeId{2});
  topo.add_link(NodeId{2}, NodeId{3});
  topo.remove_link(NodeId{1}, NodeId{2});
  EXPECT_TRUE(topo.neighbors(NodeId{1}).empty());
  topo.remove(NodeId{2});
  EXPECT_TRUE(topo.neighbors(NodeId{3}).empty());
}

TEST(WiredTopologyTest, GuardsAgainstMisuse) {
  Topology disc(100.0);
  disc.add(NodeId{1}, {0, 0});
  disc.add(NodeId{2}, {1, 0});
  EXPECT_THROW(disc.add_link(NodeId{1}, NodeId{2}), std::logic_error);

  Topology wired(100.0, Topology::Mode::kExplicit);
  wired.add(NodeId{1}, {0, 0});
  EXPECT_THROW(wired.add_link(NodeId{1}, NodeId{9}), std::invalid_argument);
  EXPECT_THROW(wired.add_link(NodeId{1}, NodeId{1}), std::invalid_argument);
}

TEST(WiredTopologyTest, HopDistancesFollowLinks) {
  Topology topo(1.0, Topology::Mode::kExplicit);
  for (std::uint64_t i = 1; i <= 4; ++i) topo.add(NodeId{i}, {0, 0});
  topo.add_link(NodeId{1}, NodeId{2});
  topo.add_link(NodeId{2}, NodeId{3});
  topo.add_link(NodeId{3}, NodeId{4});
  EXPECT_EQ(topo.hop_distance(NodeId{1}, NodeId{4}), 3);
  topo.add_link(NodeId{1}, NodeId{4});  // shortcut
  EXPECT_EQ(topo.hop_distance(NodeId{1}, NodeId{4}), 1);
}

TEST(WiredNetworkTest, ConnectDisconnectFireLinkEvents) {
  NetworkParams p = quiet_params();
  p.wired = true;
  Network net(p);
  RecordingHost h1;
  RecordingHost h2;
  const NodeId a = net.add_node({0, 0});
  const NodeId b = net.add_node({1000, 1000});  // distance is irrelevant
  net.attach(a, &h1);
  net.attach(b, &h2);
  net.run_for(SimTime::from_seconds(1));
  EXPECT_TRUE(h1.ups.empty());

  net.connect(a, b);
  net.run_for(SimTime::from_seconds(1));
  EXPECT_EQ(h1.ups, std::vector<NodeId>{b});

  net.broadcast(a, {7});
  net.run_for(SimTime::from_seconds(1));
  EXPECT_EQ(net.counters().get("radio.rx"), 1);

  net.disconnect(a, b);
  net.run_for(SimTime::from_seconds(1));
  EXPECT_EQ(h1.downs, std::vector<NodeId>{b});
}

}  // namespace
}  // namespace tota::sim
