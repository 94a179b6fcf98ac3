// grid_flood and grid_churn_read: a 100 × 100 degree-4 grid on
// emu::ShardedWorld, driven through the Middleware API.
//
// Every node holds typed subscriptions (one per structure type) whose
// reactions feed a FieldTracker.  The tracker only tells the workload when
// to stop polling; correctness is judged by reading every node through
// Middleware::read and comparing with the closed-form Manhattan field.
#include <algorithm>
#include <cstdio>
#include <random>
#include <set>

#include "emu/sharded_world.h"
#include "tuples/aggregator.h"
#include "tuples/all.h"
#include "workloads.h"

namespace perfbench {

using namespace tota;

namespace {

constexpr int kSide = 100;
constexpr double kSpacing = 80.0;
/// Three shard workers plus the driving thread: nproc (4) threads.
constexpr std::uint32_t kShards = 3;
/// Simulated time advanced between two convergence polls.
constexpr SimTime kStep = SimTime::from_millis(10);
/// Wall-clock deadline of one timed operation (times --deadline-scale).
constexpr double kDeadlineS = 60.0;
/// Rounds whose simulated figures a run reports (every run completes
/// them, however slow the host).
constexpr std::size_t kFloodSimRounds = 8;
constexpr std::size_t kChurnSimRounds = 48;

const char* const kTypes[] = {tuples::GradientTuple::kTag,
                              tuples::AdvertTuple::kTag,
                              tuples::FlockTuple::kTag,
                              tuples::FloodTuple::kTag};

/// One injected structure: type tag, name, source node index.
struct Structure {
  int type = 0;  // index into kTypes
  std::string name;
  int source = 0;
};

/// The seeded inputs of a grid workload.  One fixed canonical layout
/// (structure sources, census sink, probe node, churn cohorts) is mapped
/// through the grid symmetry the seed picks (one of eight), and the seed
/// also seeds the simulator's random streams.  Every seed thus runs an
/// isomorphic scenario under its own radio jitter.
class Layout {
 public:
  Layout(const Grid& grid, std::uint64_t seed)
      : grid_(grid), symmetry_(static_cast<int>(seed % 8)),
        world_seed_(seed * 7919 + 11) {
    // Structure 0 sits on a corner, so the farthest node is 198 hops
    // from it; the probe is its neighbour along the row, so removing the
    // probe re-routes the rest of that row around it.
    taken_ = {0, 1};
    std::mt19937_64 rng(kCanonicalSeed);
    const char* const names[] = {"g0", "g1", "g2", "g3", "a0",
                                 "a1", "FLOCK", "FLOCK", "f0", "f1"};
    const int types[] = {0, 0, 0, 0, 1, 1, 2, 2, 3, 3};
    for (int k = 0; k < 10; ++k) {
      structures.push_back({types[k], names[k], map(k == 0 ? 0 : fresh(rng))});
    }
    sink = map(fresh(rng));
    probe = map(1);
  }

  /// The simulator seed of world `round` (a workload that builds one
  /// world uses round 0).
  std::uint64_t world_seed(std::size_t round = 0) const {
    return world_seed_ + 104729 * round;
  }
  /// The `count` nodes of churn round `round`, none of them a source,
  /// the sink or the probe.
  std::vector<int> cohort(std::size_t round, int count) const {
    std::mt19937_64 rng(kCanonicalSeed + 1 + round);
    std::set<int> chosen;
    while (static_cast<int>(chosen.size()) < count) {
      const int n = static_cast<int>(rng() % grid_.size());
      if (taken_.count(n) == 0) chosen.insert(n);
    }
    std::vector<int> out;
    for (const int n : chosen) out.push_back(map(n));
    return out;
  }

  std::vector<Structure> structures;
  int sink = 0;
  int probe = 0;

 private:
  static constexpr std::uint64_t kCanonicalSeed = 2003;

  int fresh(std::mt19937_64& rng) {
    for (;;) {
      const int n = static_cast<int>(rng() % grid_.size());
      if (taken_.insert(n).second) return n;
    }
  }
  /// Canonical node index -> this seed's node index.
  int map(int n) const {
    int r = n / grid_.cols, c = n % grid_.cols;
    if (symmetry_ & 1) std::swap(r, c);
    if (symmetry_ & 2) r = grid_.rows - 1 - r;
    if (symmetry_ & 4) c = grid_.cols - 1 - c;
    return r * grid_.cols + c;
  }

  Grid grid_;
  int symmetry_;
  std::uint64_t world_seed_;
  std::set<int> taken_;  // canonical sources, sink and probe
};

std::unique_ptr<Tuple> make_tuple(const Structure& s) {
  switch (s.type) {
    case 0:
      return std::make_unique<tuples::GradientTuple>(s.name);
    case 1:
      return std::make_unique<tuples::AdvertTuple>(s.name);
    case 2:
      return std::make_unique<tuples::FlockTuple>(/*target_distance=*/3);
    default:
      return std::make_unique<tuples::FloodTuple>(s.name, wire::Value{7});
  }
}

/// A sealed grid world with the structure tracker attached.
class GridWorld {
 public:
  GridWorld(std::uint64_t seed, const std::vector<Structure>& structures,
            double deadline_s)
      : structures_(structures),
        tracker_(grid_.size(), static_cast<int>(structures.size())),
        deadline_s_(deadline_s) {
    emu::ShardedWorld::Options opts;
    opts.net.radio.range_m = 100.0;
    opts.net.seed = seed;
    opts.net.shards = kShards;
    world_ = std::make_unique<emu::ShardedWorld>(opts);
    ids_ = world_->spawn_grid(kSide, kSide, kSpacing);
    world_->seal();
    std::uint64_t max_id = 0;
    for (const NodeId id : ids_) max_id = std::max(max_id, id.value());
    index_of_.assign(max_id + 1, -1);
    for (int i = 0; i < static_cast<int>(ids_.size()); ++i) {
      index_of_[ids_[i].value()] = i;
    }
    const int n = grid_.size();
    const int s = static_cast<int>(structures_.size());
    struct_of_source_.assign(n, -1);
    for (int k = 0; k < s; ++k) struct_of_source_[structures_[k].source] = k;
    for (int k = 0; k < s; ++k) {
      full_.push_back(grid_field(grid_, structures_[k].source));
    }
    expected_ = full_;
    // Typed subscriptions on every node: reactions run on the node's
    // shard thread and write only that node's tracker cells.
    for (int i = 0; i < n; ++i) {
      for (const char* type : kTypes) {
        world_->mw(ids_[i]).subscribe(
            Pattern::of_type(type), [this, i](const Event& ev) {
              const int k = structure_of(*ev.tuple);
              if (k >= 0) tracker_.record(i, k, ev);
            });
      }
    }
  }

  emu::ShardedWorld& world() { return *world_; }
  Middleware& mw(int i) { return world_->mw(ids_[i]); }
  NodeId id(int i) const { return ids_[i]; }
  int structures() const { return static_cast<int>(structures_.size()); }
  const FieldTracker& tracker() const { return tracker_; }
  /// Tracker cells that differ from the fields over the present nodes.
  int tracker_errors() const { return tracker_.errors(expected_); }
  /// Runs the sim in steps until `done()` holds; false when the
  /// wall-clock deadline passed first.
  bool run_until(const std::function<bool()>& done) {
    return poll_until([this] { step(); }, done, deadline_s_);
  }

  int structure_of(const Tuple& t) const {
    const std::uint64_t origin = t.uid().origin().value();
    if (origin >= index_of_.size() || index_of_[origin] < 0) return -1;
    return struct_of_source_[index_of_[origin]];
  }

  /// Sets which nodes are on the grid; the tracker is then judged
  /// against BFS fields over the present nodes.
  void set_present(const std::vector<bool>& present) {
    if (std::count(present.begin(), present.end(), false) == 0) {
      expected_ = full_;
      return;
    }
    for (int k = 0; k < structures(); ++k) {
      expected_[k] = grid_field(grid_, structures_[k].source, present);
    }
  }

  void inject_all() {
    for (const Structure& s : structures_) mw(s.source).inject(make_tuple(s));
  }

  /// Advances the sim by one poll step, timing it.
  void step() {
    const auto t0 = Clock::now();
    const double c0 = cpu_seconds();
    world_->run_for(kStep);
    run_s_ += seconds_since(t0);
    cpu_s_ += cpu_seconds() - c0;
  }
  /// Host seconds and process CPU seconds spent inside run_for.
  double run_s() const { return run_s_; }
  double cpu_s() const { return cpu_s_; }

  /// Reads every structure on every node through Middleware::read and
  /// counts the nodes whose replica differs from the closed-form field.
  /// Each read call's host time is appended to `read_ns`.
  int verify_by_read(std::vector<double>& read_ns) {
    const int s = structures();
    std::vector<HopView> seen(s, HopView(grid_.size(), -1));
    for (int i = 0; i < grid_.size(); ++i) {
      for (const char* type : kTypes) {
        const Pattern p = Pattern::of_type(type);
        const auto t0 = Clock::now();
        const auto found = mw(i).read(p);
        read_ns.push_back(seconds_since(t0) * 1e9);
        for (const auto& t : found) {
          const int k = structure_of(*t);
          if (k >= 0) seen[k][i] = hopcount(*t);
        }
      }
    }
    int errors = 0;
    for (int k = 0; k < s; ++k) errors += hop_errors(seen[k], full_[k]);
    return errors;
  }

  obs::MetricsRegistry metrics() const {
    obs::MetricsRegistry m;
    world_->export_metrics(m);
    return m;
  }

  /// Copies of every replica stored on a sample of nodes (the traced
  /// run's replay inputs).
  std::vector<std::unique_ptr<Tuple>> sample_replicas(int every) {
    std::vector<std::unique_ptr<Tuple>> out;
    for (int i = 0; i < grid_.size(); i += every) {
      for (const char* type : kTypes) {
        for (auto& t : mw(i).read(Pattern::of_type(type))) out.push_back(std::move(t));
      }
    }
    return out;
  }

 private:
  Grid grid_{kSide, kSide};
  std::vector<Structure> structures_;
  std::unique_ptr<emu::ShardedWorld> world_;
  std::vector<NodeId> ids_;
  std::vector<int> index_of_;
  std::vector<int> struct_of_source_;
  FieldTracker tracker_;
  std::vector<HopView> full_;      // closed-form fields, full grid
  std::vector<HopView> expected_;  // fields over the present nodes
  double deadline_s_;
  double run_s_ = 0;
  double cpu_s_ = 0;
};

/// Counter deltas between two exports.
struct Delta {
  const obs::MetricsRegistry& before;
  const obs::MetricsRegistry& after;
  double operator()(const char* name) const {
    return static_cast<double>(after.get(name) - before.get(name));
  }
};

/// The sim's per-layer counters, then every other layer's.
void sim_layer_metrics(Result& r, const Delta& d) {
  r.set("sim.epochs", d("sim.shard.epochs"));
  r.set("sim.barrier_waits", d("sim.shard.barrier_waits"));
  r.set("sim.cross_deliveries", d("sim.shard.cross_deliveries"));
  r.set("sim.rx_per_tx", ratio(d("radio.rx"), d("radio.tx")));
  r.set("wire.bytes_per_msg", ratio(d("radio.tx_bytes"), d("radio.tx")));
  layer_counters(r, d, d.after.find_histogram("maint.repair_ms"));
}

/// Replays the workload's own stored replicas through the wire, engine
/// and space entry points.
void replay_layers(Result& r, GridWorld& g, const Delta& d) {
  const auto replicas = g.sample_replicas(97);
  const WireTimes wire = replay_wire(replicas);
  r.set("wire.encode_ns_per_frame", wire.encode_ns);
  r.set("wire.decode_ns_per_frame", wire.decode_ns);
  const RxMix mix{d("engine.store"), d("engine.drop.duplicate"),
                  d("engine.drop.holddown")};
  r.set("engine.rx_ns_per_frame", replay_engine_rx(replicas, mix));
  r.set("space.put_ns_per_call", replay_space_put(replicas));
}

/// The live-only per-layer metrics, which a grid run does not exercise.
void no_live_layers(Result& r) {
  for (const char* name :
       {"net.datagram_decode_ns", "net.batch_chunks_per_datagram",
        "net.rel_rtx_per_tx", "net.sync_resend", "net.hello_rx",
        "loop.wakeups", "loop.fd_events_per_wakeup", "loop.timers_fired"}) {
    r.set(name, 0.0);
  }
}

/// How long one topology change took to settle.
struct Settle {
  bool met = false;    // false: the wall-clock deadline passed first
  double sim_ms = 0;   // protocol ms until every structure was exact
  double host_ms = 0;  // host ms of the moves and the polling
};

/// Moves `nodes` to `to` (recording where they were in `from`), with
/// `present` the grid membership afterwards, and polls until every
/// structure is exact for that topology and `extra()` holds.  `move_ns`
/// gets one sample per move_node call.
Settle change_topology(GridWorld& g, const std::vector<int>& nodes,
                       const std::vector<Vec2>& to, std::vector<Vec2>* from,
                       const std::vector<bool>& present,
                       const std::function<bool()>& extra,
                       std::vector<double>& move_ns) {
  const auto t0 = Clock::now();
  const std::int64_t start_us = g.world().now().micros();
  for (std::size_t k = 0; k < nodes.size(); ++k) {
    if (from != nullptr) from->push_back(g.world().net().position(g.id(nodes[k])));
    const auto m0 = Clock::now();
    g.world().move_node(g.id(nodes[k]), to[k]);
    move_ns.push_back(seconds_since(m0) * 1e9);
  }
  g.set_present(present);
  // extra() is polled at step granularity; the tracker's change times
  // are exact.
  std::int64_t extra_us = -1;
  Settle out;
  out.met = g.run_until([&] {
    const bool ok = extra();
    if (!ok) extra_us = -1;
    else if (extra_us < 0) extra_us = g.world().now().micros();
    return ok && g.tracker_errors() == 0;
  });
  out.host_ms = seconds_since(t0) * 1e3;
  const std::int64_t done_us =
      std::max({start_us, g.tracker().last_change_us(), extra_us});
  out.sim_ms = 1e-3 * static_cast<double>(done_us - start_us);
  return out;
}

/// Positions out of range of the grid and of each other.
std::vector<Vec2> far_away(std::size_t count) {
  std::vector<Vec2> out;
  for (std::size_t k = 0; k < count; ++k) {
    out.push_back(Vec2{100000.0 + 500.0 * static_cast<double>(k), 100000.0});
  }
  return out;
}

/// Host-side figures, one sample per measured round: a burst of load
/// from outside the benchmark moves one sample, not the run's figure.
struct HostRounds {
  std::vector<double> wall_s, replicas_per_s, sim_rate, cpu_us_per_rx, run_ns;

  /// One round: its host seconds, counter deltas, and the host and
  /// process CPU seconds spent inside run_for advancing `node_sim_s`
  /// node-seconds of simulated time.
  void add(double wall, const Delta& d, double run_s, double cpu_s, double node_sim_s) {
    wall_s.push_back(wall);
    replicas_per_s.push_back(ratio(d("engine.store"), wall));
    sim_rate.push_back(ratio(node_sim_s, run_s));
    cpu_us_per_rx.push_back(ratio(cpu_s * 1e6, d("radio.rx")));
    run_ns.push_back(run_s * 1e9);
  }
  void report(Result& r) const {
    r.set("host.wall_s", median(wall_s));
    r.set("host.replicas_per_s", median(replicas_per_s));
    r.set("host.sim_rate", median(sim_rate));
    r.set("host.cpu_us_per_datagram", median(cpu_us_per_rx));
    r.set("sim.run_ns", median(run_ns));
  }
};

/// Checks the grid's fan-out bound: one transmission reaches at most
/// the four grid neighbours.
void check_fanout(Result& r, const obs::MetricsRegistry& m) {
  r.check(m.get("radio.rx") <= 4 * m.get("radio.tx"),
          "radio.rx > 4 * radio.tx on a degree-4 grid");
}

}  // namespace

// --- grid_flood ---------------------------------------------------------------
//
// Each round builds a fresh world with the same seeded inputs, injects
// the ten structures, runs until every one is complete and exact, flaps
// one probe node out and back (the round's only maintenance), and reads
// every node to verify.  The three timed steps are the round's
// operations; a step after a missed deadline is not run and counts as
// failed too, so every round attempts three.  Round k's world is seeded
// from (seed, k); the simulated metrics come from the first
// kFloodSimRounds rounds, which every run completes, so they repeat
// exactly per seed.
Result run_grid_flood(const Args& args) {
  Result r;
  tuples::register_standard_tuples();
  const Grid grid{kSide, kSide};
  const Layout layout(grid, args.seed);
  const auto& structures = layout.structures;
  const std::vector<int> probe{layout.probe};
  const std::vector<bool> all_present(grid.size(), true);
  std::vector<bool> probe_out = all_present;
  probe_out[probe[0]] = false;

  std::vector<double> converge_ms, converge_sim, retract_sim, repair_sim;
  std::vector<double> read_ns, move_ns;
  HostRounds host;
  double sim_stores = 0, sim_tx = 0, setup_s = 0;

  const auto measure_start = Clock::now();
  for (std::size_t round = 0;; ++round) {
    GridWorld g(layout.world_seed(round), structures, kDeadlineS * args.deadline_scale);
    g.world().run_for(SimTime::from_millis(20));  // links up
    if (round == 0) setup_s = since_process_start();
    else if (round >= kFloodSimRounds && seconds_since(measure_start) >= args.seconds) {
      break;
    }

    const auto before = g.metrics();
    const double run0 = g.run_s(), cpu0 = g.cpu_s();
    const std::int64_t sim0 = g.world().now().micros();
    const auto t0 = Clock::now();

    // The flood.
    const std::int64_t inject_us = g.world().now().micros();
    g.inject_all();
    const bool converged = g.run_until([&] { return g.tracker_errors() == 0; });
    const double flood_ms = seconds_since(t0) * 1e3;
    const double flood_sim = g.tracker().mean_settle_ms(inject_us);

    // The probe flap: out (the structures route around the hole), back.
    std::vector<Vec2> home;
    const auto always = [] { return true; };
    Settle out, back;
    if (converged) {
      out = change_topology(g, probe, far_away(1), &home, probe_out, always, move_ns);
    }
    if (out.met) {
      back = change_topology(g, probe, home, nullptr, all_present, always, move_ns);
    }
    r.operation(converged);
    r.operation(out.met);
    r.operation(back.met);
    if (!back.met) continue;
    const double wall = seconds_since(t0);
    converge_ms.push_back(flood_ms);

    const auto after = g.metrics();
    const Delta d{before, after};
    if (round < kFloodSimRounds) {
      converge_sim.push_back(flood_sim);
      retract_sim.push_back(out.sim_ms);
      repair_sim.push_back(back.sim_ms);
      sim_stores += d("engine.store");
      sim_tx += d("radio.tx");
    }
    host.add(wall, d, g.run_s() - run0, g.cpu_s() - cpu0,
             grid.size() * 1e-6 * static_cast<double>(g.world().now().micros() - sim0));

    // Output checks, after the flap has healed.
    const int wrong = g.verify_by_read(read_ns);
    r.check(wrong == 0, "grid_flood: " + std::to_string(wrong) +
                            " replicas differ from the Manhattan field");
    check_fanout(r, after);

    if (args.trace && !r.metrics.count("sim.epochs")) {  // first whole round
      sim_layer_metrics(r, d);
      replay_layers(r, g, d);
    }
  }

  r.set("setup_s", setup_s);
  host.report(r);
  r.set("msgs_per_replica", ratio(sim_tx, sim_stores));
  r.set("host.converge_ms", median(converge_ms));
  r.set("converge_sim_ms", median(converge_sim));
  r.set("retract_ms", median(retract_sim));
  r.set("repair_sim_ms", median(repair_sim));
  r.set("host.read_ns_p50", quantile(read_ns, 0.5));
  r.set("host.read_ns_p99", quantile(read_ns, 0.99));
  if (args.trace) {
    r.set("sim.move_ns_per_call", median(move_ns));
    no_live_layers(r);
  }
  std::fprintf(stderr, "grid_flood: %zu rounds\n", host.wall_s.size());
  return r;
}

// --- grid_churn_read ----------------------------------------------------------
//
// Set-up builds the world, an Aggregator per node and standing
// continuous queries on every 64th node.  The measured phase floods the
// ten structures plus a census AggregationTuple (count of nodes) from a
// seeded sink, then runs rounds.  Each round flaps a seeded cohort of 40
// nodes out of the grid and back, polling after each move until every
// structure is exact for the new topology and the census equals the
// number of nodes connected to the sink, then runs the app-tick read
// sweep (read_one + predicate peek on every node) and checks every
// continuous query against a fresh read.  The two flaps are the round's
// operations; both always run, since the cohort has to come back, but a
// round with a missed deadline skips its reads and checks (its world has
// not settled).  The simulated metrics come from the first
// kChurnSimRounds rounds, which every run completes, so they repeat
// exactly per seed.
Result run_grid_churn_read(const Args& args) {
  constexpr int kCohort = 40;
  constexpr int kQueryEvery = 64;
  Result r;
  tuples::register_standard_tuples();
  const Grid grid{kSide, kSide};
  const Layout layout(grid, args.seed);
  const auto& structures = layout.structures;
  const int sink = layout.sink;
  const std::vector<bool> all_present(grid.size(), true);

  GridWorld g(layout.world_seed(), structures, kDeadlineS * args.deadline_scale);
  std::vector<std::unique_ptr<tuples::Aggregator>> aggs;
  for (int i = 0; i < grid.size(); ++i) {
    aggs.push_back(std::make_unique<tuples::Aggregator>(g.mw(i)));
    aggs.back()->set_sensor("census", 1.0);
  }
  auto census = [&] { return aggs[sink]->result("census").value_or(-1.0); };

  // Standing continuous queries: nearby gradient replicas.
  Pattern near = Pattern::of_type(tuples::GradientTuple::kTag);
  near.where("hopcount", Pred::le(24));
  struct Query {
    int node;
    QueryTally tally;
  };
  std::vector<std::unique_ptr<Query>> queries;
  for (int i = 0; i < grid.size(); i += kQueryEvery) {
    queries.push_back(std::make_unique<Query>(Query{i, {}}));
    QueryTally* tally = &queries.back()->tally;
    g.mw(i).subscribe_query(near, [tally](const QueryDelta& d) {
      const QueryTally::Kind kind =
          d.kind == QueryDelta::Kind::kAdded     ? QueryTally::Kind::kAdded
          : d.kind == QueryDelta::Kind::kUpdated ? QueryTally::Kind::kUpdated
                                                 : QueryTally::Kind::kRemoved;
      tally->apply(kind, {d.tuple->uid().origin().value(), d.tuple->uid().sequence()});
    });
  }

  // Set-up ends with the links up.  The measured phase opens with the
  // flood (its simulated convergence is this workload's converge_sim_ms)
  // and the census, then runs the churn rounds.
  g.world().run_for(SimTime::from_millis(20));
  const double setup_s = since_process_start();
  const auto measure_start = Clock::now();
  const std::int64_t inject_us = g.world().now().micros();
  g.inject_all();
  const bool flooded = g.run_until([&] { return g.tracker_errors() == 0; });
  const double converge_sim = g.tracker().mean_settle_ms(inject_us);
  aggs[sink]->ask(std::make_unique<tuples::AggregationTuple>("census", tuples::AggOp::kCount));
  const bool counted =
      flooded && g.run_until([&] { return census_exact(census(), grid, all_present, sink); });
  r.operation(flooded);
  r.operation(counted);
  std::vector<double> unsampled;
  if (counted) {
    r.check(g.verify_by_read(unsampled) == 0, "grid_churn_read: flood inexact");
  }

  // App-tick patterns, built once.
  std::vector<Pattern> by_name, nearby;
  for (int k = 0; k < 4; ++k) {
    Pattern p = Pattern::of_type(tuples::GradientTuple::kTag);
    p.eq("name", structures[k].name);
    by_name.push_back(p);
    p.where("hopcount", Pred::le(24));
    nearby.push_back(p);
  }

  std::vector<double> converge_ms, retract_sim, repair_sim, read_ns, move_ns;
  HostRounds host;
  double sim_stores = 0, sim_tx = 0;
  for (std::size_t round = 0;
       round < kChurnSimRounds || seconds_since(measure_start) < args.seconds;
       ++round) {
    const std::vector<int> cohort = layout.cohort(round, kCohort);
    std::vector<bool> present = all_present;
    for (const int i : cohort) present[i] = false;

    const auto before = g.metrics();
    const double run0 = g.run_s(), cpu0 = g.cpu_s();
    const std::int64_t sim0 = g.world().now().micros();
    const auto t0 = Clock::now();
    std::vector<Vec2> home;
    const Settle out = change_topology(
        g, cohort, far_away(cohort.size()), &home, present,
        [&] { return census_exact(census(), grid, present, sink); }, move_ns);
    const Settle back = change_topology(
        g, cohort, home, nullptr, all_present,
        [&] { return census_exact(census(), grid, all_present, sink); }, move_ns);
    r.operation(out.met);
    r.operation(back.met);
    if (!out.met || !back.met) continue;

    // The app-tick read sweep.
    for (int i = 0; i < grid.size(); ++i) {
      const int k = (i + static_cast<int>(round)) % 4;
      auto t = Clock::now();
      const auto one = g.mw(i).read_one(by_name[k]);
      read_ns.push_back(seconds_since(t) * 1e9);
      const int want = grid.hops(structures[k].source, i);
      r.check(one != nullptr && hopcount(*one) == want,
              "grid_churn_read: read_one off the Manhattan field");
      t = Clock::now();
      const auto hits = g.mw(i).space().peek(nearby[k]).size();
      read_ns.push_back(seconds_since(t) * 1e9);
      r.check(hits == (want <= 24 ? 1u : 0u),
              "grid_churn_read: predicate peek disagrees with the field");
    }
    const double wall = seconds_since(t0);

    const auto after = g.metrics();
    const Delta d{before, after};
    converge_ms.push_back(back.host_ms);
    if (round < kChurnSimRounds) {
      retract_sim.push_back(out.sim_ms);
      repair_sim.push_back(back.sim_ms);
      sim_stores += d("engine.store");
      sim_tx += d("radio.tx");
    }
    host.add(wall, d, g.run_s() - run0, g.cpu_s() - cpu0,
             grid.size() * 1e-6 * static_cast<double>(g.world().now().micros() - sim0));

    // Output checks.
    r.check(g.verify_by_read(unsampled) == 0,
            "grid_churn_read: replicas differ from the Manhattan field after repair");
    unsampled.clear();
    r.check(census_exact(census(), grid, all_present, sink),
            "grid_churn_read: census off after repair");
    for (const auto& q : queries) {
      std::set<QueryTally::Key> fresh;
      for (const Tuple* t : g.mw(q->node).space().peek(near)) {
        fresh.insert({t->uid().origin().value(), t->uid().sequence()});
      }
      r.check(q->tally.matches(fresh),
              "grid_churn_read: continuous query differs from a fresh read");
    }
    check_fanout(r, after);
    if (args.trace && !r.metrics.count("sim.epochs")) {  // first whole round
      sim_layer_metrics(r, d);
      replay_layers(r, g, d);
    }
  }

  // Only the first rounds' simulated figures: they repeat per seed.  A
  // flap heals either in one hold-down cycle (~0.5 s) or in several
  // (1.2-2.6 s), so its times are bimodal and their median flips
  // between the modes from seed to seed; the mean does not.
  r.set("setup_s", setup_s);
  host.report(r);
  r.set("msgs_per_replica", ratio(sim_tx, sim_stores));
  r.set("host.converge_ms", median(converge_ms));
  r.set("converge_sim_ms", converge_sim);
  r.set("retract_ms", mean(retract_sim));
  r.set("repair_sim_ms", mean(repair_sim));
  r.set("host.read_ns_p50", quantile(read_ns, 0.5));
  r.set("host.read_ns_p99", quantile(read_ns, 0.99));
  if (args.trace) {
    r.set("sim.move_ns_per_call", median(move_ns));
    no_live_layers(r);
  }
  std::fprintf(stderr, "grid_churn_read: %zu rounds\n", host.wall_s.size());
  return r;
}

}  // namespace perfbench
