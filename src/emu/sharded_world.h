// ShardedWorld — the headless emulator at 100k-node scale.
//
// Same node stack as emu::World (one full TOTA Middleware per node), but
// scheduled by sim::ShardedSim: the world is split into per-thread shards
// that advance in conservative-lookahead epochs (docs/SIM.md).  The
// trade-offs versus World: population is frozen after seal(), churn is
// expressed as quiescent-point teleports (move_node), and mobility
// models / wired mode / fault injection / despawn are not available;
// the radio and device profiles are the same sim::Radio.  In exchange,
// worlds of 50k–100k nodes run on all cores, bit-for-bit reproducibly
// per (seed, shard_count).
//
// Build phase vs run phase:
//
//   ShardedWorld w(opts);            // opts.net.shards = thread count
//   auto ids = w.spawn_grid(224, 224, 80.0);
//   w.seal();                        // or implied by the first run_for
//   w.mw(ids[0]).inject(...);        // quiescent-point API, as in World
//   w.run_for(SimTime::from_seconds(5));
//
// Middleware access (mw(), read/inject/subscribe) and topology mutation
// (move_node) are quiescent-point operations: legal from the driver
// thread between run_for calls, never from inside a reaction.
#pragma once

#include <memory>
#include <vector>

#include "emu/host_adapter.h"
#include "sim/shard.h"
#include "tota/middleware.h"

namespace tota::emu {

/// Binds a Middleware to its owner shard: timers and broadcasts go to
/// the shard's EventQueue, randomness comes from a per-node fork of the
/// shard's Rng stream, decoded frames share the shard's codec.
class ShardPlatform final : public Platform {
 public:
  ShardPlatform(sim::ShardedSim& sim, NodeId id)
      : sim_(sim), id_(id), rng_(sim.shard_rng(id).fork()) {}

  ShardPlatform(const ShardPlatform&) = delete;
  ShardPlatform& operator=(const ShardPlatform&) = delete;

  void broadcast(wire::Bytes payload) override {
    sim_.broadcast(id_, std::move(payload));
  }
  [[nodiscard]] SimTime now() const override { return sim_.node_now(id_); }
  TimerId schedule(SimTime delay, std::function<void()> action) override {
    return sim_.schedule(id_, delay, std::move(action));
  }
  void cancel(TimerId id) override { sim_.cancel(id_, id); }
  [[nodiscard]] Vec2 position() const override { return sim_.position(id_); }
  [[nodiscard]] Rng& rng() override { return rng_; }
  [[nodiscard]] wire::FrameCodec* frame_codec() override {
    return &sim_.frame_codec(id_);
  }

 private:
  sim::ShardedSim& sim_;
  NodeId id_;
  Rng rng_;
};

struct ShardedWorldOptions {
  sim::ShardedParams net;
  MaintenanceOptions maintenance;
};

class ShardedWorld {
 public:
  using Options = ShardedWorldOptions;

  explicit ShardedWorld(Options options = {});

  // --- population (build phase; before seal) ----------------------------

  NodeId spawn(Vec2 position);
  /// rows × cols grid with the given spacing, anchored at `origin`.
  std::vector<NodeId> spawn_grid(int rows, int cols, double spacing,
                                 Vec2 origin = {});

  /// Freezes the population, partitions the world, and builds every
  /// node's middleware stack.  Idempotent; implied by run_*/mw().
  void seal();

  // --- access (quiescent points) ----------------------------------------

  [[nodiscard]] Middleware& mw(NodeId id);
  [[nodiscard]] const Middleware& mw(NodeId id) const;
  [[nodiscard]] sim::ShardedSim& net() { return sim_; }
  [[nodiscard]] const sim::ShardedSim& net() const { return sim_; }
  [[nodiscard]] std::vector<NodeId> nodes() const { return sim_.nodes(); }

  /// Teleports a node (the scripted churn primitive).
  void move_node(NodeId id, Vec2 position) { sim_.move_node(id, position); }

  /// Per-node hardware heterogeneity (net/device_profile.h); quiescent
  /// points only, tx_delay_scale >= 1.0 when sharded.
  void set_profile(NodeId id, net::DeviceProfile profile) {
    sim_.set_profile(id, profile);
  }

  /// Deterministic merged view of every shard's metrics plus the
  /// scheduler's sim.shard.* counters.
  void export_metrics(obs::MetricsRegistry& into) const {
    sim_.export_metrics(into);
  }

  // --- time -------------------------------------------------------------

  [[nodiscard]] SimTime now() const { return sim_.now(); }
  void run_for(SimTime duration) {
    seal();
    sim_.run_for(duration);
  }
  void run_until(SimTime deadline) {
    seal();
    sim_.run_until(deadline);
  }

 private:
  struct NodeCell {
    std::unique_ptr<ShardPlatform> platform;
    std::unique_ptr<Middleware> middleware;
    std::unique_ptr<HostAdapter> adapter;
  };

  Options options_;
  sim::ShardedSim sim_;
  std::vector<NodeId> pending_;   // spawned, stack not built yet
  std::vector<NodeCell> cells_;   // indexed by NodeId value; slot 0 unused
  bool built_ = false;
};

}  // namespace tota::emu
