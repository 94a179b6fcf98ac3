// MassLiveWorld — N real-socket TOTA nodes in one process, one loop.
//
// The paper's scaling claim needs a live topology bigger than a handful
// of daemons, and forking 500 processes per experiment is how you melt a
// CI runner.  This harness instead hosts N complete nodes — each its own
// UDP socket, net::NetSession, Middleware/engine, and per-node obs::Hub
// — on one multi-tenant EventLoop and one thread (the Anger
// MassConnectTest pattern: hundreds of real sockets on loopback in one
// process).  Every layer below main() is exactly the single-node
// production stack; nothing is simulated, datagrams cross the kernel.
//
// On a shared broadcast channel every node is one hop from every other,
// so BFS ground truth for an injected gradient is trivial and exact:
// hop 0 at the source, hop 1 everywhere else, absent after the source
// dies and self-maintenance retracts the orphaned replicas.  converged()
// and leaked() assert exactly that, which is what scripts/mass_live.sh
// and bench_live drive at 300–1000 nodes under FaultInjector chaos.
//
// Sockets can be unavailable (sandboxes): start() returns false and the
// caller skips, same contract as LivePlatform::start.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/event_loop.h"
#include "net/fault.h"
#include "net/live_platform.h"
#include "obs/hub.h"
#include "tota/middleware.h"

namespace tota::net {

/// The session knobs (SessionOptions), shared by every node, plus the
/// world's own.  Mass worlds want batching and a digest cadence on: a
/// flood of N same-instant re-propagations overflows receive buffers no
/// matter how large, and anti-entropy is the designed repair for the
/// frames that drown.
struct MassLiveOptions : SessionOptions {
  /// How many nodes to host; wire ids are base_id .. base_id + count - 1.
  int count = 3;
  std::uint64_t base_id = 1;
  /// Transport template (mode/group/port/mtu/drain budget), shared by
  /// every node — they form one broadcast channel.
  UdpOptions transport;
  /// Receive-path adversity, applied per node (each node's injector
  /// forks its own Rng stream off the node's seeded platform).
  FaultPlan fault;
  /// Readiness backend for the shared loop.
  LoopBackend backend = LoopBackend::kAuto;
  /// Base seed; node i runs with seed + i (0 falls back to id-derived
  /// per-node seeds, see LiveOptions::seed).
  std::uint64_t seed = 1;
  MaintenanceOptions maintenance;
};

class MassLiveWorld {
 public:
  explicit MassLiveWorld(MassLiveOptions options);
  ~MassLiveWorld();

  MassLiveWorld(const MassLiveWorld&) = delete;
  MassLiveWorld& operator=(const MassLiveWorld&) = delete;

  /// Opens every node's socket and starts its session.  False (nothing
  /// started, error() set) when any socket cannot be opened — loopback
  /// UDP is all-or-nothing, so the first failure aborts the world.
  [[nodiscard]] bool start();
  /// Stops every still-live node.
  void stop();

  [[nodiscard]] const std::string& error() const { return error_; }

  // --- driving ------------------------------------------------------------

  [[nodiscard]] EventLoop& loop() { return loop_; }

  /// Runs the loop in `tick`-sized slices until `done()` or `timeout`
  /// (both wall-clock); returns done()'s final value.
  bool run_until(const std::function<bool()>& done, SimTime timeout,
                 SimTime tick = SimTime::from_millis(50));

  // --- the scenario -------------------------------------------------------

  /// Injects a gradient field named `name` from node `i`.
  void inject_gradient(int i, const std::string& name);

  /// Simulates node `i` crashing: its session stops silently and its
  /// socket closes; peers observe missed beacons, expiry, retraction.
  void kill(int i);

  /// Live nodes holding the field at the BFS-exact hop count (0 at the
  /// injecting node, 1 everywhere else on a shared channel).
  [[nodiscard]] int bfs_exact_holders(const std::string& name, int source) const;
  /// Live nodes holding the field at any *wrong* hop count — must stay 0
  /// for the convergence claim to mean anything.
  [[nodiscard]] int wrong_hop_holders(const std::string& name, int source) const;
  /// Every live node holds the BFS-exact value and nobody a wrong one.
  [[nodiscard]] bool converged(const std::string& name, int source) const;
  /// Every live node's discovery knows every other live node: the full
  /// shared-channel mesh has formed.  The kill/retraction scenario gates
  /// on this — a node that never observed the source as a neighbour has
  /// no link-down event to retract on (exactly as in the paper's model,
  /// where self-maintenance reacts to *topology changes*).
  [[nodiscard]] bool mesh_complete() const;
  /// Live nodes still holding any replica of the field — counts the
  /// retraction leaks after the source died and maintenance quiesced.
  [[nodiscard]] int leaked(const std::string& name) const;

  // --- introspection ------------------------------------------------------

  [[nodiscard]] int count() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] bool alive(int i) const { return nodes_[i]->alive; }
  [[nodiscard]] int alive_count() const;
  [[nodiscard]] Middleware& mw(int i) { return nodes_[i]->middleware; }
  [[nodiscard]] const Middleware& mw(int i) const {
    return nodes_[i]->middleware;
  }
  [[nodiscard]] LivePlatform& platform(int i) { return nodes_[i]->platform; }
  [[nodiscard]] obs::Hub& hub(int i) { return nodes_[i]->hub; }
  /// Loop instrumentation (loop.*) for the shared loop.
  [[nodiscard]] obs::Hub& loop_hub() { return loop_hub_; }

  /// Sum of one counter across every node's hub (plus the loop hub) —
  /// the aggregate view a per-process run would have had.
  [[nodiscard]] std::int64_t metric_sum(const std::string& name) const;

 private:
  /// One complete node: its own metric hub, socket+session platform,
  /// and engine.  Declaration order is construction order — the hub
  /// outlives both its users.
  struct Node {
    Node(EventLoop& loop, const LiveOptions& options,
         const MaintenanceOptions& maintenance);
    obs::Hub hub;
    LivePlatform platform;
    Middleware middleware;
    bool alive = false;
  };

  MassLiveOptions options_;
  obs::Hub loop_hub_;
  EventLoop loop_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::string error_;
  bool started_ = false;
};

}  // namespace tota::net
