// The simulated world: nodes, radio, mobility, virtual time.
//
// Single-threaded and deterministic: all activity (frame deliveries,
// middleware timers, mobility ticks) runs through one EventQueue seeded
// from one Rng.  The Network substitutes for the paper's IPAQ testbed and
// Java emulator (see DESIGN.md §3).
#pragma once

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/clock.h"
#include "common/geometry.h"
#include "common/ids.h"
#include "common/rng.h"
#include "net/device_profile.h"
#include "net/fault.h"
#include "obs/hub.h"
#include "sim/event_queue.h"
#include "sim/mobility.h"
#include "sim/node.h"
#include "sim/radio.h"
#include "sim/topology.h"
#include "wire/buffer.h"
#include "wire/frame.h"

namespace tota::sim {

struct NetworkParams {
  RadioParams radio;
  /// Wired ("Internet") mode: neighbourhood = explicit links managed with
  /// connect()/disconnect() instead of radio range (paper §4.1 — "in a
  /// wired scenario … the term is not related to the real reachability of
  /// a node, but rather on its addressability").  Radio latency/loss
  /// parameters still shape per-link delivery.
  bool wired = false;
  /// Latency between a topology change and the neighbour-up/down upcall,
  /// modelling beacon-based discovery.  Zero = instantaneous detection.
  SimTime link_detect_delay = SimTime::zero();
  /// Mobility integration period.
  SimTime mobility_tick = SimTime::from_millis(100);
  std::uint64_t seed = 1;
  /// Adversity layer (net::FaultInjector): drop/duplicate/reorder/
  /// truncate/corrupt faults plus scheduled partitions, applied to every
  /// delivery on top of the radio model.  This is the one knob for
  /// injected adversity — `radio.loss_probability` stays the physical
  /// layer's loss.  The default (benign) plan is bypassed entirely, so
  /// behaviour and the Rng stream are bit-for-bit unchanged.
  net::FaultPlan fault;
};

class Network {
 public:
  /// `hub` is where the network records its metrics (radio.tx/rx/…, see
  /// docs/OBSERVABILITY.md); nullptr (the default) gives the network a
  /// private hub, so its counters only ever reflect its own traffic.
  /// A non-null hub must outlive the network.
  explicit Network(NetworkParams params, obs::Hub* hub = nullptr);

  // --- population -------------------------------------------------------

  /// Adds a node at `position`; optionally with a mobility model.
  /// The returned id is stable for the node's lifetime.
  NodeId add_node(Vec2 position,
                  std::unique_ptr<MobilityModel> mobility = nullptr);

  /// Installs the software stack of a node.  `host` is not owned and must
  /// outlive the node (or be detached first).
  void attach(NodeId id, Host* host);
  void detach(NodeId id);

  /// Removes a node (covers both graceful leave and crash: neighbours
  /// observe only link loss either way).
  void remove_node(NodeId id);

  [[nodiscard]] bool alive(NodeId id) const { return topology_.contains(id); }

  // --- geometry & movement ----------------------------------------------

  [[nodiscard]] Vec2 position(NodeId id) const {
    return topology_.position(id);
  }

  /// Teleports a node (the emulator's drag-and-drop); link events fire.
  void move_node(NodeId id, Vec2 position);

  /// Wired-mode link management (throws in radio mode).  A node "knows
  /// the other node's IP address" — link events fire like radio links.
  void connect(NodeId a, NodeId b);
  void disconnect(NodeId a, NodeId b);

  /// Sets the velocity of a node using VelocityMobility; throws otherwise.
  void set_velocity(NodeId id, Vec2 velocity);

  /// Direct access to a node's mobility model (e.g. WaypointTo::set_target).
  [[nodiscard]] MobilityModel* mobility(NodeId id);

  // --- device heterogeneity ---------------------------------------------

  /// Attaches a hardware profile (net/device_profile.h): duty-cycled
  /// radio, per-link MTU, tx latency scaling, gateway flag.  Nodes
  /// without a profile are full-power devices, and a world that never
  /// sets one takes the pre-profile code path bit-for-bit (same Rng
  /// stream, same baselines).
  void set_profile(NodeId id, net::DeviceProfile profile);

  // --- communication ------------------------------------------------------

  /// One-hop broadcast from `from` to every node currently in range.
  /// Counts one "radio.tx" regardless of receiver count (broadcast medium).
  void broadcast(NodeId from, wire::Bytes payload);

  // --- time ----------------------------------------------------------------

  [[nodiscard]] SimTime now() const { return events_.now(); }
  void run_until(SimTime deadline);
  void run_for(SimTime duration) { run_until(now() + duration); }
  EventId schedule(SimTime delay, EventQueue::Action action) {
    return events_.schedule_after(delay, std::move(action));
  }
  void cancel(EventId id) { events_.cancel(id); }

  // --- introspection -------------------------------------------------------

  [[nodiscard]] const Topology& topology() const { return topology_; }
  /// The metrics registry this network records into (shared with the
  /// middleware instances observing the same hub).
  [[nodiscard]] obs::MetricsRegistry& metrics() { return hub_.metrics; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return hub_.metrics;
  }
  /// Legacy name for metrics() kept for the pre-obs API
  /// (`counters().get("radio.tx")` still reads the radio tallies).
  [[nodiscard]] const obs::MetricsRegistry& counters() const {
    return hub_.metrics;
  }
  /// The full observability hub (metrics + tracer).
  [[nodiscard]] obs::Hub& hub() { return hub_; }
  /// The shared decode-once cache for this medium: broadcast() hands every
  /// receiver the same wire::Bytes object, and stacks attached to this
  /// network key decoded-frame prototypes on that buffer identity.
  [[nodiscard]] wire::FrameCodec& frame_codec() { return frame_codec_; }
  [[nodiscard]] Rng& rng() { return rng_; }
  [[nodiscard]] const NetworkParams& params() const { return params_; }
  [[nodiscard]] std::vector<NodeId> nodes() const { return topology_.nodes(); }

  /// Current (already-notified) neighbour view of a node; this is what the
  /// node's middleware has been told, which can lag ground truth by
  /// link_detect_delay.
  [[nodiscard]] std::vector<NodeId> notified_neighbors(NodeId id) const;

 private:
  struct NodeState {
    Host* host = nullptr;
    std::unique_ptr<MobilityModel> mobility;
    // Neighbour set as last notified to the host.
    std::unordered_set<NodeId> neighbors;
  };

  /// Recomputes neighbour sets after any topology mutation and fires
  /// (possibly delayed) link up/down events.
  void refresh_links();
  void notify_link(NodeId node, NodeId neighbor, bool up);
  void mobility_tick();
  /// Schedules the host upcall for one (possibly fault-damaged) frame.
  void deliver_after(SimTime delay, NodeId from, NodeId to,
                     std::shared_ptr<const wire::Bytes> payload);

  NetworkParams params_;
  std::unique_ptr<obs::Hub> owned_hub_;  // set when constructed hub-less
  obs::Hub& hub_;
  Rng rng_;
  EventQueue events_;
  Topology topology_;
  Radio radio_;
  RadioCounters radio_counters_;
  wire::FrameCodec frame_codec_;
  std::unordered_map<NodeId, NodeState> nodes_;
  std::uint64_t next_node_ = 1;
  bool mobility_scheduled_ = false;
  /// Channel-level adversity; null when params_.fault is benign (the
  /// common case — the hot path then never touches it).
  std::unique_ptr<tota::Platform> fault_platform_;
  std::unique_ptr<net::FaultInjector> fault_;
};

}  // namespace tota::sim
