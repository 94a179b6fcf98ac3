// Radio model: broadcast medium with disc connectivity.
//
// Mirrors the paper's prototype, which sends tuples "through multicast
// sockets to all the nodes in the one-hop neighbor[hood]" over 802.11b in
// ad-hoc mode: one transmission reaches every node within range.  The
// model adds per-hop latency (propagation + MAC contention jitter), an
// independent per-receiver loss probability, and per-node hardware
// profiles (net/device_profile.h).
//
// Both simulators (sim::Network and sim::ShardedSim) decide the fate of
// every receiver through this one class, so the link model — and the
// order of its Rng draws, which the committed bench baselines pin — has
// a single definition.  The decision is const and takes the caller's Rng
// and counters: shard threads call it concurrently, each with its own
// stream and hub.
#pragma once

#include <cstddef>
#include <optional>
#include <unordered_map>

#include "common/clock.h"
#include "common/ids.h"
#include "common/rng.h"
#include "net/device_profile.h"
#include "obs/metrics.h"

namespace tota::sim {

struct RadioParams {
  /// Communication range in metres (disc model).
  double range_m = 100.0;
  /// Fixed per-hop latency component.
  SimTime base_delay = SimTime::from_millis(2);
  /// Uniform extra latency in [0, jitter] modelling MAC contention.
  SimTime jitter = SimTime::from_millis(3);
  /// Probability that an individual receiver misses a broadcast frame.
  double loss_probability = 0.0;
  /// Bytes/second; adds payload_size / bandwidth to the delay.  0 = infinite.
  double bandwidth_bps = 0.0;
};

/// The radio metrics both simulators register, under the same names
/// (docs/OBSERVABILITY.md).  Pre-registered handles: the per-receiver
/// hot path never does a name lookup.
struct RadioCounters {
  explicit RadioCounters(obs::MetricsRegistry& metrics);

  obs::Counter& tx;
  obs::Counter& tx_bytes;
  obs::Counter& rx;
  obs::Counter& lost;
  obs::Counter& link_up;
  obs::Counter& link_down;
  obs::Counter& mtu_drop;
  obs::Counter& duty_drop;
};

class Radio {
 public:
  explicit Radio(RadioParams params) : params_(params) {}

  [[nodiscard]] const RadioParams& params() const { return params_; }
  [[nodiscard]] double range() const { return params_.range_m; }

  /// Samples the end-to-end one-hop delay for a payload of `bytes` bytes.
  SimTime delay(Rng& rng, std::size_t bytes) const {
    SimTime d = params_.base_delay;
    if (params_.jitter.micros() > 0) {
      d += SimTime(static_cast<std::int64_t>(
          rng.uniform() * static_cast<double>(params_.jitter.micros())));
    }
    if (params_.bandwidth_bps > 0.0) {
      d += SimTime::from_seconds(static_cast<double>(bytes) * 8.0 /
                                 params_.bandwidth_bps);
    }
    return d;
  }

  // --- device heterogeneity ---------------------------------------------

  /// Attaches a hardware profile; the default profile removes it.  The
  /// caller validates the node.  Quiescent points only: shard threads
  /// read the profiles concurrently during epochs.
  void set_profile(NodeId id, net::DeviceProfile profile);

  // --- one broadcast ----------------------------------------------------

  /// A frame on the air: its size, its send instant, and the sender's
  /// profile — looked up once, and null while no node has a profile, so
  /// a profile-free world pays one empty() check per broadcast.
  struct Transmission {
    std::size_t bytes;
    SimTime sent_at;
    const net::DeviceProfile* sender;
  };

  /// Starts a broadcast of `bytes` bytes from `from` at `now`; counts
  /// radio.tx and radio.tx_bytes.
  Transmission transmit(NodeId from, std::size_t bytes, SimTime now,
                        RadioCounters& counters) const;

  /// Decides one receiver's copy of `tx`: the link MTU check, the loss
  /// draw, the delay draw, the sender's tx scale, the receiver's duty
  /// cycle — in that order.  Returns the delivery delay, or nullopt when
  /// the copy is dropped (counted in radio.lost / net.mtu_drop /
  /// net.duty_drop).  Profile checks draw no randomness and an
  /// MTU-dropped link skips both draws, so a world without profiles
  /// draws from `rng` exactly what a bare radio draws.
  std::optional<SimTime> receive(const Transmission& tx, NodeId to, Rng& rng,
                                 RadioCounters& counters) const;

 private:
  /// The node's profile (the full-power default when it has none).
  [[nodiscard]] const net::DeviceProfile& profile(NodeId id) const;

  /// Samples whether a given receiver gets the frame.
  bool delivered(Rng& rng) const {
    return !rng.chance(params_.loss_probability);
  }

  RadioParams params_;
  /// Per-node hardware profiles; absent = full-power default.
  std::unordered_map<NodeId, net::DeviceProfile> profiles_;
};

}  // namespace tota::sim
