// LivePlatform — tota::Platform on real sockets and the real clock.
//
// The production-shaped twin of emu::SimPlatform: where that binds a
// Middleware to the discrete-event simulator, this binds one to a
// net::EventLoop (timers + readiness), a net::UdpTransport (the shared
// broadcast channel), and a net::NetSession (the whole v2 datagram
// path: discovery beacons, MTU-aware batching, the reliable control
// channel, anti-entropy digests).  The engine/wire/tuples layers run
// unmodified on either — that is the point of the Platform seam.
//
// Differences from the simulator, all deliberate:
//   * frame_codec() stays nullptr: each process owns its private receive
//     buffer, so there is no cross-receiver decode-once cache to share;
//     the engine takes its span fallback path.
//   * Sender attribution comes from the datagram envelope
//     (net/datagram.h), not from the radio model.
//   * A broadcast medium echoes one's own frames; the session drops
//     them by sender id (counted as net.data.echo).
//   * Neighbour up/down upcalls are synthesized by Discovery instead of
//     injected by the simulator — so a killed process is observed as k
//     missed beacons, and the engine's self-maintenance (retraction,
//     hold-down, probes) runs for real.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>

#include "common/geometry.h"
#include "net/event_loop.h"
#include "net/fault.h"
#include "net/session.h"
#include "net/udp_transport.h"
#include "obs/hub.h"
#include "tota/platform.h"

namespace tota {
class Middleware;
}  // namespace tota

namespace tota::net {

/// The session knobs (SessionOptions: discovery plus the v2 wire
/// features — MTU-aware batching, the reliable control channel, the
/// anti-entropy digest cadence; all v2 features default off, so the
/// default wire is v1, byte-for-byte) plus what a live node adds.
struct LiveOptions : SessionOptions {
  /// This node's identity on the wire (must be nonzero and unique per
  /// group; collisions make two processes one schizophrenic node).
  NodeId id;
  UdpOptions transport;
  /// Reported by position(); live nodes without a real location sensor
  /// just stand still wherever they are configured.
  Vec2 position{};
  /// Seed for the node-local Rng; 0 derives one from `id` so distinct
  /// nodes get distinct (but reproducible) jitter streams.
  std::uint64_t seed = 0;
  /// Receive-path adversity (net::FaultInjector), applied between
  /// UdpTransport::drain and datagram decoding.  Benign by default —
  /// the drain path then bypasses the injector entirely.
  FaultPlan fault;
};

class LivePlatform final : public tota::Platform {
 public:
  /// `loop` and `hub` (nullptr = obs::default_hub()) must outlive the
  /// platform.  No sockets are touched until start().
  LivePlatform(EventLoop& loop, LiveOptions options, obs::Hub* hub = nullptr);
  ~LivePlatform() override;

  LivePlatform(const LivePlatform&) = delete;
  LivePlatform& operator=(const LivePlatform&) = delete;

  /// Routes upcalls (datagrams, neighbour up/down, digests) into
  /// `middleware`, which must outlive the platform or be detached by
  /// stop().
  void attach(Middleware& middleware);

  /// Opens the socket, registers it with the loop, and starts beaconing.
  /// False (with error() set) when the socket cannot be opened — callers
  /// can skip gracefully where sockets are unavailable.
  [[nodiscard]] bool start();

  /// Stops the session (silently), deregisters and closes the socket.
  void stop();

  [[nodiscard]] const std::string& error() const {
    return transport_.error();
  }

  // --- tota::Platform -----------------------------------------------------

  void broadcast(wire::Bytes payload) override;
  void broadcast_reliable(wire::Bytes payload) override;
  [[nodiscard]] SimTime now() const override { return loop_.now(); }
  TimerId schedule(SimTime delay, std::function<void()> action) override {
    return loop_.schedule(delay, std::move(action));
  }
  void cancel(TimerId id) override { loop_.cancel(id); }
  [[nodiscard]] Vec2 position() const override { return options_.position; }
  [[nodiscard]] Rng& rng() override { return rng_; }
  // frame_codec(): inherited nullptr — buffers are not shared across
  // processes, so there is nothing to decode once.

  // --- introspection ------------------------------------------------------

  [[nodiscard]] NodeId id() const { return options_.id; }
  [[nodiscard]] EventLoop& loop() { return loop_; }
  [[nodiscard]] NetSession& session() { return session_; }
  [[nodiscard]] Discovery& discovery() { return session_.discovery(); }
  [[nodiscard]] const Discovery& discovery() const {
    return session_.discovery();
  }
  [[nodiscard]] UdpTransport& transport() { return transport_; }
  [[nodiscard]] obs::Hub& hub() { return hub_; }
  /// The receive-path fault injector; nullptr when options.fault is
  /// benign or the platform has not been started.
  [[nodiscard]] FaultInjector* fault() { return fault_.get(); }

 private:
  EventLoop& loop_;
  LiveOptions options_;
  obs::Hub& hub_;
  Rng rng_;
  UdpTransport transport_;
  NetSession session_;
  /// Built at start() when options_.fault.enabled(); wraps the drain →
  /// session receive path.  Destroyed at stop() — held (reordered)
  /// datagrams of a stopping node are simply in-flight loss.
  std::unique_ptr<FaultInjector> fault_;
  bool started_ = false;
};

}  // namespace tota::net
