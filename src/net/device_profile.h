// DeviceProfile — per-node hardware heterogeneity knobs (BeeTS-style
// deployments: duty-cycled sensor motes, low-MTU links, a few mains-
// powered gateways).
//
// The default profile is a full-power device: always awake, unlimited
// MTU, nominal radio timing.  Simulators treat the default as "no
// profile" and take the exact same code path (and Rng stream) as before
// profiles existed, so worlds that never call set_profile() stay
// bit-for-bit identical to the committed bench baselines.
//
// Semantics (applied per delivery by sim::Radio, the link model both
// simulators share):
//
//  * duty_cycle / duty_period — the receiver sleeps its radio: a frame
//    landing while the node is asleep is dropped (`net.duty_drop`).
//    Awake/asleep is a pure function of the delivery timestamp (the
//    first `duty_cycle` fraction of every `duty_period` window), so the
//    check consumes no randomness and stays deterministic per seed.
//  * mtu — the largest frame this device's link layer passes, in bytes;
//    0 = unlimited.  A link's MTU is the *minimum* of its endpoints'
//    (either side's radio truncates), and an oversized frame is dropped
//    at that link with `net.mtu_drop` accounting.
//  * tx_delay_scale — multiplies the radio model's per-frame latency for
//    frames this node sends (slow radios clock bits out more slowly).
//    Sharded runs require >= 1.0: the conservative lookahead is the
//    radio's base delay, and a faster-than-nominal sender would undercut
//    it (sim/shard.h).
//  * gateway — a mains-powered infrastructure node: never sleeps and
//    imposes no MTU cap regardless of the other fields.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/clock.h"

namespace tota::net {

struct DeviceProfile {
  /// Fraction of each duty_period the receiver is awake; 1.0 = always.
  double duty_cycle = 1.0;
  SimTime duty_period = SimTime::from_millis(100);
  /// Largest frame (bytes) this device sends or receives; 0 = unlimited.
  std::size_t mtu = 0;
  /// Latency multiplier for frames this node transmits (>= 1.0 under
  /// sharded simulation).
  double tx_delay_scale = 1.0;
  /// Full-power infrastructure node: always awake, no MTU cap.
  bool gateway = false;

  [[nodiscard]] bool always_awake() const {
    return gateway || duty_cycle >= 1.0;
  }

  /// Is the radio listening at instant `t`?  Deterministic — awake is
  /// the first duty_cycle fraction of every duty_period window.
  [[nodiscard]] bool awake_at(SimTime t) const {
    if (always_awake()) return true;
    if (duty_cycle <= 0.0) return false;
    const std::int64_t period =
        duty_period.micros() > 0 ? duty_period.micros() : 1;
    const std::int64_t phase = ((t.micros() % period) + period) % period;
    return phase < static_cast<std::int64_t>(duty_cycle *
                                             static_cast<double>(period));
  }

  /// MTU this device imposes on its links; 0 = unlimited.
  [[nodiscard]] std::size_t effective_mtu() const {
    return gateway ? 0 : mtu;
  }

  /// A link truncates at the weaker endpoint: the smallest non-zero
  /// endpoint MTU (0 = neither side caps).
  [[nodiscard]] static std::size_t link_mtu(const DeviceProfile& a,
                                            const DeviceProfile& b) {
    const std::size_t ma = a.effective_mtu();
    const std::size_t mb = b.effective_mtu();
    if (ma == 0) return mb;
    if (mb == 0) return ma;
    return ma < mb ? ma : mb;
  }

  /// True when this profile changes nothing versus a bare radio — the
  /// simulators skip all profile checks (and extra branches) for it.
  [[nodiscard]] bool is_default() const {
    return always_awake() && effective_mtu() == 0 && tx_delay_scale == 1.0;
  }
};

}  // namespace tota::net
