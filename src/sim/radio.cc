#include "sim/radio.h"

namespace tota::sim {

RadioCounters::RadioCounters(obs::MetricsRegistry& metrics)
    : tx(metrics.counter("radio.tx")),
      tx_bytes(metrics.counter("radio.tx_bytes")),
      rx(metrics.counter("radio.rx")),
      lost(metrics.counter("radio.lost")),
      link_up(metrics.counter("link.up")),
      link_down(metrics.counter("link.down")),
      mtu_drop(metrics.counter("net.mtu_drop")),
      duty_drop(metrics.counter("net.duty_drop")) {}

void Radio::set_profile(NodeId id, net::DeviceProfile profile) {
  if (profile.is_default()) {
    profiles_.erase(id);  // keep the no-profile hot path hot
  } else {
    profiles_[id] = profile;
  }
}

const net::DeviceProfile& Radio::profile(NodeId id) const {
  static const net::DeviceProfile kDefault{};
  const auto it = profiles_.find(id);
  return it == profiles_.end() ? kDefault : it->second;
}

Radio::Transmission Radio::transmit(NodeId from, std::size_t bytes,
                                    SimTime now,
                                    RadioCounters& counters) const {
  counters.tx.inc();
  counters.tx_bytes.inc(static_cast<std::int64_t>(bytes));
  return {bytes, now, profiles_.empty() ? nullptr : &profile(from)};
}

std::optional<SimTime> Radio::receive(const Transmission& tx, NodeId to,
                                      Rng& rng,
                                      RadioCounters& counters) const {
  if (tx.sender != nullptr) {
    const std::size_t mtu = net::DeviceProfile::link_mtu(*tx.sender,
                                                         profile(to));
    if (mtu != 0 && tx.bytes > mtu) {
      counters.mtu_drop.inc();
      return std::nullopt;
    }
  }
  if (!delivered(rng)) {
    counters.lost.inc();
    return std::nullopt;
  }
  SimTime d = delay(rng, tx.bytes);
  if (tx.sender != nullptr) {
    if (tx.sender->tx_delay_scale != 1.0) d = d * tx.sender->tx_delay_scale;
    // The receiver's radio must be listening when the frame lands.
    if (!profile(to).awake_at(tx.sent_at + d)) {
      counters.duty_drop.inc();
      return std::nullopt;
    }
  }
  return d;
}

}  // namespace tota::sim
