#include "sim/network.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/logging.h"

namespace tota::sim {

namespace {

/// The minimal Platform the channel's FaultInjector needs: the event
/// queue's clock and timers plus a forked Rng.  It represents the medium
/// itself, not a node, so broadcast/position are inert.
class ChannelPlatform final : public tota::Platform {
 public:
  ChannelPlatform(EventQueue& events, Rng rng)
      : events_(events), rng_(rng) {}

  void broadcast(wire::Bytes) override {}
  [[nodiscard]] SimTime now() const override { return events_.now(); }
  TimerId schedule(SimTime delay, std::function<void()> action) override {
    return events_.schedule_after(delay, std::move(action));
  }
  void cancel(TimerId id) override { events_.cancel(id); }
  [[nodiscard]] Vec2 position() const override { return {}; }
  [[nodiscard]] Rng& rng() override { return rng_; }

 private:
  EventQueue& events_;
  Rng rng_;
};

}  // namespace

Network::Network(NetworkParams params, obs::Hub* hub)
    : params_(params),
      owned_hub_(hub != nullptr ? nullptr : std::make_unique<obs::Hub>()),
      hub_(hub != nullptr ? *hub : *owned_hub_),
      rng_(params.seed),
      topology_(params.radio.range_m, params.wired
                                          ? Topology::Mode::kExplicit
                                          : Topology::Mode::kDisc),
      radio_(params.radio),
      radio_counters_(hub_.metrics),
      frame_codec_(hub_.metrics) {
  if (params_.fault.enabled()) {
    // The fork below is the only extra Rng draw a faulted configuration
    // makes from the network stream; a benign plan leaves the stream —
    // and therefore every committed bench baseline — untouched.
    fault_platform_ = std::make_unique<ChannelPlatform>(events_, rng_.fork());
    fault_ = std::make_unique<net::FaultInjector>(params_.fault,
                                                 *fault_platform_,
                                                 hub_.metrics);
  }
}

NodeId Network::add_node(Vec2 position,
                         std::unique_ptr<MobilityModel> mobility) {
  const NodeId id{next_node_++};
  topology_.add(id, position);
  NodeState state;
  state.mobility = std::move(mobility);
  nodes_.emplace(id, std::move(state));
  if (nodes_.at(id).mobility && !mobility_scheduled_) {
    mobility_scheduled_ = true;
    events_.schedule_after(params_.mobility_tick, [this] { mobility_tick(); });
  }
  refresh_links();
  return id;
}

void Network::attach(NodeId id, Host* host) {
  const auto it = nodes_.find(id);
  if (it == nodes_.end()) throw std::invalid_argument("unknown node id");
  it->second.host = host;
}

void Network::detach(NodeId id) {
  const auto it = nodes_.find(id);
  if (it != nodes_.end()) it->second.host = nullptr;
}

void Network::remove_node(NodeId id) {
  const auto it = nodes_.find(id);
  if (it == nodes_.end()) return;
  topology_.remove(id);
  // Neighbours observe the link loss; the departed node itself gets no
  // further upcalls.
  it->second.host = nullptr;
  it->second.neighbors.clear();
  nodes_.erase(it);
  refresh_links();
}

void Network::move_node(NodeId id, Vec2 position) {
  topology_.move(id, position);
  refresh_links();
}

void Network::connect(NodeId a, NodeId b) {
  topology_.add_link(a, b);
  refresh_links();
}

void Network::disconnect(NodeId a, NodeId b) {
  topology_.remove_link(a, b);
  refresh_links();
}

void Network::set_velocity(NodeId id, Vec2 velocity) {
  auto* model = dynamic_cast<VelocityMobility*>(mobility(id));
  if (model == nullptr) {
    throw std::invalid_argument("node has no VelocityMobility model");
  }
  model->set_velocity(velocity);
}

MobilityModel* Network::mobility(NodeId id) {
  const auto it = nodes_.find(id);
  if (it == nodes_.end()) throw std::invalid_argument("unknown node id");
  return it->second.mobility.get();
}

void Network::set_profile(NodeId id, net::DeviceProfile profile) {
  if (nodes_.find(id) == nodes_.end()) {
    throw std::invalid_argument("unknown node id");
  }
  radio_.set_profile(id, profile);
}

void Network::broadcast(NodeId from, wire::Bytes payload) {
  if (!topology_.contains(from)) return;  // sender died mid-flight
  const Radio::Transmission tx =
      radio_.transmit(from, payload.size(), events_.now(), radio_counters_);
  const auto receivers = topology_.neighbors(from);
  // One shared payload for all receivers of this frame.
  auto shared = std::make_shared<const wire::Bytes>(std::move(payload));
  for (const NodeId to : receivers) {
    const auto delay = radio_.receive(tx, to, rng_, radio_counters_);
    if (!delay.has_value()) continue;
    if (fault_ != nullptr) {
      // Adversity layer between the radio model and the receiver: the
      // injector may drop/hold/damage this delivery.  Damaged or
      // reordered copies get their own buffer (no decode-once sharing —
      // each surviving receiver parses what *it* received).
      fault_->process(
          std::span(*shared),
          [this, from, to, delay = *delay](const wire::Bytes& bytes) {
            deliver_after(delay, from, to,
                          std::make_shared<const wire::Bytes>(bytes));
          },
          from, to);
    } else {
      deliver_after(*delay, from, to, shared);
    }
  }
}

void Network::deliver_after(SimTime delay, NodeId from, NodeId to,
                            std::shared_ptr<const wire::Bytes> payload) {
  events_.schedule_after(delay,
                         [this, from, to, payload = std::move(payload)] {
                           const auto it = nodes_.find(to);
                           if (it == nodes_.end() ||
                               it->second.host == nullptr) {
                             return;
                           }
                           radio_counters_.rx.inc();
                           it->second.host->on_datagram(from, payload);
                         });
}

void Network::run_until(SimTime deadline) { events_.run_until(deadline); }

std::vector<NodeId> Network::notified_neighbors(NodeId id) const {
  const auto it = nodes_.find(id);
  if (it == nodes_.end()) return {};
  std::vector<NodeId> out(it->second.neighbors.begin(),
                          it->second.neighbors.end());
  std::sort(out.begin(), out.end());
  return out;
}

void Network::notify_link(NodeId node, NodeId neighbor, bool up) {
  events_.schedule_after(params_.link_detect_delay,
                         [this, node, neighbor, up] {
                           const auto it = nodes_.find(node);
                           if (it == nodes_.end() || it->second.host == nullptr)
                             return;
                           if (up) {
                             it->second.host->on_neighbor_up(neighbor);
                           } else {
                             it->second.host->on_neighbor_down(neighbor);
                           }
                         });
}

void Network::refresh_links() {
  // Deterministic order: sorted node ids.
  for (const NodeId id : topology_.nodes()) {
    auto& state = nodes_.at(id);
    const auto current_vec = topology_.neighbors(id);
    const std::unordered_set<NodeId> current(current_vec.begin(),
                                             current_vec.end());
    // Departed links first, then new ones, each in sorted order.
    std::vector<NodeId> downs;
    for (const NodeId old : state.neighbors) {
      if (!current.count(old)) downs.push_back(old);
    }
    std::sort(downs.begin(), downs.end());
    for (const NodeId old : downs) {
      state.neighbors.erase(old);
      radio_counters_.link_down.inc();
      notify_link(id, old, /*up=*/false);
    }
    for (const NodeId fresh : current_vec) {  // already sorted
      if (!state.neighbors.count(fresh)) {
        state.neighbors.insert(fresh);
        radio_counters_.link_up.inc();
        notify_link(id, fresh, /*up=*/true);
      }
    }
  }
  // Nodes that left the topology entirely were handled in remove_node;
  // their ids are gone from nodes_ too, but other nodes' stale references
  // to them are cleared by the loop above.
}

void Network::mobility_tick() {
  bool moved = false;
  for (const NodeId id : topology_.nodes()) {
    auto& state = nodes_.at(id);
    if (!state.mobility) continue;
    const Vec2 before = topology_.position(id);
    const Vec2 after = state.mobility->step(before, params_.mobility_tick,
                                            rng_);
    if (!(after == before)) {
      topology_.move(id, after);
      moved = true;
    }
  }
  if (moved) refresh_links();
  events_.schedule_after(params_.mobility_tick, [this] { mobility_tick(); });
}

}  // namespace tota::sim
