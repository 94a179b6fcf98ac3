#include "sim/shard.h"

#include <algorithm>
#include <stdexcept>

namespace tota::sim {

ShardedSim::Shard::Shard(std::uint32_t index, std::uint32_t total,
                         std::uint64_t seed)
    : index(index),
      rng(Rng::stream(seed, index)),
      codec(hub.metrics),
      outbox(total),
      radio(hub.metrics),
      mail_out(hub.metrics.counter("sim.shard.cross_deliveries")) {}

ShardedSim::ShardedSim(ShardedParams params)
    : params_(params),
      radio_(params.radio),
      topology_(params.radio.range_m),
      nodes_(1),  // slot 0 = the reserved invalid NodeId
      epochs_(hub_.metrics.counter("sim.shard.epochs")),
      barrier_waits_(hub_.metrics.counter("sim.shard.barrier_waits")) {
  if (params_.shards == 0) {
    throw std::invalid_argument("ShardedParams::shards must be >= 1");
  }
  if (params_.shards > 1 && params_.radio.base_delay < SimTime(1)) {
    // base_delay is the conservative lookahead; a zero bound would allow
    // a cross-shard event inside the current epoch (docs/SIM.md).
    throw std::invalid_argument(
        "sharded simulation needs radio.base_delay >= 1us "
        "(it bounds the cross-shard lookahead)");
  }
}

ShardedSim::~ShardedSim() {
  if (!workers_.empty()) {
    stop_ = true;
    epoch_start_->arrive_and_wait();  // release workers into the stop check
    for (auto& w : workers_) w.join();
  }
}

NodeId ShardedSim::add_node(Vec2 position) {
  if (sealed_) {
    throw std::logic_error("ShardedSim: population is sealed");
  }
  const NodeId id{next_node_++};
  topology_.add(id, position);
  nodes_.emplace_back();
  return id;
}

void ShardedSim::seal() {
  if (sealed_) return;
  sealed_ = true;

  // Partition: equal-width vertical strips of the population's bounding
  // box.  Ownership depends only on (positions, shard count), never on
  // insertion order.
  double min_x = 0.0;
  double width = 0.0;
  if (topology_.size() > 0) {
    const Rect box = topology_.bounding_box();
    min_x = box.min.x;
    width = box.width();
  }
  const auto n_shards = params_.shards;
  shards_.reserve(n_shards);
  for (std::uint32_t i = 0; i < n_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(i, n_shards, params_.seed));
  }
  hub_.metrics.gauge("sim.shard.count").set(static_cast<double>(n_shards));

  for (std::uint64_t v = 1; v < next_node_; ++v) {
    const NodeId id{v};
    const double frac =
        width > 0.0 ? (topology_.position(id).x - min_x) / width : 0.0;
    state(id).owner = std::min(
        n_shards - 1, static_cast<std::uint32_t>(
                          frac * static_cast<double>(n_shards)));
  }

  // Initial neighbour sets + link-up upcalls, in node-id order.
  for (std::uint64_t v = 1; v < next_node_; ++v) {
    const NodeId id{v};
    state(id).neighbors = topology_.neighbors(id);
  }
  for (std::uint64_t v = 1; v < next_node_; ++v) {
    const NodeId id{v};
    for (const NodeId nb : state(id).neighbors) {
      notify_link(id, nb, /*up=*/true);
    }
  }

  if (n_shards > 1) {
    epoch_start_ = std::make_unique<std::barrier<>>(n_shards + 1);
    epoch_done_ = std::make_unique<std::barrier<>>(n_shards + 1);
    workers_.reserve(n_shards);
    for (std::uint32_t i = 0; i < n_shards; ++i) {
      workers_.emplace_back([this, i] { worker(i); });
    }
  }
}

void ShardedSim::attach(NodeId id, Host* host) {
  if (id.value() == 0 || id.value() >= next_node_) {
    throw std::invalid_argument("unknown node id");
  }
  state(id).host = host;
}

void ShardedSim::detach(NodeId id) {
  if (id.value() == 0 || id.value() >= next_node_) return;
  state(id).host = nullptr;
}

void ShardedSim::move_node(NodeId id, Vec2 position) {
  if (!sealed_) {
    // Pre-seal moves are plain position edits; links don't exist yet.
    topology_.move(id, position);
    return;
  }
  topology_.move(id, position);
  auto& st = state(id);
  auto fresh = topology_.neighbors(id);  // sorted
  std::vector<NodeId> downs;
  std::vector<NodeId> ups;
  std::set_difference(st.neighbors.begin(), st.neighbors.end(), fresh.begin(),
                      fresh.end(), std::back_inserter(downs));
  std::set_difference(fresh.begin(), fresh.end(), st.neighbors.begin(),
                      st.neighbors.end(), std::back_inserter(ups));
  for (const NodeId nb : downs) {
    auto& nst = state(nb);
    nst.neighbors.erase(
        std::lower_bound(nst.neighbors.begin(), nst.neighbors.end(), id));
    notify_link(id, nb, /*up=*/false);
    notify_link(nb, id, /*up=*/false);
  }
  for (const NodeId nb : ups) {
    auto& nst = state(nb);
    nst.neighbors.insert(
        std::lower_bound(nst.neighbors.begin(), nst.neighbors.end(), id), id);
    notify_link(id, nb, /*up=*/true);
    notify_link(nb, id, /*up=*/true);
  }
  st.neighbors = std::move(fresh);
}

void ShardedSim::set_profile(NodeId id, net::DeviceProfile profile) {
  if (id.value() == 0 || id.value() >= next_node_) {
    throw std::invalid_argument("unknown node id");
  }
  if (params_.shards > 1 && profile.tx_delay_scale < 1.0) {
    // The conservative lookahead is radio.base_delay; a faster-than-
    // nominal sender could deliver inside it (see docs/SIM.md).
    throw std::invalid_argument(
        "sharded simulation needs tx_delay_scale >= 1.0");
  }
  radio_.set_profile(id, profile);
}

void ShardedSim::notify_link(NodeId node, NodeId neighbor, bool up) {
  Shard& s = shard_of_node(node);
  (up ? s.radio.link_up : s.radio.link_down).inc();
  s.events.schedule_after(params_.link_detect_delay,
                          [this, node, neighbor, up] {
                            Host* host = state(node).host;
                            if (host == nullptr) return;
                            if (up) {
                              host->on_neighbor_up(neighbor);
                            } else {
                              host->on_neighbor_down(neighbor);
                            }
                          });
}

void ShardedSim::broadcast(NodeId from, wire::Bytes payload) {
  // Runs on `from`'s owner thread during epochs, or on the driver thread
  // at quiescent points (tuple injection).
  auto& st = state(from);
  Shard& s = *shards_[st.owner];
  const Radio::Transmission tx =
      radio_.transmit(from, payload.size(), s.events.now(), s.radio);
  auto shared = std::make_shared<const wire::Bytes>(std::move(payload));
  // One buffer per destination shard: same-shard receivers share
  // `shared` (decode-once in this shard's codec); each foreign shard
  // gets one private copy shared by that shard's receivers, so the
  // decode-once property survives the crossing.
  std::vector<std::shared_ptr<const wire::Bytes>> per_dst;
  for (const NodeId to : st.neighbors) {
    const auto delay = radio_.receive(tx, to, s.rng, s.radio);
    if (!delay.has_value()) continue;
    const std::uint32_t dst = state(to).owner;
    if (dst == st.owner) {
      s.events.schedule_after(
          *delay, [this, from, to, shared] { deliver(from, to, shared); });
    } else {
      if (per_dst.empty()) per_dst.resize(shards_.size());
      auto& buf = per_dst[dst];
      if (buf == nullptr) buf = std::make_shared<const wire::Bytes>(*shared);
      s.outbox[dst].push_back(Mail{tx.sent_at + *delay, from, to, buf});
      s.mail_out.inc();
    }
  }
}

void ShardedSim::deliver(NodeId from, NodeId to,
                         std::shared_ptr<const wire::Bytes> payload) {
  auto& st = state(to);
  if (st.host == nullptr) return;
  shards_[st.owner]->radio.rx.inc();
  st.host->on_datagram(from, std::move(payload));
}

void ShardedSim::ingest_mail() {
  for (std::size_t dst = 0; dst < shards_.size(); ++dst) {
    auto& queue = shards_[dst]->events;
    for (auto& src : shards_) {
      auto& box = src->outbox[dst];
      for (auto& m : box) {
        queue.schedule_at(m.when, [this, m = std::move(m)]() mutable {
          deliver(m.from, m.to, std::move(m.payload));
        });
      }
      box.clear();
    }
  }
}

EventId ShardedSim::schedule(NodeId id, SimTime delay,
                             EventQueue::Action action) {
  return shard_of_node(id).events.schedule_after(delay, std::move(action));
}

void ShardedSim::cancel(NodeId id, EventId event) {
  shard_of_node(id).events.cancel(event);
}

SimTime ShardedSim::node_now(NodeId id) const {
  return shards_[state(id).owner]->events.now();
}

Rng& ShardedSim::shard_rng(NodeId id) { return shard_of_node(id).rng; }

wire::FrameCodec& ShardedSim::frame_codec(NodeId id) {
  return shard_of_node(id).codec;
}

obs::Hub& ShardedSim::shard_hub(NodeId id) { return shard_of_node(id).hub; }

SimTime ShardedSim::now() const {
  // All shard clocks agree at quiescent points; before seal() there is
  // no clock yet.
  return shards_.empty() ? SimTime::zero() : shards_[0]->events.now();
}

std::uint32_t ShardedSim::shard_count() const { return params_.shards; }

std::uint32_t ShardedSim::shard_of(NodeId id) const {
  if (!sealed_) throw std::logic_error("shard_of() before seal()");
  return state(id).owner;
}

const std::vector<NodeId>& ShardedSim::neighbors(NodeId id) const {
  return state(id).neighbors;
}

void ShardedSim::run_until(SimTime deadline) {
  seal();
  if (shards_.size() == 1) {
    // Degenerate sequential case: one queue, no epochs, no barriers.
    ingest_mail();  // nothing crosses shards, but keep the path uniform
    shards_[0]->events.run_until(deadline);
    return;
  }
  const SimTime lookahead = params_.radio.base_delay;
  for (;;) {
    ingest_mail();
    // Epoch planning: jump straight to the earliest pending event, then
    // open a lookahead-bounded window from there.  Idle stretches cost
    // one pass instead of ceil(idle/lookahead) barriers.
    std::optional<SimTime> t_next;
    for (auto& s : shards_) {
      const auto t = s->events.next_event_time();
      if (t.has_value() && (!t_next.has_value() || *t < *t_next)) t_next = t;
    }
    if (!t_next.has_value() || *t_next > deadline) break;
    // Every event processed this epoch fires at t >= t_next, so any
    // cross-shard delivery it generates lands at t + lookahead or later
    // — strictly after epoch_end, hence never in a shard's past.
    SimTime epoch_end = *t_next + lookahead - SimTime(1);
    if (epoch_end > deadline) epoch_end = deadline;
    epoch_end_ = epoch_end;
    epochs_.inc();
    epoch_start_->arrive_and_wait();
    // ... workers run their shards to epoch_end_ ...
    epoch_done_->arrive_and_wait();
    barrier_waits_.inc(2);
  }
  // Nothing pending at or before the deadline: advance all clocks.
  for (auto& s : shards_) s->events.run_until(deadline);
}

void ShardedSim::worker(std::uint32_t index) {
  for (;;) {
    epoch_start_->arrive_and_wait();
    if (stop_) return;
    shards_[index]->events.run_until(epoch_end_);
    epoch_done_->arrive_and_wait();
  }
}

void ShardedSim::export_metrics(obs::MetricsRegistry& into) const {
  for (const auto& s : shards_) into.merge_from(s->hub.metrics);
  into.merge_from(hub_.metrics);
}

}  // namespace tota::sim
