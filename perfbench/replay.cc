// Per-call layer timings for the traced run: the workload's own traffic
// replayed through each layer's public entry point.
//
// Every replay pre-builds its inputs outside the timed region, times
// whole batches (no per-iteration clock reads or pauses), and keeps any
// store it fills at a bounded steady-state size by starting each batch
// on a fresh one, built outside the timed region.
#include <algorithm>

#include "net/datagram.h"
#include "obs/hub.h"
#include "obs/metrics.h"
#include "tota/middleware.h"
#include "wire/frame.h"
#include "workloads.h"

namespace perfbench {

using namespace tota;

namespace {

/// Total timed frames per replay (several batches).
constexpr std::size_t kReplayFrames = 200000;

/// Results the replays fold their outputs into, so the timed calls are
/// not optimised away.
volatile std::size_t g_sink = 0;

wire::Bytes encode_frame(const Tuple& t) {
  return wire::Frame::tuple([&t](wire::Writer& w) { t.encode(w); });
}

/// A Platform owned by the benchmark: broadcasts and timers are
/// swallowed (the replayed node is alone), time stands still.
class ReplayPlatform final : public Platform {
 public:
  void broadcast(wire::Bytes) override { ++broadcasts; }
  [[nodiscard]] SimTime now() const override { return SimTime::from_seconds(1); }
  TimerId schedule(SimTime, std::function<void()>) override { return next_++; }
  void cancel(TimerId) override {}
  [[nodiscard]] Vec2 position() const override { return {}; }
  [[nodiscard]] Rng& rng() override { return rng_; }
  std::uint64_t broadcasts = 0;

 private:
  Rng rng_{17};
  TimerId next_ = 1;
};

/// `replicas` re-stamped with `count` distinct uids (cycling through
/// the sample), as they would arrive from a neighbour.
std::vector<std::unique_ptr<Tuple>> distinct(
    const std::vector<std::unique_ptr<Tuple>>& replicas, std::size_t count,
    std::uint64_t origin) {
  std::vector<std::unique_ptr<Tuple>> out;
  for (std::size_t k = 0; k < count && !replicas.empty(); ++k) {
    auto t = replicas[k % replicas.size()]->clone();
    t->set_uid(TupleUid(NodeId(origin), k + 1));
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace

WireTimes replay_wire(const std::vector<std::unique_ptr<Tuple>>& replicas) {
  WireTimes out;
  if (replicas.empty()) return out;
  std::vector<wire::Bytes> frames;
  for (const auto& t : replicas) frames.push_back(encode_frame(*t));
  const std::size_t rounds = std::max<std::size_t>(1, kReplayFrames / frames.size());

  std::size_t sink = 0;
  auto t0 = Clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    for (const auto& t : replicas) sink += encode_frame(*t).size();
  }
  out.encode_ns = seconds_since(t0) * 1e9 / static_cast<double>(rounds * frames.size());

  t0 = Clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    for (const auto& f : frames) {
      const wire::Frame frame = wire::Frame::decode(f);
      wire::Reader reader(frame.tuple_body);
      sink += Tuple::decode(reader)->hop();
    }
  }
  out.decode_ns = seconds_since(t0) * 1e9 / static_cast<double>(rounds * frames.size());
  g_sink = sink;
  return out;
}

double replay_engine_rx(const std::vector<std::unique_ptr<Tuple>>& replicas,
                        const RxMix& mix) {
  if (replicas.empty()) return 0.0;
  // One batch of kBatch frames in the workload's proportions: stores of
  // distinct uids from neighbour A, duplicates re-sending stored ones,
  // and hold-down drops of uids retracted (neighbour B went down) just
  // before the batch.
  constexpr std::size_t kBatch = 2000;
  const double total = std::max(1.0, mix.store + mix.duplicate + mix.holddown);
  const auto n_store = std::max<std::size_t>(
      1, static_cast<std::size_t>(kBatch * mix.store / total));
  const auto n_dup = static_cast<std::size_t>(kBatch * mix.duplicate / total);
  const auto n_hd = static_cast<std::size_t>(kBatch * mix.holddown / total);
  const NodeId self(1), a(2), b(3);

  const auto stored = distinct(replicas, n_store, 100);
  const auto held = distinct(replicas, n_hd, 200);
  std::vector<wire::Bytes> prep;  // stored from B, then retracted
  for (const auto& t : held) prep.push_back(encode_frame(*t));
  std::vector<wire::Bytes> batch;
  for (const auto& t : stored) batch.push_back(encode_frame(*t));
  for (std::size_t k = 0; k < n_dup; ++k) batch.push_back(batch[k % n_store]);
  for (const auto& f : prep) batch.push_back(f);

  double timed_s = 0;
  std::size_t frames = 0;
  while (frames < kReplayFrames) {
    obs::Hub hub;
    ReplayPlatform platform;
    auto mw = std::make_unique<Middleware>(self, platform, MaintenanceOptions{}, &hub);
    mw->on_neighbor_up(a);
    mw->on_neighbor_up(b);
    for (const auto& f : prep) mw->on_datagram(b, f);
    mw->on_neighbor_down(b);

    const auto t0 = Clock::now();
    for (const auto& f : batch) mw->on_datagram(a, f);
    timed_s += seconds_since(t0);
    frames += batch.size();
  }
  return timed_s * 1e9 / static_cast<double>(frames);
}

double replay_space_put(const std::vector<std::unique_ptr<Tuple>>& replicas) {
  if (replicas.empty()) return 0.0;
  constexpr std::size_t kBatch = 2000;
  const auto tuples = distinct(replicas, kBatch, 300);
  double timed_s = 0;
  std::size_t puts = 0;
  while (puts < kReplayFrames) {
    obs::MetricsRegistry registry;
    TupleSpace space;
    space.bind_metrics(registry);
    std::vector<std::unique_ptr<Tuple>> batch;
    for (const auto& t : tuples) batch.push_back(t->clone());
    const auto t0 = Clock::now();
    for (auto& t : batch) {
      space.put(std::move(t), NodeId(2), true, SimTime::from_seconds(1));
    }
    timed_s += seconds_since(t0);
    puts += kBatch;
  }
  return timed_s * 1e9 / static_cast<double>(puts);
}

double replay_datagram_decode(const std::vector<std::vector<std::uint8_t>>& dgrams) {
  if (dgrams.empty()) return 0.0;
  const std::size_t rounds = std::max<std::size_t>(1, kReplayFrames / dgrams.size());
  std::size_t sink = 0;
  const auto t0 = Clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    for (const auto& d : dgrams) {
      try {
        sink += net::Datagram::decode(d).chunks.size();
      } catch (const std::exception&) {
        ++sink;  // a foreign datagram on the channel
      }
    }
  }
  g_sink = sink;
  return seconds_since(t0) * 1e9 / static_cast<double>(rounds * dgrams.size());
}

void layer_counters(Result& r, const std::function<double(const char*)>& d,
                    const obs::Histogram* repair) {
  const double hits = d("wire.frame.decode_hit");
  r.set("wire.frame_cache_hit_ratio",
        ratio(hits, hits + d("wire.frame.decode_miss")));
  r.set("engine.store", d("engine.store"));
  r.set("engine.propagate", d("engine.propagate"));
  r.set("engine.duplicate_per_store",
        ratio(d("engine.drop.duplicate"), d("engine.store")));
  r.set("engine.holddown_drops", d("engine.drop.holddown"));
  r.set("maint.retract_started", d("maint.retract_started"));
  r.set("maint.retract_cascaded", d("maint.retract_cascaded"));
  r.set("maint.probe_tx", d("maint.probe_tx"));
  r.set("maint.probe_answer", d("maint.probe_answer"));
  r.set("maint.heal_reprop", d("maint.heal_reprop"));
  r.set("maint.link_up_reprop", d("maint.link_up_reprop"));
  const double queries = d("space.query.indexed") + d("space.query.scan");
  r.set("space.candidates_per_query", ratio(d("space.query.candidates"), queries));
  r.set("space.residual_evals_per_query",
        ratio(d("space.plan.residual_evals"), queries));
  r.set("bus.publish", d("bus.publish"));
  r.set("bus.dispatch_fired", d("bus.dispatch.fired"));
  r.set("bus.cq_evals", d("bus.cq.evals"));
  r.set("agg.fold", d("agg.fold"));
  r.set("agg.report_tx", d("agg.report_tx"));
  r.set("agg.reparent", d("agg.reparent"));
  r.set("agg.delta", d("agg.delta"));
  const bool have = repair != nullptr && !repair->empty();
  r.set("maint.repair_ms_p50", have ? repair->quantile(0.5) : 0.0);
  r.set("maint.repair_ms_p95", have ? repair->quantile(0.95) : 0.0);
}

}  // namespace perfbench
