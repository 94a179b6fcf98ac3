// live_burst: a net::MassLiveWorld of 120 real-socket nodes on loopback
// (batching, digest, reliable channel), one event-loop thread.
//
// Each cycle bursts K gradients from K seeded sources and waits until
// every live node holds each at its BFS-exact hop (0 at the source, 1
// elsewhere on the shared channel), kills the sources and waits until no
// live node holds any of their fields, then waits until every survivor
// has expired the dead nodes from its neighbour table.  Every wait polls
// with a 1 ms slice.  As on the grids, typed subscriptions feed a
// tracker that decides when to stop polling; the output checks read
// every live node through Middleware::read.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <unordered_map>

#include "net/mass_live.h"
#include "tuples/all.h"
#include "workloads.h"

namespace perfbench {

using namespace tota;

namespace {

constexpr int kNodes = 120;
constexpr int kBurst = 4;
constexpr SimTime kSlice = SimTime::from_millis(1);
/// Wall-clock deadlines (times --deadline-scale).
constexpr double kMeshDeadlineS = 30.0;
constexpr double kConvergeDeadlineS = 10.0;
constexpr double kRetractDeadlineS = 20.0;
constexpr std::size_t kCaptureLimit = 4096;

/// A socket on the shared channel that keeps copies of the datagrams
/// the nodes broadcast (traced runs: net.datagram_decode_ns replay).
class Capture {
 public:
  Capture(net::EventLoop& loop, std::uint16_t port) : loop_(loop) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
    if (fd_ < 0) return;
    const int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    loop_.add_fd(fd_, [this] { drain(); });
  }
  ~Capture() {
    if (fd_ < 0) return;
    loop_.remove_fd(fd_);
    ::close(fd_);
  }
  Capture(const Capture&) = delete;
  Capture& operator=(const Capture&) = delete;

  std::vector<std::vector<std::uint8_t>> datagrams;

 private:
  void drain() {
    std::uint8_t buf[65536];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n <= 0) return;
      if (datagrams.size() < kCaptureLimit) datagrams.emplace_back(buf, buf + n);
    }
  }

  net::EventLoop& loop_;
  int fd_ = -1;
};

/// Every node's counters plus the loop's, merged.
obs::MetricsRegistry snapshot(net::MassLiveWorld& world) {
  obs::MetricsRegistry m;
  for (int i = 0; i < world.count(); ++i) m.merge_from(world.hub(i).metrics);
  m.merge_from(world.loop_hub().metrics);
  return m;
}

net::MassLiveOptions live_options(std::uint64_t seed) {
  net::MassLiveOptions opts;
  opts.count = kNodes;
  opts.transport.mode = net::UdpOptions::Mode::kBroadcast;
  opts.transport.group = "127.255.255.255";
  // A per-process port: concurrent runs on one host keep separate
  // channels.
  opts.transport.port = static_cast<std::uint16_t>(40000 + ::getpid() % 20000);
  opts.transport.rcvbuf = 4 << 20;
  opts.discovery.beacon_period = SimTime::from_millis(250);
  opts.discovery.expiry_missed_beacons = 6;
  opts.batch.enabled = true;
  opts.batch.flush_delay = SimTime::from_millis(5);
  opts.digest_period = SimTime::from_millis(500);
  opts.reliable = true;
  opts.maintenance.hold_down = SimTime::from_millis(2000);
  opts.seed = seed;
  return opts;
}

/// One started world polled until its mesh has formed, with a tracker
/// of the burst fields fed by a typed subscription on every node.
class LiveWorld {
 public:
  LiveWorld(const net::MassLiveOptions& opts, bool capture, double mesh_deadline_s)
      : world_(opts), tracker_(kNodes, kBurst) {
    if (!world_.start()) {
      std::fprintf(stderr, "live_burst: loopback UDP unavailable: %s\n",
                   world_.error().c_str());
      std::exit(1);
    }
    if (capture) capture_ = std::make_unique<Capture>(world_.loop(), opts.transport.port);
    for (int i = 0; i < kNodes; ++i) {
      world_.mw(i).subscribe(
          Pattern::of_type(tuples::GradientTuple::kTag), [this, i](const Event& ev) {
            const auto it = slot_of_.find(ev.tuple->content().at("name").as_string());
            if (it != slot_of_.end()) tracker_.record(i, it->second, ev);
          });
    }
    meshed_ = world_.run_until([this] { return world_.mesh_complete(); },
                               SimTime::from_seconds(mesh_deadline_s), kSlice);
  }
  ~LiveWorld() {
    capture_.reset();
    world_.stop();
  }

  net::MassLiveWorld& world() { return world_; }
  bool meshed() const { return meshed_; }
  const std::vector<std::vector<std::uint8_t>>* captured() const {
    return capture_ ? &capture_->datagrams : nullptr;
  }
  void track(const std::vector<std::string>& names) {
    for (int k = 0; k < kBurst; ++k) slot_of_[names[k]] = k;
  }
  /// True when the tracker matches `expected` on every live node.
  bool exact(const std::vector<HopView>& expected, const std::vector<bool>& alive) const {
    return tracker_.errors(expected, &alive) == 0;
  }
  const FieldTracker& tracker() const { return tracker_; }

 private:
  net::MassLiveWorld world_;
  std::unique_ptr<Capture> capture_;
  std::unordered_map<std::string, int> slot_of_;
  FieldTracker tracker_;
  bool meshed_ = false;
};

/// The traced run's per-layer metrics from one cycle's counter deltas
/// `d`, its replicas and the datagrams captured on the channel.
void live_layers(Result& r, const std::function<double(const char*)>& d,
                 const obs::MetricsRegistry& after,
                 const std::vector<std::unique_ptr<Tuple>>& replicas,
                 const std::vector<std::vector<std::uint8_t>>* captured) {
  // No simulator here: its layer reads 0 but for the fan-out, which is
  // the UDP channel's.
  for (const char* name : {"sim.run_ns", "sim.move_ns_per_call", "sim.epochs",
                           "sim.barrier_waits", "sim.cross_deliveries"}) {
    r.set(name, 0.0);
  }
  r.set("sim.rx_per_tx", ratio(d("net.udp.rx"), d("net.udp.tx")));
  r.set("wire.bytes_per_msg", ratio(d("net.udp.tx_bytes"), d("net.udp.tx")));
  layer_counters(r, d, after.find_histogram("maint.repair_ms"));
  const WireTimes wire = replay_wire(replicas);
  r.set("wire.encode_ns_per_frame", wire.encode_ns);
  r.set("wire.decode_ns_per_frame", wire.decode_ns);
  const RxMix mix{d("engine.store"), d("engine.drop.duplicate"), d("engine.drop.holddown")};
  r.set("engine.rx_ns_per_frame", replay_engine_rx(replicas, mix));
  r.set("space.put_ns_per_call", replay_space_put(replicas));
  r.set("net.datagram_decode_ns",
        captured != nullptr ? replay_datagram_decode(*captured) : 0.0);
  r.set("net.batch_chunks_per_datagram", ratio(d("net.batch.chunks"), d("net.batch.tx")));
  r.set("net.rel_rtx_per_tx", ratio(d("net.rel.rtx"), d("net.rel.tx")));
  r.set("net.sync_resend", d("net.sync.resend"));
  r.set("net.hello_rx", d("net.hello.rx"));
  r.set("loop.wakeups", d("loop.wakeups"));
  r.set("loop.fd_events_per_wakeup", ratio(d("loop.fd_events"), d("loop.wakeups")));
  r.set("loop.timers_fired", d("loop.timers_fired"));
}

}  // namespace

// Each cycle runs on a fresh world of kNodes nodes (same seed, so the
// cycles repeat the same operations): the first world's start is the
// workload's set-up, later ones are built between cycles, outside the
// cycle timers.  One world per cycle keeps every cycle clean; the
// FOUND: note in CHANGES.md records what repeated kills on one world do.
Result run_live_burst(const Args& args) {
  Result r;
  tuples::register_standard_tuples();
  const net::MassLiveOptions opts = live_options(args.seed);
  const double scale = args.deadline_scale;
  auto lw = std::make_unique<LiveWorld>(opts, args.trace, kMeshDeadlineS * scale);
  const double setup_s = since_process_start();

  std::mt19937_64 rng(args.seed);
  std::vector<double> cycle_s, converge_ms, converge_sim, retract_ms, repair_sim,
      read_ns, replicas_per_s, sim_rate, cpu_us_per_rx;
  std::vector<std::unique_ptr<Tuple>> replicas;  // traced runs: replay input
  double tx = 0, stores = 0;
  const auto measure_start = Clock::now();

  for (int cycle = 0; cycle == 0 || seconds_since(measure_start) < args.seconds; ++cycle) {
    if (cycle > 0) {
      lw.reset();
      lw = std::make_unique<LiveWorld>(opts, false, kMeshDeadlineS * scale);
    }
    // Every cycle attempts four operations: mesh, burst, retraction and
    // expiry.  Without a mesh the rest are not run and count as failed.
    r.operation(lw->meshed());
    if (!lw->meshed()) {
      for (int k = 0; k < 3; ++k) r.operation(false);
      continue;
    }
    net::MassLiveWorld& world = lw->world();
    std::vector<bool> alive(kNodes, true);

    // Reads every live node through Middleware::read; returns the hop
    // view of each burst field.
    auto read_views = [&](const std::vector<std::string>& names) {
      std::vector<HopView> views(names.size(), HopView(kNodes, -1));
      for (int i = 0; i < kNodes; ++i) {
        if (!alive[i]) continue;
        for (std::size_t k = 0; k < names.size(); ++k) {
          Pattern p = Pattern::of_type(tuples::GradientTuple::kTag);
          p.eq("name", names[k]);
          const auto t0 = Clock::now();
          const auto found = world.mw(i).read(p);
          read_ns.push_back(seconds_since(t0) * 1e9);
          if (!found.empty()) views[k][i] = hopcount(*found.front());
        }
      }
      return views;
    };

    // K distinct seeded sources.
    std::vector<int> sources;
    while (static_cast<int>(sources.size()) < kBurst) {
      const int n = static_cast<int>(rng() % kNodes);
      if (std::find(sources.begin(), sources.end(), n) == sources.end()) {
        sources.push_back(n);
      }
    }
    std::vector<std::string> names;
    for (int k = 0; k < kBurst; ++k) names.push_back("burst" + std::to_string(k));
    lw->track(names);
    std::vector<HopView> want;
    for (const int s : sources) want.push_back(channel_field(alive, s));

    const obs::MetricsRegistry before = snapshot(world);
    const double cpu0 = cpu_seconds();
    const auto t_cycle = Clock::now();

    // 1. The burst.
    const std::int64_t inject_us = world.loop().now().micros();
    for (int k = 0; k < kBurst; ++k) world.inject_gradient(sources[k], names[k]);
    const bool converged = world.run_until([&] { return lw->exact(want, alive); },
                                           SimTime::from_seconds(kConvergeDeadlineS * scale), kSlice);
    r.operation(converged);
    if (converged) {
      converge_ms.push_back(seconds_since(t_cycle) * 1e3);
      converge_sim.push_back(lw->tracker().mean_settle_ms(inject_us));
      const auto seen = read_views(names);
      for (int k = 0; k < kBurst; ++k) {
        r.check(hop_errors(seen[k], want[k]) == 0,
                "live_burst: a burst field is not BFS-exact");
      }
      if (args.trace && replicas.empty()) {
        for (int i = 0; i < kNodes; ++i) {
          for (auto& t : world.mw(i).read(Pattern::of_type(tuples::GradientTuple::kTag))) {
            replicas.push_back(std::move(t));
          }
        }
      }
    }

    // 2. Kill the sources; wait until no live node holds their fields.
    for (const int s : sources) {
      world.kill(s);
      alive[s] = false;
    }
    const std::vector<HopView> gone(kBurst, retracted(kNodes));
    const auto t_kill = Clock::now();
    const std::int64_t kill_us = world.loop().now().micros();
    const bool retracted_all = world.run_until([&] { return lw->exact(gone, alive); },
                                               SimTime::from_seconds(kRetractDeadlineS * scale), kSlice);
    r.operation(retracted_all);
    if (retracted_all) {
      retract_ms.push_back(seconds_since(t_kill) * 1e3);
      const auto seen = read_views(names);
      for (int k = 0; k < kBurst; ++k) {
        r.check(hop_errors(seen[k], gone[k]) == 0,
                "live_burst: a killed source's field leaked");
      }
    }

    // 3. Quiet until every survivor has expired the dead sources.
    auto expired = [&] {
      for (int i = 0; i < kNodes; ++i) {
        if (!alive[i]) continue;
        for (const NodeId n : world.mw(i).neighbors()) {
          const auto j = static_cast<int>(n.value() - opts.base_id);
          if (j >= 0 && j < kNodes && !alive[j]) return false;
        }
      }
      return true;
    };
    const bool quiet =
        world.run_until(expired, SimTime::from_seconds(kRetractDeadlineS * scale), kSlice);
    r.operation(quiet);
    if (quiet) {
      repair_sim.push_back(1e-3 * static_cast<double>(world.loop().now().micros() - kill_us));
    }
    const double wall = seconds_since(t_cycle);
    const double cpu = cpu_seconds() - cpu0;
    const obs::MetricsRegistry after = snapshot(world);
    auto d = [&](const char* name) {
      return static_cast<double>(after.get(name) - before.get(name));
    };
    cycle_s.push_back(wall);
    replicas_per_s.push_back(ratio(d("engine.store"), wall));
    sim_rate.push_back(ratio(kNodes * wall, cpu));
    cpu_us_per_rx.push_back(ratio(cpu * 1e6, d("net.udp.rx")));
    tx += d("net.udp.tx");
    stores += d("engine.store");
    r.check(after.get("net.udp.rx") <= (kNodes - 1) * after.get("net.udp.tx"),
            "live_burst: net.udp.rx > (N-1) * net.udp.tx");
    if (args.trace && !replicas.empty() && !r.metrics.count("loop.wakeups")) {
      live_layers(r, d, after, replicas, lw->captured());
    }
  }
  lw.reset();

  r.set("setup_s", setup_s);
  r.set("host.wall_s", median(cycle_s));
  r.set("host.replicas_per_s", median(replicas_per_s));
  r.set("msgs_per_replica", ratio(tx, stores));
  r.set("host.sim_rate", median(sim_rate));
  r.set("host.cpu_us_per_datagram", median(cpu_us_per_rx));
  r.set("host.converge_ms", median(converge_ms));
  r.set("converge_sim_ms", median(converge_sim));
  r.set("retract_ms", median(retract_ms));
  r.set("repair_sim_ms", median(repair_sim));
  r.set("host.read_ns_p50", quantile(read_ns, 0.5));
  r.set("host.read_ns_p99", quantile(read_ns, 0.99));
  std::fprintf(stderr, "live_burst: %zu cycles\n", cycle_s.size());
  return r;
}

}  // namespace perfbench
