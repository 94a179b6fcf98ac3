// The three workloads of the TOTA benchmark and the replays behind the
// traced run's per-call layer timings (README.md has the metric map).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"

namespace tota {
class Tuple;
struct Event;
namespace obs {
class Histogram;
}
}

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Multiplies every wall-clock deadline (0: every timed operation
  /// misses its deadline, which shows a miss is a failed operation).
  double deadline_scale = 1.0;
};

/// Seconds since the process started (set-up time is measured from
/// there, so it is a cold set-up).
double since_process_start();

/// Process CPU seconds (user + system) so far.
double cpu_seconds();

/// The hop count a replica carries.
int hopcount(const tota::Tuple& t);

/// The latest hop and protocol time of each (node, structure) cell, fed
/// by the nodes' typed subscriptions.  It tells the workload when to stop
/// polling and when each structure last changed; the output checks read
/// the nodes through Middleware::read instead.
class FieldTracker {
 public:
  FieldTracker(int nodes, int structures);

  /// Records structure `k` arriving at `node` (its hop) or leaving it
  /// (-1); other events are ignored.  Called on the node's own thread.
  void record(int node, int k, const tota::Event& ev);
  /// Cells that differ from `expected` (one view per structure), over
  /// the nodes `only` marks, or all nodes when it is null.
  [[nodiscard]] int errors(const std::vector<HopView>& expected,
                           const std::vector<bool>* only = nullptr) const;
  /// Mean over the structures of the protocol ms from `since_us` until
  /// each last changed: with the tracker exact, until each became
  /// complete and exact.
  [[nodiscard]] double mean_settle_ms(std::int64_t since_us) const;
  /// Latest protocol time any cell changed.
  [[nodiscard]] std::int64_t last_change_us() const;

 private:
  std::size_t cell(int node, int k) const {
    return static_cast<std::size_t>(node) * structures_ + k;
  }

  int nodes_;
  int structures_;
  std::vector<int> hop_;
  std::vector<std::int64_t> changed_us_;
};

Result run_grid_flood(const Args& args);
Result run_grid_churn_read(const Args& args);
Result run_live_burst(const Args& args);

/// Sets the counter-based per-layer metrics (wire cache, engine,
/// maintenance, space, bus, aggregator) from `d(name)`, the workload's
/// delta of the program counter `name`, and the maint.repair_ms
/// histogram.
void layer_counters(Result& r, const std::function<double(const char*)>& d,
                    const tota::obs::Histogram* repair);

// --- replays (traced runs only) ----------------------------------------------

/// How a workload's receives split, from its engine.* counters.
struct RxMix {
  double store = 0;
  double duplicate = 0;
  double holddown = 0;
};

/// ns per frame of wire::Frame + tuple encode and of wire::Frame +
/// tuple decode, over frames built from `replicas`.
struct WireTimes {
  double encode_ns = 0;
  double decode_ns = 0;
};
WireTimes replay_wire(const std::vector<std::unique_ptr<tota::Tuple>>& replicas);

/// ns per Middleware::on_datagram on a stand-alone node, with the
/// workload's store/duplicate/hold-down mix, built from `replicas`.
double replay_engine_rx(
    const std::vector<std::unique_ptr<tota::Tuple>>& replicas,
    const RxMix& mix);

/// ns per TupleSpace::put of the replicas into a bounded store.
double replay_space_put(
    const std::vector<std::unique_ptr<tota::Tuple>>& replicas);

/// ns per net::Datagram::decode over captured datagrams.
double replay_datagram_decode(const std::vector<std::vector<std::uint8_t>>& dgrams);

}  // namespace perfbench
