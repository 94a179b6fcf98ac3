// Helpers the workloads share: CPU time, hop counts and the field
// tracker their subscriptions feed.
#include <sys/resource.h>

#include <algorithm>

#include "tota/events.h"
#include "tota/tuple.h"
#include "workloads.h"

namespace perfbench {

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

int hopcount(const tota::Tuple& t) {
  return static_cast<int>(t.content().at("hopcount").as_int());
}

FieldTracker::FieldTracker(int nodes, int structures)
    : nodes_(nodes),
      structures_(structures),
      hop_(static_cast<std::size_t>(nodes) * structures, -1),
      changed_us_(hop_.size(), 0) {}

void FieldTracker::record(int node, int k, const tota::Event& ev) {
  if (ev.kind != tota::EventKind::kTupleArrived &&
      ev.kind != tota::EventKind::kTupleRemoved) {
    return;
  }
  hop_[cell(node, k)] =
      ev.kind == tota::EventKind::kTupleArrived ? hopcount(*ev.tuple) : -1;
  changed_us_[cell(node, k)] = ev.time.micros();
}

int FieldTracker::errors(const std::vector<HopView>& expected,
                         const std::vector<bool>* only) const {
  int errors = 0;
  for (int i = 0; i < nodes_; ++i) {
    if (only != nullptr && !(*only)[i]) continue;
    for (int k = 0; k < structures_; ++k) {
      errors += hop_[cell(i, k)] != expected[k][i] ? 1 : 0;
    }
  }
  return errors;
}

double FieldTracker::mean_settle_ms(std::int64_t since_us) const {
  std::vector<double> done;
  for (int k = 0; k < structures_; ++k) {
    std::int64_t latest = since_us;
    for (int i = 0; i < nodes_; ++i) latest = std::max(latest, changed_us_[cell(i, k)]);
    done.push_back(1e-3 * static_cast<double>(latest - since_us));
  }
  return mean(done);
}

std::int64_t FieldTracker::last_change_us() const {
  return *std::max_element(changed_us_.begin(), changed_us_.end());
}

}  // namespace perfbench
