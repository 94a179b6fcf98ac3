#include "checks.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <deque>

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

bool Result::check(bool ok, const std::string& what) {
  if (!ok) {
    correct = false;
    if (errors.size() < 16) errors.push_back(what);
  }
  return ok;
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace

std::string Result::json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": " + number(value);
  }
  out += "}}";
  return out;
}

bool poll_until(const std::function<void()>& step,
                const std::function<bool()>& done, double limit_s) {
  const auto start = Clock::now();
  while (!done()) {
    if (seconds_since(start) > limit_s) return false;
    step();
  }
  return true;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank > 0 ? rank - 1 : 0)];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

int Grid::hops(int a, int b) const {
  return std::abs(a / cols - b / cols) + std::abs(a % cols - b % cols);
}

HopView grid_field(const Grid& grid, int source,
                   const std::vector<bool>& present) {
  HopView out(grid.size(), -1);
  if (!present[source]) return out;
  std::deque<int> queue{source};
  out[source] = 0;
  while (!queue.empty()) {
    const int n = queue.front();
    queue.pop_front();
    const int r = n / grid.cols;
    const int c = n % grid.cols;
    const int next[4][2] = {{r - 1, c}, {r + 1, c}, {r, c - 1}, {r, c + 1}};
    for (const auto& rc : next) {
      if (rc[0] < 0 || rc[0] >= grid.rows || rc[1] < 0 || rc[1] >= grid.cols) {
        continue;
      }
      const int m = rc[0] * grid.cols + rc[1];
      if (present[m] && out[m] < 0) {
        out[m] = out[n] + 1;
        queue.push_back(m);
      }
    }
  }
  return out;
}

int Grid::connected(const std::vector<bool>& present, int sink) const {
  const HopView reach = grid_field(*this, sink, present);
  return static_cast<int>(
      std::count_if(reach.begin(), reach.end(), [](int h) { return h >= 0; }));
}

bool census_exact(double census, const Grid& grid,
                  const std::vector<bool>& present, int sink) {
  return census == static_cast<double>(grid.connected(present, sink));
}

int hop_errors(const HopView& observed, const HopView& expected) {
  if (observed.size() != expected.size()) {
    return static_cast<int>(std::max(observed.size(), expected.size()));
  }
  int errors = 0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    errors += observed[i] != expected[i] ? 1 : 0;
  }
  return errors;
}

HopView grid_field(const Grid& grid, int source) {
  HopView out(grid.size());
  for (int n = 0; n < grid.size(); ++n) out[n] = grid.hops(source, n);
  return out;
}

HopView channel_field(const std::vector<bool>& alive, int source) {
  HopView out(alive.size(), -1);
  for (std::size_t n = 0; n < alive.size(); ++n) {
    if (alive[n]) out[n] = static_cast<int>(n) == source ? 0 : 1;
  }
  return out;
}

void QueryTally::apply(Kind kind, Key key) {
  switch (kind) {
    case Kind::kAdded:
      if (!members_.insert(key).second) consistent_ = false;
      break;
    case Kind::kUpdated:
      if (members_.count(key) == 0) consistent_ = false;
      break;
    case Kind::kRemoved:
      if (members_.erase(key) == 0) consistent_ = false;
      break;
  }
}

}  // namespace perfbench
