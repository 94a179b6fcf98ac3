// Result record, operation accounting and output checks of the TOTA
// benchmark.
//
// Everything here is independent of the program under test: the checks
// compare what the benchmark read out of the program against answers
// computed apart from it (grid Manhattan distances, a BFS census, a
// delta-tallied query membership), so they can be fed corrupted results
// in perfbench_selftest.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

// --- the result line --------------------------------------------------------

/// What one run reports: its operation accounting, whether its outputs
/// were correct, and every metric it measured by name (perfbench/run.py
/// picks the family the run asked for and adds the units from
/// BENCHMARK.json).
struct Result {
  /// False once any output check failed (operations that failed are
  /// counted in `failed` instead and leave this alone).
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> metrics;
  /// The first few check failures, for stderr.
  std::vector<std::string> errors;

  void set(const std::string& name, double value) { metrics[name] = value; }
  /// Records an output check: `ok` false marks the run incorrect.
  bool check(bool ok, const std::string& what);
  /// Records one operation; a missed deadline (`met` false) counts as
  /// failed and the run goes on.
  void operation(bool met) {
    ++attempted;
    if (!met) ++failed;
  }

  [[nodiscard]] std::string json() const;
};

/// Runs `step` until `done()` holds or `limit` of wall time has passed
/// (checked after each step); returns done()'s final value.  The
/// deadline of every timed operation in the benchmark.
bool poll_until(const std::function<void()>& step,
                const std::function<bool()>& done, double limit_s);

// --- statistics -------------------------------------------------------------

/// Nearest-rank quantile (q in [0,1]) of `v`; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
/// num / den, 0 when den is not positive.
inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }
/// Arithmetic mean; 0 for an empty sample.
double mean(const std::vector<double>& v);

// --- grid ground truth ------------------------------------------------------

/// A full rows × cols degree-4 grid (80 m spacing, 100 m range: the
/// diagonals at 113 m are out of range), nodes numbered row-major.
struct Grid {
  int rows = 0;
  int cols = 0;
  [[nodiscard]] int size() const { return rows * cols; }
  /// Hop distance between two nodes on the full grid: Manhattan.
  [[nodiscard]] int hops(int a, int b) const;
  /// Nodes connected to `sink` when only `present` nodes are on the grid
  /// (the census answer); 0 when the sink itself is absent.
  [[nodiscard]] int connected(const std::vector<bool>& present,
                              int sink) const;
};

/// True when the census read at the sink counts exactly the nodes
/// connected to it.
bool census_exact(double census, const Grid& grid,
                  const std::vector<bool>& present, int sink);

/// One field structure as observed on a set of nodes: hop count per node,
/// -1 where the node holds no replica.
using HopView = std::vector<int>;

/// Nodes whose observed hop differs from `expected` (-1 = must hold
/// nothing).  0 means the structure is exactly right.
int hop_errors(const HopView& observed, const HopView& expected);

/// Expected hops of a structure sourced at `source` on the full grid:
/// the closed form.
HopView grid_field(const Grid& grid, int source);

/// Expected hops when only `present` nodes are on the grid: BFS from
/// the source over present nodes, -1 where it cannot reach.
HopView grid_field(const Grid& grid, int source,
                   const std::vector<bool>& present);

/// Expected hops of a field sourced at `source` on a shared broadcast
/// channel: 0 at the source, 1 at every other live node, nothing at dead
/// ones.
HopView channel_field(const std::vector<bool>& alive, int source);

/// Expected view after a source died: nothing anywhere.
inline HopView retracted(std::size_t nodes) { return HopView(nodes, -1); }

// --- continuous queries -----------------------------------------------------

/// A continuous query's result set, rebuilt from its delta stream alone.
/// A delta that contradicts the tally (add of a member, update or
/// removal of a non-member) makes it inconsistent.
class QueryTally {
 public:
  using Key = std::pair<std::uint64_t, std::uint64_t>;  // tuple uid
  enum class Kind { kAdded, kUpdated, kRemoved };

  void apply(Kind kind, Key key);
  /// True when the tally is consistent and equals a fresh read.
  [[nodiscard]] bool matches(const std::set<Key>& fresh) const {
    return consistent_ && members_ == fresh;
  }

 private:
  std::set<Key> members_;
  bool consistent_ = true;
};

}  // namespace perfbench
