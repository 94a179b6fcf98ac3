// perfbench_selftest — shows that each output check of the benchmark
// rejects a corrupted result, and that a missed wall-clock deadline
// counts as a failed operation without aborting the run or marking its
// outputs incorrect.  Exits 1 when any expectation fails.
#include <cstdio>
#include <string>

#include "checks.h"

namespace {

int failures = 0;
int expectations = 0;

void expect(bool ok, const char* what) {
  ++expectations;
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what);
  }
}

using namespace perfbench;

void field_checks() {
  const Grid grid{5, 7};
  const HopView truth = grid_field(grid, 8);
  expect(truth[8] == 0 && truth[34] == grid.hops(8, 34), "closed form");
  expect(grid_field(grid, 8, std::vector<bool>(grid.size(), true)) == truth,
         "BFS over the full grid equals the closed form");
  expect(hop_errors(truth, truth) == 0, "an exact field passes");

  HopView off = truth;
  off[20] += 1;
  expect(hop_errors(off, truth) == 1, "one replica a hop off is rejected");

  HopView missing = truth;
  missing[3] = -1;
  expect(hop_errors(missing, truth) == 1, "one missing replica is rejected");

  // A hole between the source and the rest of its row lengthens the
  // path around it.
  std::vector<bool> present(grid.size(), true);
  present[9] = false;
  const HopView holed = grid_field(grid, 8, present);
  expect(holed[9] == -1 && holed[10] == 4, "BFS routes around a hole");
  expect(hop_errors(truth, holed) > 0, "the full-grid field is wrong with a hole");
}

void retraction_checks() {
  std::vector<bool> alive(6, true);
  alive[2] = false;
  const HopView field = channel_field(alive, 0);
  expect(field[0] == 0 && field[1] == 1 && field[2] == -1, "channel field");
  HopView wrong = field;
  wrong[4] = 2;
  expect(hop_errors(wrong, field) == 1, "a live replica at hop 2 is rejected");

  const HopView gone = retracted(6);
  HopView leak = gone;
  expect(hop_errors(leak, gone) == 0, "a clean retraction passes");
  leak[5] = 1;
  expect(hop_errors(leak, gone) == 1, "one leaked replica is rejected");
}

void census_checks() {
  const Grid grid{4, 4};
  std::vector<bool> present(grid.size(), true);
  expect(census_exact(16, grid, present, 0), "full census passes");
  expect(!census_exact(15, grid, present, 0), "census one short is rejected");
  expect(!census_exact(17, grid, present, 0), "census one over is rejected");
  // Cut node 3 (a corner) off: its neighbours 2 and 7 leave.
  present[2] = false;
  present[7] = false;
  expect(census_exact(13, grid, present, 0), "census counts connected nodes only");
  expect(!census_exact(14, grid, present, 0), "a disconnected node is not counted");
}

void query_checks() {
  const QueryTally::Key a{1, 1}, b{1, 2}, c{2, 1};
  QueryTally tally;
  tally.apply(QueryTally::Kind::kAdded, a);
  tally.apply(QueryTally::Kind::kAdded, b);
  tally.apply(QueryTally::Kind::kUpdated, b);
  expect(tally.matches({a, b}), "tally equal to the fresh read passes");
  expect(!tally.matches({a}), "a tally with an extra member is rejected");
  expect(!tally.matches({a, b, c}), "a tally missing a member is rejected");
  tally.apply(QueryTally::Kind::kRemoved, a);
  expect(tally.matches({b}), "removal delta applied");

  QueryTally broken;
  broken.apply(QueryTally::Kind::kRemoved, c);
  expect(!broken.matches({}), "removal of a non-member is rejected");
}

void deadline_checks() {
  Result r;
  int steps = 0;
  const bool met = poll_until([&] { ++steps; }, [] { return false; }, 0.01);
  expect(!met && steps > 0, "a condition that never holds misses its deadline");
  r.operation(met);
  const bool next = poll_until([&] { ++steps; }, [&] { return steps >= 3; }, 5.0);
  r.operation(next);
  expect(next, "the run goes on after a missed deadline");
  expect(r.attempted == 2 && r.failed == 1, "the miss counts as one failed operation");
  expect(r.correct, "a missed deadline is not an incorrect output");
  r.set("x_ms", 1.5);
  const std::string json = r.json();
  expect(json.find("\"correct\": true") != std::string::npos &&
             json.find("\"failed\": 1") != std::string::npos,
         "the result line reports the failed operation");
  r.check(false, "corrupted");
  expect(!r.correct, "a failed output check marks the run incorrect");
}

}  // namespace

int main() {
  field_checks();
  retraction_checks();
  census_checks();
  query_checks();
  deadline_checks();
  std::printf("perfbench_selftest: %d/%d expectations met\n",
              expectations - failures, expectations);
  return failures == 0 ? 0 : 1;
}
