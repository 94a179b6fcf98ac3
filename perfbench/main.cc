// perfbench — the TOTA benchmark program.
//
//   perfbench --workload <grid_flood|grid_churn_read|live_burst>
//             --seed <n> --seconds <s> --trace <0|1>
//
//   optional: --deadline-scale <x>  multiplies every wall-clock deadline
//             (0 makes every timed operation miss its deadline)
//
// Prints progress on stderr and, as the last stdout line, one JSON
// object {correct, attempted, failed, metrics} whose metrics map each
// name the run measured to its value: the end-to-end metrics with
// --trace 0, plus the per-layer metrics with --trace 1.  perfbench/run.py
// picks the family out and names the units.  Exits 1 on bad arguments.
#include <cstdio>
#include <string>

#include "workloads.h"

namespace perfbench {

namespace {

const Clock::time_point g_process_start = Clock::now();

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <grid_flood|grid_churn_read|"
               "live_burst> --seed <n> --seconds <s> --trace <0|1> "
               "[--deadline-scale <x>]\n");
  return 1;
}

}  // namespace

double since_process_start() { return seconds_since(g_process_start); }

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") args.workload = val;
    else if (key == "--seed") args.seed = std::stoull(val);
    else if (key == "--seconds") args.seconds = std::stod(val);
    else if (key == "--trace") args.trace = val == "1";
    else if (key == "--deadline-scale") args.deadline_scale = std::stod(val);
    else return usage();
  }
  if (argc % 2 != 1 || args.seconds <= 0 || args.deadline_scale < 0) return usage();

  Result r;
  if (args.workload == "grid_flood") r = run_grid_flood(args);
  else if (args.workload == "grid_churn_read") r = run_grid_churn_read(args);
  else if (args.workload == "live_burst") r = run_live_burst(args);
  else return usage();

  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }
  std::printf("%s\n", r.json().c_str());
  return 0;
}
