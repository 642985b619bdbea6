// The benchmark's four workloads (2 ranks, thread backend, one process).
// See run.py for what each one exercises and every metric's definition.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunParams {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  // measured time; a traced run splits it in halves
  bool trace = false;
  std::string trace_out;  // Chrome trace file of the traced half ("" = none)
  int setup_reps = 15;    // setup-only launches timed for setup_s (median)
  int slices = 20;        // measured slices, one launch each
  // Self-test hook: corrupt the expected value of every Nth read before it
  // is compared (0 = never). The run must count each such read as failed.
  std::uint64_t corrupt_every = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::string error;  // why correct is false beyond failed ops, if known
  std::vector<std::string> notes;  // human-readable lines (per-slice rates)
  std::uint64_t corrupted = 0;     // reads the corrupt_every hook spoiled
};

struct WorkloadInfo {
  const char* name;
  int busy_threads[2];  // threads that spin, per rank
};

// Null when no workload has this name.
const WorkloadInfo* find_workload(const std::string& name);

// Hardware threads this process may run on.
int usable_cpus();

// Runs one workload: setup_reps setup-only launches (setup_s is their
// median), then one launch per measured slice that warms up, measures and
// verifies. Never throws; failures land in the result.
RunResult run_workload(const RunParams& p);

}  // namespace perfbench
