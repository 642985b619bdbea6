// perfbench: runs one workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Prints a host descriptor and one line per metric, then, as the last
// line, {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer ones (from a run split
// into an untraced and a traced half). Exit status: 0 when every op
// verified, 1 when some did not, 2 on bad usage or a workload that needs
// more hardware threads than the process may use.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "workloads.hpp"

extern char** environ;

namespace {

// The substrate reads UPCXX_* knobs at launch; the workloads pin their
// own configuration, so none may leak in from the caller's environment.
void scrub_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e; ++e)
    if (std::strncmp(*e, "UPCXX_", 6) == 0) {
      const char* eq = std::strchr(*e, '=');
      names.emplace_back(*e, eq ? static_cast<std::size_t>(eq - *e) : std::strlen(*e));
    }
  for (const auto& n : names) unsetenv(n.c_str());
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunParams p;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      p.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      p.seed = std::strtoull(v, &end, 10);
      if (*end) return usage("bad --seed");
    } else if (a == "--seconds") {
      p.seconds = std::strtod(v, &end);
      if (*end || !(p.seconds > 0)) return usage("bad --seconds");
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") && std::strcmp(v, "1")) return usage("bad --trace");
      p.trace = v[0] == '1';
    } else if (a == "--trace-out") {
      p.trace_out = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  const perfbench::WorkloadInfo* w = perfbench::find_workload(p.workload);
  if (!w) return usage(("unknown workload " + p.workload).c_str());

  const int cpus = perfbench::usable_cpus();
  const int busy = w->busy_threads[0] + w->busy_threads[1];
  std::printf("host: nproc=%d ranks=2 busy_threads_per_rank=[%d,%d]\n", cpus,
              w->busy_threads[0], w->busy_threads[1]);
  if (busy > cpus) {
    std::fprintf(stderr,
                 "perfbench: workload %s runs %d busy threads but only %d "
                 "hardware threads are available; refusing to run\n",
                 w->name, busy, cpus);
    return 2;
  }

  scrub_environment();
  const perfbench::RunResult r = perfbench::run_workload(p);
  for (const auto& n : r.notes) std::printf("%s\n", n.c_str());
  if (!r.error.empty()) std::fprintf(stderr, "perfbench: %s\n", r.error.c_str());

  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0;
    std::printf("metric %-44s %20.6f %s\n", m.name.c_str(), v, m.unit.c_str());
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return r.correct ? 0 : 1;
}
