#ifndef ONTOBENCH_WORKLOADS_H_
#define ONTOBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "measure.h"

// The four workloads (see README.md): warm_wire, cold_rewrite, wide_cte
// and refresh_mix. Each builds its system from seeded inputs, sets it up
// several times (setup_s is the median), drives it closed-loop for the
// requested time, checks every OK answer against the chase oracle, and
// reports the end-to-end metrics — or, in a traced run, the per-layer
// metrics.

namespace ontobench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // A CPU the run may use besides the one it is pinned to (-1: none).
  // refresh_mix's writer runs there.
  int spare_cpu = -1;
  // Test hook for the self-test: corrupt one non-empty OK answer before
  // the oracle check, which must then fail the run.
  bool inject_wrong_answer = false;
};

struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  // The reported metrics: end-to-end ones untraced, per-layer
  // ones traced.
  std::vector<Metric> metrics;
  // Everything else worth keeping next to them (error_frac, which tail
  // percentile was used, sample counts, the untraced half of a traced
  // run); written to the results file only.
  std::vector<Metric> details;
  // Why `correct` is false, one line each.
  std::vector<std::string> problems;
  // Per distinct request: tenant, target, query, count, failures, rows and
  // median latency — a JSON array for the results file.
  std::string requests_json;
  // Traced runs: the layer replay of each distinct request (see layers.h).
  std::string replays_json;
};

const std::vector<std::string>& WorkloadNames();

// Runs one workload. `recorder` is non-null exactly for traced runs.
RunResult RunWorkload(const RunOptions& options, SpanRecorder* recorder);

}  // namespace ontobench

#endif  // ONTOBENCH_WORKLOADS_H_
