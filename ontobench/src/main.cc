// ontobench: drives ontorew the way its users do and reports one JSON
// line. See README.md for the workloads and metrics.
//
//   ontobench --workload warm_wire --seed 1 --seconds 10 --trace 0
//             [--out .bench_build/results] [--inject-wrong-answer]
//
// The last line of standard output is
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). The full record — those metrics, the details, the host
// calibration and, when traced, the span file — goes to --out. Exit code
// 0 when every answer matched the oracle, 1 when one did not, 2 when the
// run could not be made at all (no result line then).

#include <malloc.h>
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <string_view>

#include "measure.h"
#include "workloads.h"

namespace {

using ontobench::JsonNumber;
using ontobench::JsonString;

void Usage() {
  std::fprintf(stderr,
               "usage: ontobench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out DIR] [--inject-wrong-answer]\n"
               "workloads:");
  for (const std::string& name : ontobench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

bool WriteFile(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed memory in the heap instead of returning it to the kernel:
  // the builtin unfolding of wide_cte allocates and frees about a GiB per
  // request, and re-faulting those pages costs whatever the shared host
  // charges at the moment. Peak RSS is the same either way.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());

  ontobench::RunOptions options;
  std::string out_dir = ".bench_build/results";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string_view(argv[++i]) == "1";
    } else if (arg == "--out" && has_value) {
      out_dir = argv[++i];
    } else if (arg == "--inject-wrong-answer") {
      options.inject_wrong_answer = true;
    } else {
      Usage();
      return 2;
    }
  }
  if (!have_workload || options.seconds <= 0) {
    Usage();
    return 2;
  }

  // Run the whole workload on the CPU the process starts on. The
  // workloads keep one thread busy at a time (the client waits for the
  // server), so one CPU costs them nothing, and a shared host stops moving
  // the client/server hand-off across CPUs at its own pace. Every thread
  // the run creates inherits the mask, except refresh_mix's writer, which
  // runs beside the reader on a spare CPU. The host calibration below
  // restores the original mask first.
  cpu_set_t original;
  const bool pinned = sched_getaffinity(0, sizeof(original), &original) == 0;
  if (pinned) {
    const int home = sched_getcpu();
    for (int cpu = 0; cpu < CPU_SETSIZE && options.spare_cpu < 0; ++cpu) {
      if (cpu != home && CPU_ISSET(cpu, &original)) options.spare_cpu = cpu;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(home, &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

  ontobench::SpanRecorder recorder;
  const ontobench::RunResult result =
      ontobench::RunWorkload(options, options.trace ? &recorder : nullptr);
  if (pinned) sched_setaffinity(0, sizeof(original), &original);
  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "ontobench %s: %s\n", options.workload.c_str(),
                 problem.c_str());
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "ontobench %s: no request was attempted\n",
                 options.workload.c_str());
    return 2;
  }

  const ontobench::HostRecord host = ontobench::CalibrateHost();
  const std::string tag = options.workload + "-seed" +
                          std::to_string(options.seed) + "-trace" +
                          (options.trace ? "1" : "0");
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  const std::string record =
      "{\"workload\": " + JsonString(options.workload) +
      ", \"seed\": " + std::to_string(options.seed) +
      ", \"seconds\": " + JsonNumber(options.seconds) +
      ", \"trace\": " + (options.trace ? "1" : "0") +
      ", \"correct\": " + (result.correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(result.attempted) +
      ", \"failed\": " + std::to_string(result.failed) +
      ",\n \"metrics\": " + ontobench::MetricsJson(result.metrics) +
      ",\n \"details\": " + ontobench::MetricsJson(result.details) +
      ",\n \"requests\": " +
      (result.requests_json.empty() ? "[]" : result.requests_json) +
      ",\n \"replays\": " +
      (result.replays_json.empty() ? "[]" : result.replays_json) +
      ",\n \"host\": {\"hardware_concurrency\": " +
      std::to_string(host.hardware_concurrency) +
      ", \"effective_cores\": " + JsonNumber(host.effective_cores) +
      ", \"calibration_score\": " + JsonNumber(host.calibration_score) +
      ", \"calibration_single_ms\": " + JsonNumber(host.single_ms) +
      ", \"calibration_parallel_ms\": " + JsonNumber(host.parallel_ms) +
      "}}\n";
  if (!WriteFile(std::filesystem::path(out_dir) / (tag + ".json"), record)) {
    std::fprintf(stderr, "ontobench: cannot write results to %s\n",
                 out_dir.c_str());
  }
  if (options.trace) {
    WriteFile(std::filesystem::path(out_dir) / (tag + "-spans.json"),
              recorder.ToJson());
  }

  std::printf("host: hardware_concurrency=%u effective_cores=%.2f "
              "calibration_score=%.1f\n",
              host.hardware_concurrency, host.effective_cores,
              host.calibration_score);
  for (const ontobench::Metric& m : result.details) {
    std::printf("detail %s = %s %s\n", m.name.c_str(),
                JsonNumber(m.value).c_str(), m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed),
              ontobench::MetricsJson(result.metrics).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
