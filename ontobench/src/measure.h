#ifndef ONTOBENCH_MEASURE_H_
#define ONTOBENCH_MEASURE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

// Measurement primitives shared by every workload: order statistics, the
// in-memory span recorder of the traced run, peak RSS, the host
// calibration spin, and the JSON a run prints.

namespace ontobench {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point from, Clock::time_point to);
double MsSince(Clock::time_point from);

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
// an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// The tail latency: the highest percentile of the ladder 99 / 90 / 50
// that leaves at least 10 samples beyond it (the p50 when even that does
// not hold). A coarse ladder keeps the chosen percentile the same across
// runs whose sample counts differ severalfold: every workload takes well
// over 1000 samples a run, so it reports its p99.
struct TailLatency {
  double value_ms = 0;
  double percentile = 50;
  std::size_t samples = 0;
};
TailLatency ComputeTail(const std::vector<double>& latencies_ms);

// Peak resident set of this process (getrusage), in MiB.
double PeakRssMb();

// Order-independent digest of an answer set: the rows are sorted, then
// hashed (FNV-1a 64) with a separator, so two responses agree exactly
// when they hold the same set of rendered tuples.
std::uint64_t DigestRows(std::vector<std::string> rows);

// What the host can really run in parallel: a fixed integer spin timed on
// one thread, then on hardware_concurrency threads at once. A host with
// n effective cores runs the parallel pass in about hw/n times the
// single-thread time.
struct HostRecord {
  unsigned hardware_concurrency = 0;
  double effective_cores = 0;
  // Spin iterations per second on one thread (millions): a speed score
  // for comparing runs across hosts.
  double calibration_score = 0;
  double single_ms = 0;
  double parallel_ms = 0;
};
HostRecord CalibrateHost();

// In-memory spans recorded by the benchmark around the public calls it
// makes (never inside the library). Thread-safe; ids index the table.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    std::int64_t start_ns = 0;  // Offset from the recorder's epoch.
    std::int64_t end_ns = -1;   // -1 while open.
    std::uint64_t thread = 0;
  };
  // Per-name aggregate: total duration and self time (duration minus the
  // union of the children's intervals).
  struct Totals {
    std::int64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };

  SpanRecorder();
  int Begin(std::string_view name, int parent = -1);
  void End(int id);
  std::vector<Span> Snapshot() const;
  std::map<std::string, Totals> Summarize() const;
  // {"spans": [...], "summary": {...}}
  std::string ToJson() const;

 private:
  mutable std::mutex mutex_;
  const Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// RAII span; inert when the recorder is null (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string_view name, int parent = -1)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->Begin(name, parent) : -1) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { End(); }
  int id() const { return id_; }
  void End() {
    if (recorder_ != nullptr) recorder_->End(id_);
    recorder_ = nullptr;
  }

 private:
  SpanRecorder* recorder_;
  int id_;
};

// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string JsonString(std::string_view text);
// A finite number with all its digits (17 significant); NaN/inf as 0.
std::string JsonNumber(double value);
// {"name": {"value": v, "unit": "u"}, ...}
std::string MetricsJson(const std::vector<Metric>& metrics);

}  // namespace ontobench

#endif  // ONTOBENCH_MEASURE_H_
