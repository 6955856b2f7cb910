#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>

namespace ontobench {

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double MsSince(Clock::time_point from) { return MsBetween(from, Clock::now()); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

TailLatency ComputeTail(const std::vector<double>& latencies_ms) {
  TailLatency tail;
  tail.samples = latencies_ms.size();
  const double n = static_cast<double>(latencies_ms.size());
  for (double percentile : {99.0, 90.0, 50.0}) {
    tail.percentile = percentile;
    if (n * (1.0 - percentile / 100.0) >= 10.0) break;
  }
  tail.value_ms = Quantile(latencies_ms, tail.percentile / 100.0);
  return tail;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::uint64_t DigestRows(std::vector<std::string> rows) {
  std::sort(rows.begin(), rows.end());
  std::uint64_t hash = 1469598103934665603ULL;
  for (const std::string& row : rows) {
    for (unsigned char c : row) {
      hash = (hash ^ c) * 1099511628211ULL;
    }
    hash = (hash ^ 0x0aU) * 1099511628211ULL;
  }
  return hash;
}

namespace {

// A dependent integer chain the compiler cannot vectorize or elide.
std::uint64_t Spin(std::uint64_t iterations) {
  std::uint64_t x = 88172645463325252ULL;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

}  // namespace

HostRecord CalibrateHost() {
  constexpr std::uint64_t kIterations = 40'000'000;
  HostRecord host;
  host.hardware_concurrency = std::max(1u, std::thread::hardware_concurrency());
  volatile std::uint64_t sink = 0;

  const Clock::time_point single_start = Clock::now();
  sink = sink + Spin(kIterations);
  host.single_ms = MsSince(single_start);

  std::vector<std::uint64_t> results(host.hardware_concurrency);
  const Clock::time_point parallel_start = Clock::now();
  {
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < host.hardware_concurrency; ++t) {
      threads.emplace_back([&results, t] { results[t] = Spin(kIterations); });
    }
    for (std::thread& thread : threads) thread.join();
  }
  host.parallel_ms = MsSince(parallel_start);
  for (std::uint64_t r : results) sink = sink + r;

  host.effective_cores = host.parallel_ms > 0
                             ? host.hardware_concurrency * host.single_ms /
                                   host.parallel_ms
                             : 0;
  host.calibration_score =
      host.single_ms > 0 ? kIterations / (host.single_ms * 1e3) : 0;
  return host;
}

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {}

int SpanRecorder::Begin(std::string_view name, int parent) {
  Span span;
  span.name = std::string(name);
  span.parent = parent;
  span.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::lock_guard<std::mutex> lock(mutex_);
  span.start_ns = (Clock::now() - epoch_).count();
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::End(int id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id < 0 || id >= static_cast<int>(spans_.size())) return;
  Span& span = spans_[static_cast<std::size_t>(id)];
  if (span.end_ns < 0) span.end_ns = (Clock::now() - epoch_).count();
}

std::vector<SpanRecorder::Span> SpanRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::Summarize() const {
  const std::vector<Span> spans = Snapshot();
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0 && span.end_ns >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, Totals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.end_ns < 0) continue;
    // Child coverage: the union of the child intervals, clipped to the
    // parent (children of one span may overlap when they ran on
    // different threads).
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = span.start_ns;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, span.end_ns);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    Totals& t = totals[span.name];
    const std::int64_t duration = span.end_ns - span.start_ns;
    t.count += 1;
    t.total_ms += static_cast<double>(duration) / 1e6;
    t.self_ms += static_cast<double>(duration - covered) / 1e6;
  }
  return totals;
}

std::string SpanRecorder::ToJson() const {
  const std::vector<Span> spans = Snapshot();
  std::string out = "{\"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0) out += ",";
    out += "\n  {\"id\": " + std::to_string(i) +
           ", \"name\": " + JsonString(s.name) +
           ", \"parent\": " + std::to_string(s.parent) +
           ", \"start_ns\": " + std::to_string(s.start_ns) +
           ", \"end_ns\": " + std::to_string(s.end_ns) +
           ", \"thread\": " + std::to_string(s.thread % 1000000) + "}";
  }
  out += "\n], \"summary\": {";
  bool first = true;
  for (const auto& [name, t] : Summarize()) {
    if (!first) out += ",";
    first = false;
    out += "\n  " + JsonString(name) + ": {\"count\": " +
           std::to_string(t.count) + ", \"total_ms\": " +
           JsonNumber(t.total_ms) + ", \"self_ms\": " + JsonNumber(t.self_ms) +
           "}";
  }
  out += "\n}}\n";
  return out;
}

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace ontobench
