#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "backend/sqlite_backend.h"
#include "base/strings.h"
#include "base/trace.h"
#include "db/facts_io.h"
#include "db/value.h"
#include "inputs.h"
#include "layers.h"
#include "logic/parser.h"
#include "server/client.h"
#include "server/server.h"
#include "serving/answer_engine.h"

namespace ontobench {
namespace {

using ontorew::AnswerEngine;
using ontorew::AnswerEngineOptions;
using ontorew::AnswerResult;
using ontorew::Database;
using ontorew::OntologyServer;
using ontorew::OntologyServerOptions;
using ontorew::RewriteCacheStats;
using ontorew::RewriteTarget;
using ontorew::ServerClient;
using ontorew::ServeOptions;
using ontorew::Status;
using ontorew::StatusOr;
using ontorew::StrCat;
using ontorew::Tgd;
using ontorew::TgdProgram;
using ontorew::Tuple;
using ontorew::UnionOfCqs;
using ontorew::Vocabulary;
using ontorew::WireResponse;

// One connection, one server worker, and every tenant evaluating and
// rewriting on the request's own thread: at most one thread is busy at a
// time, so the figures do not depend on how many cores the host can lend
// at the moment (a shared host lends between one and four).
constexpr int kServerWorkers = 1;
// The flat rewriting of the person/knows chains keeps ~1500 CQs alive.
constexpr int kMaxCqs = 300000;
// The query pools of warm_wire and refresh_mix are one fixed mix; the run
// seed varies the data they run over.
constexpr std::uint64_t kPoolSeed = 2014;

AnswerEngineOptions TenantEngineOptions() {
  AnswerEngineOptions options;
  options.num_threads = 1;
  options.rewriter.max_cqs = kMaxCqs;
  return options;
}

RewriteTarget TargetOf(const std::string& name) {
  return name == "cte" ? RewriteTarget::kCte : RewriteTarget::kUcq;
}

// One entry of a workload's request table.
struct Request {
  // Wire workloads: index into the tenant list. refresh_mix: 0 for the
  // builtin engine, 1 for the SQLite one.
  int tenant = 0;
  std::string target;  // "ucq" | "cte"
  std::string query;
  std::string line;         // Wire request line.
  std::string traced_line;  // The same with trace=1.
};

struct Sample {
  int request = -1;
  double ms = 0;
  bool ok = false;  // An OK response (typed errors and transport failures
                    // are not).
  std::size_t rows = 0;
  std::uint64_t digest = 0;
  bool good = false;  // Set by Check: OK and equal to the oracle.
  int round = 0;      // Index of the round (see Phase) it belongs to.
  // refresh_mix: the data versions current at some point during the read.
  std::int64_t version_lo = 0;
  std::int64_t version_hi = 0;
  EngineStages stages;  // Traced phases only.
};

// One timed stretch of closed-loop load, made of whole rounds: a round is
// one pass over the workload's request cycle (a fixed block of requests
// for cold_rewrite), and a phase keeps going until its time is up and
// the current round is complete, so every phase runs the same mix.
struct Phase {
  std::vector<Sample> samples;
  std::vector<double> round_s;  // Wall time of each complete round.
  double wall_s = 0;
  std::vector<double> write_ms;  // refresh_mix's scheduled writes.
  RewriteCacheStats cache;       // Deltas over the phase.
  double rss_mb = 0;
  bool source_exhausted = false;  // The request source ran dry early.
};

// Sizes `phase`'s sample table for `seconds` at up to `max_qps` and
// writes every entry once before the clock starts, so the table is
// resident from the start: rss_peak_mb then counts it as a constant,
// instead of as a step that grows (and doubles on reallocation) with how
// many requests the host let the run send.
void ReserveSamples(Phase* phase, double seconds, double max_qps) {
  phase->samples.resize(static_cast<std::size_t>(seconds * max_qps) + 1);
  phase->samples.clear();
}

// Progress on stderr, so a slow stage of a run can be told apart.
void Log(const char* workload, const char* stage, Clock::time_point since) {
  std::fprintf(stderr, "ontobench %s: %s took %.2f s\n", workload, stage,
               MsSince(since) / 1e3);
}

RewriteCacheStats CacheDelta(const RewriteCacheStats& before,
                             const RewriteCacheStats& after) {
  RewriteCacheStats delta;
  delta.hits = after.hits - before.hits;
  delta.misses = after.misses - before.misses;
  delta.evictions = after.evictions - before.evictions;
  return delta;
}

// Oracles shared by tenants that host the same program and data.
class OracleSet {
 public:
  StatusOr<Oracle*> For(const std::string& program_text,
                        const std::string& facts_text) {
    const std::string key = program_text + '\0' + facts_text;
    auto it = oracles_.find(key);
    if (it == oracles_.end()) {
      OREW_ASSIGN_OR_RETURN(std::unique_ptr<Oracle> oracle,
                            Oracle::Build(program_text, facts_text));
      it = oracles_.emplace(key, std::move(oracle)).first;
    }
    return it->second.get();
  }

 private:
  std::map<std::string, std::unique_ptr<Oracle>> oracles_;
};

// Tallies the oracle check of a set of samples.
struct Verdict {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;  // Errors, transport failures, wrong answers.
  std::int64_t good = 0;    // OK and equal to the oracle.
  std::int64_t wrong = 0;
  // Non-empty correct answers seen, per backend (0 builtin, 1 SQLite).
  std::array<std::int64_t, 2> non_empty{0, 0};
  std::vector<std::string> problems;
};

// `expected(sample)` returns the oracle digests the sample may match.
using ExpectedFn = std::function<StatusOr<std::vector<Expected>>(
    const Sample&)>;

void Check(std::vector<Sample>* samples, bool inject_wrong_answer,
           const ExpectedFn& expected, const std::function<int(int)>& backend,
           Verdict* verdict) {
  bool injected = !inject_wrong_answer;
  for (Sample& sample : *samples) {
    ++verdict->attempted;
    if (!sample.ok) {
      ++verdict->failed;
      continue;
    }
    std::uint64_t digest = sample.digest;
    if (!injected && sample.rows > 0) {
      digest ^= 1;
      injected = true;
    }
    StatusOr<std::vector<Expected>> allowed = expected(sample);
    if (!allowed.ok()) {
      verdict->problems.push_back(
          StrCat("oracle failed: ", allowed.status().ToString()));
      ++verdict->failed;
      ++verdict->wrong;
      continue;
    }
    bool match = false;
    std::size_t rows = 0;
    for (const Expected& e : *allowed) {
      if (e.digest == digest && e.rows == sample.rows) {
        match = true;
        rows = e.rows;
      }
    }
    if (!match) {
      if (verdict->wrong < 5) {
        verdict->problems.push_back(StrCat(
            "wrong answer set for request ", sample.request, " (", sample.rows,
            " rows; oracle expects ",
            allowed->empty() ? 0 : allowed->front().rows, ")"));
      }
      ++verdict->wrong;
      ++verdict->failed;
      continue;
    }
    ++verdict->good;
    sample.good = true;
    if (rows > 0) ++verdict->non_empty[backend(sample.request)];
  }
}

// Copies the oracle verdict into the result. A run is correct when no OK
// answer differed from the oracle and both backends returned at least one
// non-empty correct answer.
void ApplyVerdict(const Verdict& verdict, RunResult* result) {
  result->attempted = verdict.attempted;
  result->failed = verdict.failed;
  result->problems.insert(result->problems.end(), verdict.problems.begin(),
                          verdict.problems.end());
  result->correct = result->correct && verdict.wrong == 0;
  for (int b = 0; b < 2; ++b) {
    if (verdict.non_empty[b] == 0) {
      result->correct = false;
      result->problems.push_back(StrCat("no non-empty correct answer on the ",
                                        b == 0 ? "builtin" : "SQLite",
                                        " backend"));
    }
  }
  result->details.push_back(
      {"wrong_answers", static_cast<double>(verdict.wrong), "count"});
}

// Per table entry: how often it ran, how it fared, its median latency.
std::string RequestsJson(const std::vector<Request>& table,
                         const std::vector<std::string>& tenant_names,
                         const std::vector<Sample>& samples) {
  std::vector<std::vector<double>> ms(table.size());
  std::vector<std::int64_t> failures(table.size(), 0);
  std::vector<std::size_t> rows(table.size(), 0);
  for (const Sample& s : samples) {
    const auto i = static_cast<std::size_t>(s.request);
    ms[i].push_back(s.ms);
    if (!s.ok) ++failures[i];
    rows[i] = std::max(rows[i], s.rows);
  }
  std::string out = "[";
  bool first = true;
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (ms[i].empty()) continue;
    out += first ? "\n  " : ",\n  ";
    first = false;
    out += "{\"tenant\": " +
           JsonString(tenant_names[static_cast<std::size_t>(table[i].tenant)]) +
           ", \"target\": " + JsonString(table[i].target) +
           ", \"query\": " + JsonString(table[i].query) +
           ", \"count\": " + std::to_string(ms[i].size()) +
           ", \"failed\": " + std::to_string(failures[i]) +
           ", \"rows\": " + std::to_string(rows[i]) +
           ", \"p50_ms\": " + JsonNumber(Median(ms[i])) + "}";
  }
  return out + "\n]";
}

// Correct responses per second of each complete round; the median over
// the rounds keeps a passing stall of a shared host out of the figure.
double RoundThroughput(const Phase& phase, const std::vector<Sample>& checked) {
  std::vector<double> good(phase.round_s.size(), 0);
  for (const Sample& s : checked) {
    if (s.good && s.round < static_cast<int>(good.size())) good[s.round] += 1;
  }
  std::vector<double> qps;
  for (std::size_t r = 0; r < good.size(); ++r) {
    if (phase.round_s[r] > 0) qps.push_back(good[r] / phase.round_s[r]);
  }
  return Median(qps);
}

// Fills the end-to-end metrics of an untraced run from its one phase and
// that phase's checked samples.
void EndToEnd(const Phase& phase, const std::vector<Sample>& checked,
              double setup_s, double write_p50_ms, const Verdict& verdict,
              RunResult* result) {
  std::vector<double> latencies;
  latencies.reserve(checked.size());
  for (const Sample& s : checked) latencies.push_back(s.ms);
  const TailLatency tail = ComputeTail(latencies);
  const double attempted = std::max<double>(1, verdict.attempted);
  result->metrics = {
      {"setup_s", setup_s, "s"},
      {"latency_p50_ms", Median(latencies), "ms"},
      {"latency_tail_ms", tail.value_ms, "ms"},
      {"throughput_qps", RoundThroughput(phase, checked), "1/s"},
      {"ok_frac", (attempted - static_cast<double>(verdict.failed)) / attempted,
       "fraction"},
      {"rss_peak_mb", phase.rss_mb, "MiB"},
      {"write_p50_ms", write_p50_ms, "ms"},
  };
  result->details.push_back({"error_frac",
                             static_cast<double>(verdict.failed) / attempted,
                             "fraction"});
  result->details.push_back({"latency_tail_percentile", tail.percentile, "%"});
  result->details.push_back(
      {"latency_samples", static_cast<double>(tail.samples), "count"});
  result->details.push_back({"timed_wall_s", phase.wall_s, "s"});
  result->details.push_back(
      {"rounds", static_cast<double>(phase.round_s.size()), "count"});
  result->details.push_back(
      {"throughput_whole_run_qps",
       static_cast<double>(verdict.good) / phase.wall_s, "1/s"});
}

// The traced run's serving metrics, from the engine span trees of the
// traced phase, and the tracing overhead against the untraced phase.
void TracedServing(const Phase& untraced, const Phase& traced,
                   RunResult* result) {
  std::vector<double> serve, other, plain, with_trace;
  for (const Sample& s : traced.samples) {
    with_trace.push_back(s.ms);
    if (!s.stages.valid) continue;
    serve.push_back(s.stages.serve_ms);
    other.push_back(s.stages.other_ms());
  }
  for (const Sample& s : untraced.samples) plain.push_back(s.ms);
  const double lookups = static_cast<double>(
      untraced.cache.hits + untraced.cache.misses + traced.cache.hits +
      traced.cache.misses);
  const double plain_p50 = Median(plain);
  const double traced_p50 = Median(with_trace);
  result->metrics.push_back({"serving.serve_ms", Median(serve), "ms"});
  result->metrics.push_back({"serving.other_ms", Median(other), "ms"});
  result->metrics.push_back(
      {"serving.cache_hit_ratio",
       lookups > 0 ? static_cast<double>(untraced.cache.hits +
                                         traced.cache.hits) /
                         lookups
                   : 0,
       "fraction"});
  result->metrics.push_back(
      {"serving.cache_evictions",
       static_cast<double>(untraced.cache.evictions + traced.cache.evictions),
       "count"});
  result->metrics.push_back(
      {"trace.overhead_ms", traced_p50 - plain_p50, "ms"});
  result->metrics.push_back(
      {"trace.overhead_frac",
       plain_p50 > 0 ? (traced_p50 - plain_p50) / plain_p50 : 0, "fraction"});
  result->details.push_back({"untraced_latency_p50_ms", plain_p50, "ms"});
  result->details.push_back({"traced_latency_p50_ms", traced_p50, "ms"});
}

// --- Engines hosted in-process (refresh_mix and the refresh probe) -------

// One AnswerEngine with its own vocabulary, like one server tenant.
struct EngineSide {
  Vocabulary vocab;  // Outlives the engine's SQLite backend.
  std::unique_ptr<AnswerEngine> engine;
};

StatusOr<std::unique_ptr<EngineSide>> BuildSide(const std::string& program,
                                                const std::string& facts,
                                                bool sqlite) {
  auto side = std::make_unique<EngineSide>();
  OREW_ASSIGN_OR_RETURN(TgdProgram parsed,
                        ontorew::ParseProgram(program, &side->vocab));
  OREW_ASSIGN_OR_RETURN(Database db, ontorew::ParseFacts(facts, &side->vocab));
  AnswerEngineOptions options = TenantEngineOptions();
  if (sqlite) {
    options.backend = std::make_shared<ontorew::SqliteBackend>(&side->vocab);
  }
  side->engine = std::make_unique<AnswerEngine>(
      std::move(parsed), std::move(db), std::move(options));
  return side;
}

// write_p50_ms of the wire workloads: the time to refresh the workload's
// builtin and SQLite tenant data (ReplaceDatabase on both, with seeded
// replacement instances) on engines of the probe's own. The refreshes run
// between the rounds of the timed phase, for 2% of each round's time, so
// their median spans the whole run rather than one second of it. Each
// burst holds at least kMinBurst refreshes: the first of a burst runs
// after a round has evicted the probe's data from the caches and costs
// more, and bursts of one or two would put the median in the gap between
// those and the rest, wherever the round length happened to fall.
class RefreshProbe {
 public:
  static StatusOr<std::unique_ptr<RefreshProbe>> Build(
      const std::string& program, const std::vector<std::string>& facts) {
    auto probe = std::make_unique<RefreshProbe>();
    for (int s = 0; s < 2; ++s) {
      OREW_ASSIGN_OR_RETURN(probe->sides_[s],
                            BuildSide(program, facts[0], s == 1));
      for (const std::string& text : facts) {
        OREW_ASSIGN_OR_RETURN(
            Database db, ontorew::ParseFacts(text, &probe->sides_[s]->vocab));
        probe->dbs_[s].push_back(std::move(db));
      }
    }
    // One untimed pass over the instances.
    while (probe->next_ < facts.size()) probe->Refresh();
    return probe;
  }

  // Refreshes for `seconds`, at least kMinBurst times.
  void RefreshFor(double seconds) {
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    for (int n = 0; n < kMinBurst || Clock::now() < end; ++n) {
      ms_.push_back(Refresh());
    }
  }

  double median_ms() const { return Median(ms_); }

 private:
  double Refresh() {
    const std::size_t k = next_++ % dbs_[0].size();
    Database builtin = dbs_[0][k];
    Database sqlite = dbs_[1][k];
    const Clock::time_point start = Clock::now();
    sides_[0]->engine->ReplaceDatabase(std::move(builtin));
    sides_[1]->engine->ReplaceDatabase(std::move(sqlite));
    return MsSince(start);
  }

  static constexpr int kMinBurst = 5;

  std::array<std::unique_ptr<EngineSide>, 2> sides_;
  std::array<std::vector<Database>, 2> dbs_;
  std::size_t next_ = 0;
  std::vector<double> ms_;
};

std::vector<std::string> RenderRows(const std::vector<Tuple>& answers,
                                    const Vocabulary& vocab) {
  std::vector<std::string> rows;
  rows.reserve(answers.size());
  for (const Tuple& t : answers) rows.push_back(ontorew::ToString(t, vocab));
  return rows;
}

// --- Wire workloads -------------------------------------------------------

struct WireWorkload {
  std::vector<TenantInput> tenants;
  std::vector<Request> table;
  // Table entries sent once, in order, at the end of every setup.
  std::vector<int> warmup;
  // The table entry of the i-th request of the run, or -1 when the
  // source is exhausted.
  std::function<int(std::int64_t i)> next;
  // Requests per round (see Phase).
  int round_size = 1;
  // More requests per second than the run can send (see ReserveSamples).
  double max_qps = 1000;
  int setup_reps = 21;
  // The refresh probe replaces tenant 0's data with these instances.
  std::vector<std::string> refresh_facts;
};

struct WireSystem {
  std::unique_ptr<OntologyServer> server;
  ServerClient client;

  void Stop() {
    client.Close();
    if (server != nullptr) {
      Status drained = server->Shutdown(std::chrono::seconds(10));
      (void)drained;
    }
    server.reset();
  }
};

StatusOr<WireSystem> SetUpWire(const WireWorkload& w) {
  WireSystem system;
  OntologyServerOptions options;
  options.num_workers = kServerWorkers;
  system.server = std::make_unique<OntologyServer>(options);
  for (const TenantInput& tenant : w.tenants) {
    ontorew::TenantSpec spec;
    spec.name = tenant.name;
    spec.program_text = tenant.program_text;
    spec.facts_text = tenant.facts_text;
    spec.use_sqlite = tenant.use_sqlite;
    spec.engine = TenantEngineOptions();
    OREW_RETURN_IF_ERROR(system.server->AddTenant(std::move(spec)));
  }
  OREW_RETURN_IF_ERROR(system.server->Start());
  OREW_ASSIGN_OR_RETURN(system.client,
                        ServerClient::Connect(system.server->port()));
  for (int index : w.warmup) {
    const Request& request = w.table[static_cast<std::size_t>(index)];
    OREW_ASSIGN_OR_RETURN(WireResponse response,
                          system.client.Roundtrip(request.line));
    if (!response.status.ok()) {
      return Status(response.status.code(),
                    StrCat("warm-up request '", request.line,
                           "' failed: ", response.status.message()));
    }
  }
  return system;
}

// Sends requests w.next(*cursor), w.next(*cursor + 1), ... closed-loop
// over the system's one connection, in whole rounds, until `seconds` have
// passed. `probe` (optional) refreshes between rounds, off the clock.
Phase RunWirePhase(const WireWorkload& w, WireSystem* system,
                   std::int64_t* cursor, double seconds, bool traced,
                   SpanRecorder* recorder, RefreshProbe* probe) {
  Phase phase;
  ReserveSamples(&phase, seconds, w.max_qps);
  const RewriteCacheStats before = system->server->shared_cache_stats();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  Clock::time_point round_start = start;
  for (std::int64_t i = 0;; ++i) {
    if (i % w.round_size == 0) {
      if (i > 0) {
        phase.round_s.push_back(MsSince(round_start) / 1e3);
        if (probe != nullptr) probe->RefreshFor(phase.round_s.back() / 50);
      }
      if (Clock::now() >= end) break;
      round_start = Clock::now();
    }
    const int index = w.next((*cursor)++);
    if (index < 0) {
      phase.source_exhausted = true;
      break;
    }
    const Request& request = w.table[static_cast<std::size_t>(index)];
    Sample sample;
    sample.request = index;
    sample.round = static_cast<int>(phase.round_s.size());
    ScopedSpan request_span(recorder, "request");
    const Clock::time_point sent = Clock::now();
    StatusOr<WireResponse> response = [&] {
      ScopedSpan span(recorder, "server.roundtrip", request_span.id());
      return system->client.Roundtrip(traced ? request.traced_line
                                             : request.line);
    }();
    sample.ms = MsSince(sent);
    if (!response.ok()) {
      // A transport failure closed the connection; reconnect for the next
      // request (the failure itself is counted).
      StatusOr<ServerClient> again =
          ServerClient::Connect(system->server->port());
      if (again.ok()) system->client = std::move(again).value();
    } else if (response->status.ok()) {
      sample.ok = true;
      sample.rows = response->rows.size();
      sample.digest = DigestRows(std::move(response->rows));
      if (traced) sample.stages = StagesFromTraceText(response->info);
    }
    phase.samples.push_back(std::move(sample));
  }
  phase.wall_s = MsSince(start) / 1e3;
  phase.rss_mb = PeakRssMb();
  phase.cache = CacheDelta(before, system->server->shared_cache_stats());
  return phase;
}

std::int64_t ServerSheds(OntologyServer* server) {
  const ontorew::MetricsSnapshot m = server->metrics().Snapshot();
  return m.Counter("server_shed_quota") +
         m.Counter("server_shed_tenant_inflight") +
         m.Counter("server_shed_global") +
         m.Counter("server_queue_deadline") +
         m.Counter("server_shed_draining");
}

std::vector<LayerRequest> DistinctLayerRequests(
    const std::vector<Request>& table, const std::vector<Sample>& samples) {
  std::vector<bool> seen(table.size(), false);
  std::vector<LayerRequest> requests;
  for (const Sample& s : samples) {
    if (seen[static_cast<std::size_t>(s.request)]) continue;
    seen[static_cast<std::size_t>(s.request)] = true;
    const Request& r = table[static_cast<std::size_t>(s.request)];
    requests.push_back({r.tenant, r.target, r.query});
  }
  return requests;
}

void FinishLayers(const std::vector<TenantInput>& tenants,
                  const std::vector<LayerRequest>& requests, double seconds,
                  SpanRecorder* recorder, RunResult* result) {
  for (Metric& m : ProbeServer(tenants, requests, seconds / 4, recorder)) {
    result->metrics.push_back(std::move(m));
  }
  for (Metric& m : ReplayLayers(tenants, requests, seconds, recorder,
                                &result->replays_json)) {
    result->metrics.push_back(std::move(m));
  }
}

RunResult RunWire(const WireWorkload& w, const RunOptions& options,
                  SpanRecorder* recorder) {
  RunResult result;
  auto fail = [&result](const std::string& why) {
    result.correct = false;
    result.problems.push_back(why);
    return result;
  };

  // Setup, several times: half before the timed phase (the last of those
  // systems serves it) and half after, so the median spans the run.
  Clock::time_point stage = Clock::now();
  std::vector<double> setup_s;
  WireSystem system;
  const auto set_up = [&]() -> Status {
    system.Stop();
    const Clock::time_point start = Clock::now();
    OREW_ASSIGN_OR_RETURN(system, SetUpWire(w));
    setup_s.push_back(MsSince(start) / 1e3);
    return Status::Ok();
  };
  for (int rep = 0; rep < (w.setup_reps + 1) / 2; ++rep) {
    const Status built = set_up();
    if (!built.ok()) return fail(StrCat("setup: ", built.ToString()));
  }

  std::unique_ptr<RefreshProbe> probe;
  if (recorder == nullptr) {
    StatusOr<std::unique_ptr<RefreshProbe>> built =
        RefreshProbe::Build(w.tenants[0].program_text, w.refresh_facts);
    if (!built.ok()) {
      return fail(StrCat("refresh probe: ", built.status().ToString()));
    }
    probe = std::move(built).value();
  }

  std::vector<Phase> phases;
  std::int64_t cursor = 0;
  if (recorder == nullptr) {
    phases.push_back(RunWirePhase(w, &system, &cursor, options.seconds, false,
                                  nullptr, probe.get()));
  } else {
    phases.push_back(RunWirePhase(w, &system, &cursor, options.seconds / 2,
                                  false, nullptr, nullptr));
    phases.push_back(RunWirePhase(w, &system, &cursor, options.seconds / 2,
                                  true, recorder, nullptr));
  }
  const std::int64_t sheds = ServerSheds(system.server.get());
  for (int rep = 0; rep < w.setup_reps / 2; ++rep) {
    const Status built = set_up();
    if (!built.ok()) return fail(StrCat("setup: ", built.ToString()));
  }
  system.Stop();
  Log(options.workload.c_str(), "setup and timed phases", stage);
  for (const Phase& p : phases) {
    if (p.source_exhausted) {
      std::fprintf(stderr,
                   "ontobench %s: the request pool ran out before the "
                   "time was up\n",
                   options.workload.c_str());
      result.details.push_back({"pool_exhausted", 1, "count"});
    }
  }
  stage = Clock::now();

  // The oracle check, after the clock stopped.
  OracleSet oracles;
  const ExpectedFn expected =
      [&](const Sample& s) -> StatusOr<std::vector<Expected>> {
    const Request& r = w.table[static_cast<std::size_t>(s.request)];
    const TenantInput& t = w.tenants[static_cast<std::size_t>(r.tenant)];
    OREW_ASSIGN_OR_RETURN(Oracle * oracle,
                          oracles.For(t.program_text, t.facts_text));
    OREW_ASSIGN_OR_RETURN(Expected e, oracle->Answers(r.query));
    return std::vector<Expected>{e};
  };
  const auto backend = [&w](int request) {
    const Request& r = w.table[static_cast<std::size_t>(request)];
    return w.tenants[static_cast<std::size_t>(r.tenant)].use_sqlite ? 1 : 0;
  };
  Verdict verdict;
  std::vector<Sample> all;
  for (const Phase& p : phases) {
    all.insert(all.end(), p.samples.begin(), p.samples.end());
  }
  Check(&all, options.inject_wrong_answer, expected, backend, &verdict);
  const std::vector<LayerRequest> distinct =
      DistinctLayerRequests(w.table, all);
  std::vector<std::string> names;
  for (const TenantInput& t : w.tenants) names.push_back(t.name);
  result.requests_json = RequestsJson(w.table, names, all);

  if (recorder == nullptr) {
    EndToEnd(phases[0], all, Median(setup_s), probe->median_ms(), verdict,
             &result);
  } else {
    TracedServing(phases[0], phases[1], &result);
    result.metrics.push_back(
        {"server.sheds", static_cast<double>(sheds), "count"});
    FinishLayers(w.tenants, distinct, options.seconds, recorder, &result);
  }
  ApplyVerdict(verdict, &result);
  Log(options.workload.c_str(), "oracle check and probes", stage);
  result.details.push_back(
      {"distinct_requests", static_cast<double>(distinct.size()), "count"});
  return result;
}

Request MakeRequest(const std::vector<TenantInput>& tenants, int tenant,
                    const std::string& target, const std::string& query) {
  Request r;
  r.tenant = tenant;
  r.target = target;
  r.query = query;
  const std::string& name = tenants[static_cast<std::size_t>(tenant)].name;
  r.line = QueryLine(name, target, query, false);
  r.traced_line = QueryLine(name, target, query, true);
  return r;
}

// The i-th request cycles through `order`.
std::function<int(std::int64_t)> Cycle(std::vector<int> order) {
  return [order = std::move(order)](std::int64_t i) {
    return order[static_cast<std::size_t>(i) % order.size()];
  };
}

std::vector<std::string> SeededFacts(
    const std::function<std::string(std::uint64_t)>& make, std::uint64_t seed,
    int count) {
  std::vector<std::string> facts;
  for (int i = 0; i < count; ++i) {
    facts.push_back(make(seed * 7919 + static_cast<std::uint64_t>(i)));
  }
  return facts;
}

// warm_wire: the cache hit ratio is about 1, so the time goes to the
// wire, canonicalization, the cache lookup and backend execution.
RunResult WarmWire(const RunOptions& options, SpanRecorder* recorder) {
  WireWorkload w;
  const std::string program = UniversityProgram();
  const std::string facts = UniversityFacts(options.seed);
  w.tenants = {
      {"uni", program, facts, false},
      // Same ontology, so the same fingerprint: it shares every cached
      // rewriting with uni, over its own data.
      {"uni_twin", program, UniversityFacts(options.seed + 1), false},
      {"uni_sql", program, facts, true},
  };
  const std::vector<std::string> pool = UniversityQueryPool(kPoolSeed, 8);
  for (const std::string& query : pool) {
    for (const char* target : {"ucq", "cte"}) {
      for (int tenant = 0; tenant < 3; ++tenant) {
        w.warmup.push_back(static_cast<int>(w.table.size()));
        w.table.push_back(MakeRequest(w.tenants, tenant, target, query));
      }
    }
  }
  // A round is one pass over the whole table, with its first entry (the
  // q2 chain on uni, flat) sent twice: 49 requests. With an even number of
  // equally frequent requests the median would fall in the gap between
  // two of them and follow their extremes; with an odd number it is the
  // middle of one request's own samples.
  std::vector<int> order(w.table.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<int>(i);
  }
  order.push_back(0);
  w.round_size = static_cast<int>(order.size());
  w.next = Cycle(std::move(order));
  w.setup_reps = 5;
  w.refresh_facts = SeededFacts(
      [](std::uint64_t s) { return UniversityFacts(s); }, options.seed, 4);
  w.refresh_facts[0] = facts;
  return RunWire(w, options, recorder);
}

// cold_rewrite: every request is a query shape no earlier request shares
// a cache key with, so rewriting dominates.
constexpr double kColdPoolPerSecond = 4000;

RunResult ColdRewrite(const RunOptions& options, SpanRecorder* recorder) {
  const Clock::time_point start = Clock::now();
  WireWorkload w;
  const std::string uni = UniversityProgram();
  const std::string comp = CompositionProgram(1);
  const std::string chain = ChainProgram(4, 2);
  const std::string uni_facts = UniversityFacts(options.seed);
  const std::string comp_facts = RandomFacts(comp, 16, 40, options.seed);
  const std::string chain_facts = RandomFacts(chain, 16, 20, options.seed);
  w.tenants = {
      {"uni", uni, uni_facts, false},     {"uni_sql", uni, uni_facts, true},
      {"comp", comp, comp_facts, false},  {"comp_sql", comp, comp_facts, true},
      {"chain", chain, chain_facts, false},
      {"chain_sql", chain, chain_facts, true},
  };
  std::vector<ShapeGenerator> shapes;
  shapes.emplace_back(uni, uni_facts, 1, 3, options.seed);
  shapes.emplace_back(comp, comp_facts, 1, 3, options.seed + 1);
  shapes.emplace_back(chain, chain_facts, 1, 3, options.seed + 2);
  // Request j: program j % 3, on SQLite when (j / 3) is odd, target cte
  // when (j / 6) is odd. Should a program run out of fresh keys, its
  // turns go to the next program that has some. The pool holds 4000
  // requests per second of the run, more than twice what the host used
  // for tuning sent at its fastest; a run that empties it stops early and
  // says so.
  const int pool_size =
      static_cast<int>(std::max(1.0, options.seconds) * kColdPoolPerSecond);
  std::array<bool, 3> exhausted{false, false, false};
  for (int j = 0; j < pool_size; ++j) {
    std::string query;
    int program = j % 3;
    for (int tries = 0; tries < 3 && query.empty(); ++tries) {
      program = (j + tries) % 3;
      if (exhausted[program]) continue;
      query = shapes[static_cast<std::size_t>(program)].Next();
      exhausted[program] = query.empty();
    }
    if (query.empty()) break;
    const int tenant = program * 2 + (j / 3) % 2;
    w.table.push_back(MakeRequest(w.tenants, tenant,
                                  (j / 6) % 2 == 0 ? "ucq" : "cte", query));
  }
  w.max_qps = kColdPoolPerSecond;
  w.next = [size = static_cast<std::int64_t>(w.table.size())](std::int64_t i) {
    return i < size ? static_cast<int>(i) : -1;
  };
  w.round_size = 100;
  w.refresh_facts = SeededFacts(
      [](std::uint64_t s) { return UniversityFacts(s); }, options.seed, 4);
  w.refresh_facts[0] = uni_facts;
  Log(options.workload.c_str(), "inputs", start);
  return RunWire(w, options, recorder);
}

// wide_cte: ProductQuery(k) over ProductFamily(8) under target cte. The
// rewriting is memoized and cheap; builtin unfolding plus evaluation is
// the cost, and past the unfold cap builtin fails where SQLite answers.
constexpr int kProductRules = 8;
constexpr int kProductNodes = 24;

RunResult WideCte(const RunOptions& options, SpanRecorder* recorder) {
  WireWorkload w;
  const std::string program = ProductProgram(kProductRules);
  const std::string facts =
      ProductFacts(kProductRules, kProductNodes, options.seed);
  w.tenants = {{"prod", program, facts, false},
               {"prod_sql", program, facts, true}};
  std::vector<int> builtin, sqlite;
  for (int k = 2; k <= 7; ++k) {
    builtin.push_back(static_cast<int>(w.table.size()));
    w.table.push_back(MakeRequest(w.tenants, 0, "cte", ProductQueryText(k)));
  }
  for (int k = 2; k <= 8; ++k) {
    sqlite.push_back(static_cast<int>(w.table.size()));
    w.table.push_back(MakeRequest(w.tenants, 1, "cte", ProductQueryText(k)));
  }
  // The tenants share a fingerprint, so warming SQLite warms the rewrite
  // cache for both without paying builtin's unfolding in setup.
  w.warmup = sqlite;
  // A round: each builtin k once, each followed by two passes over the
  // SQLite k's — 6 builtin and 84 SQLite requests.
  std::vector<int> order;
  for (int b : builtin) {
    order.push_back(b);
    for (int pass = 0; pass < 2; ++pass) {
      order.insert(order.end(), sqlite.begin(), sqlite.end());
    }
  }
  w.round_size = static_cast<int>(order.size());
  w.next = Cycle(std::move(order));
  w.refresh_facts = SeededFacts(
      [](std::uint64_t s) {
        return ProductFacts(kProductRules, kProductNodes, s);
      },
      options.seed, 4);
  w.refresh_facts[0] = facts;
  return RunWire(w, options, recorder);
}

// --- refresh_mix ----------------------------------------------------------

// TGDs the university ontology already implies: adding one changes the
// fingerprint (every cached rewriting becomes unreachable) but not the
// answers.
const std::vector<std::string>& ImpliedTgds() {
  static const std::vector<std::string> tgds = {
      "professor(X) -> person(X).", "lecturer(X) -> person(X).",
      "phd(X) -> person(X).",       "advises(X, Y) -> faculty(X).",
      "teaches(X, Y) -> person(X).", "enrolled(X, Y) -> person(X).",
  };
  return tgds;
}

constexpr int kRefreshInstances = 6;
// Reads per second the reader cannot reach (it read 3700/s at its fastest).
constexpr double kRefreshMaxQps = 6000;
// A write falls due every kReadsPerWrite reads (5 passes over the read
// table), and every kTgdEvery-th write is an AddTgd instead of a
// ReplaceDatabase. A round is kTgdEvery writes' worth of reads, so every
// round holds the same mix — seven refreshes and one AddTgd — however
// fast the host runs the reads. Writes on a clock would fit more AddTgds,
// and the cache misses after each, into a round on a slow host, and move
// the median round and the p99 with the host's speed.
constexpr int kReadsPerWrite = 105;
constexpr int kTgdEvery = 8;
constexpr std::int64_t kRefreshRound = kReadsPerWrite * kTgdEvery;

struct RefreshSystem {
  std::array<std::unique_ptr<EngineSide>, 2> sides;
  // Parsed per table entry, in the vocabulary of the entry's side.
  std::vector<UnionOfCqs> queries;
};

StatusOr<RefreshSystem> SetUpRefresh(const std::string& program,
                                     const std::string& facts,
                                     const std::vector<Request>& table) {
  RefreshSystem system;
  for (int s = 0; s < 2; ++s) {
    OREW_ASSIGN_OR_RETURN(system.sides[s], BuildSide(program, facts, s == 1));
  }
  for (const Request& r : table) {
    EngineSide& side = *system.sides[static_cast<std::size_t>(r.tenant)];
    OREW_ASSIGN_OR_RETURN(ontorew::ConjunctiveQuery cq,
                          ontorew::ParseQuery(r.query, &side.vocab));
    system.queries.emplace_back(std::move(cq));
  }
  // Warm-up: every read once.
  for (std::size_t i = 0; i < table.size(); ++i) {
    EngineSide& side = *system.sides[static_cast<std::size_t>(table[i].tenant)];
    ServeOptions serve;
    serve.target = TargetOf(table[i].target);
    OREW_ASSIGN_OR_RETURN(AnswerResult warm,
                          side.engine->Serve(system.queries[i], serve));
    (void)warm;
  }
  return system;
}

// Write state that persists across the phases of one run.
struct Writer {
  std::array<std::vector<Database>, 2> instances;
  std::array<std::vector<Tgd>, 2> tgds;
  std::int64_t writes = 0;
  std::int64_t version = 0;
  // Per side: the version whose ReplaceDatabase started / returned last.
  std::array<std::atomic<std::int64_t>, 2> started{};
  std::array<std::atomic<std::int64_t>, 2> done{};
};

// When the writes of one phase fell due, appended by the reader.
struct WriteSchedule {
  std::mutex mutex;
  std::condition_variable due_or_stop;
  std::vector<Clock::time_point> due;
  bool stop = false;
};

// Reads table[*cursor % size], table[(*cursor + 1) % size], ... in whole
// rounds of kRefreshRound reads until `seconds` have passed, while the
// writer thread makes each write as it falls due.
Phase RunRefreshPhase(RefreshSystem* system, const std::vector<Request>& table,
                      Writer* writer, int spare_cpu, std::int64_t* cursor,
                      double seconds, bool traced, SpanRecorder* recorder) {
  Phase phase;
  ReserveSamples(&phase, seconds, kRefreshMaxQps);
  RewriteCacheStats before;
  for (const auto& side : system->sides) {
    const RewriteCacheStats s = side->engine->cache_stats();
    before.hits += s.hits;
    before.misses += s.misses;
    before.evictions += s.evictions;
  }
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));

  WriteSchedule schedule;
  std::thread write_thread([&] {
    // On a CPU of its own when there is one: sharing the reader's, each
    // write would first wait for the scheduler to preempt the reader.
    if (spare_cpu >= 0) {
      cpu_set_t cpu;
      CPU_ZERO(&cpu);
      CPU_SET(spare_cpu, &cpu);
      sched_setaffinity(0, sizeof(cpu), &cpu);
    }
    const std::size_t k = writer->instances[0].size();
    for (std::size_t i = 0;; ++i) {
      const bool add_tgd = writer->writes % kTgdEvery == kTgdEvery - 1;
      std::array<Database, 2> next;
      std::int64_t version = writer->version;
      if (!add_tgd) {
        ++version;
        for (int s = 0; s < 2; ++s) {
          next[s] = writer->instances[s][static_cast<std::size_t>(version) % k];
        }
      }
      Clock::time_point due;
      {
        std::unique_lock<std::mutex> lock(schedule.mutex);
        schedule.due_or_stop.wait(lock, [&] {
          return schedule.due.size() > i || schedule.stop;
        });
        if (schedule.due.size() <= i) break;
        due = schedule.due[i];
      }
      if (add_tgd) {
        const std::size_t which = static_cast<std::size_t>(
            writer->writes / kTgdEvery % writer->tgds[0].size());
        for (int s = 0; s < 2; ++s) {
          system->sides[s]->engine->AddTgd(writer->tgds[s][which]);
        }
      } else {
        for (int s = 0; s < 2; ++s) {
          writer->started[s].store(version);
          system->sides[s]->engine->ReplaceDatabase(std::move(next[s]));
          writer->done[s].store(version);
        }
        writer->version = version;
      }
      phase.write_ms.push_back(MsSince(due));
      ++writer->writes;
    }
  });

  Clock::time_point round_start = start;
  for (std::int64_t i = 0;; ++i) {
    if (i > 0 && i % kReadsPerWrite == 0) {
      {
        std::lock_guard<std::mutex> lock(schedule.mutex);
        schedule.due.push_back(Clock::now());
      }
      schedule.due_or_stop.notify_one();
    }
    if (i % kRefreshRound == 0) {
      const Clock::time_point now = Clock::now();
      if (i > 0) phase.round_s.push_back(MsBetween(round_start, now) / 1e3);
      if (now >= end) break;
      round_start = now;
    }
    const std::size_t index =
        static_cast<std::size_t>((*cursor)++) % table.size();
    const Request& request = table[index];
    EngineSide& side = *system->sides[static_cast<std::size_t>(request.tenant)];
    Sample sample;
    sample.request = static_cast<int>(index);
    sample.round = static_cast<int>(phase.round_s.size());
    ServeOptions serve;
    serve.target = TargetOf(request.target);
    ontorew::Trace trace;
    if (traced) serve.trace = &trace;
    sample.version_lo = writer->done[request.tenant].load();
    ScopedSpan request_span(recorder, "request");
    const Clock::time_point sent = Clock::now();
    StatusOr<AnswerResult> answer = [&] {
      ScopedSpan span(recorder, "serving.serve", request_span.id());
      return side.engine->Serve(system->queries[index], serve);
    }();
    sample.ms = MsSince(sent);
    sample.version_hi = writer->started[request.tenant].load();
    if (answer.ok()) {
      sample.ok = true;
      sample.rows = answer->answers.size();
      sample.digest = DigestRows(RenderRows(answer->answers, side.vocab));
    }
    if (traced) {
      std::vector<std::string> lines;
      const std::string text = trace.ToString();
      for (std::size_t at = 0; at < text.size();) {
        const std::size_t nl = text.find('\n', at);
        lines.push_back(text.substr(at, nl - at));
        at = nl == std::string::npos ? text.size() : nl + 1;
      }
      sample.stages = StagesFromTraceText(lines);
    }
    phase.samples.push_back(std::move(sample));
  }
  phase.wall_s = MsSince(start) / 1e3;
  {
    std::lock_guard<std::mutex> lock(schedule.mutex);
    schedule.stop = true;
  }
  schedule.due_or_stop.notify_one();
  write_thread.join();
  phase.rss_mb = PeakRssMb();
  for (const auto& side : system->sides) {
    const RewriteCacheStats s = side->engine->cache_stats();
    phase.cache.hits += s.hits;
    phase.cache.misses += s.misses;
    phase.cache.evictions += s.evictions;
  }
  phase.cache = CacheDelta(before, phase.cache);
  return phase;
}

RunResult RefreshMix(const RunOptions& options, SpanRecorder* recorder) {
  RunResult result;
  auto fail = [&result](const std::string& why) {
    result.correct = false;
    result.problems.push_back(why);
    return result;
  };
  const std::string program = UniversityProgram();
  const std::vector<std::string> facts = SeededFacts(
      [](std::uint64_t s) { return UniversityFacts(s); }, options.seed,
      kRefreshInstances);
  // Reads: the pool on both engines, flat and factored alternately, but
  // the person/knows chains (first in the pool) always factored. Flat, an
  // AddTgd would cost q3 a 1000-disjunct saturation per engine, and q2 a
  // 10 ms SQLite read that a write must wait out.
  const std::vector<std::string> pool = UniversityQueryPool(kPoolSeed, 10);
  std::vector<Request> table;
  for (std::size_t q = 0; q < pool.size(); ++q) {
    const std::string target = q < 2 || q % 2 == 1 ? "cte" : "ucq";
    for (int side = 0; side < 2; ++side) {
      Request r;
      r.tenant = side;
      r.target = target;
      r.query = pool[q];
      table.push_back(std::move(r));
    }
  }
  // The q2 chain on builtin twice, for an odd number (21) of reads per
  // pass: the median is then the middle of one read's samples, not the gap
  // between two (see WarmWire).
  table.push_back(table[0]);

  // Setup, 21 times: 11 before the timed phase (the last of those systems
  // serves it) and 10 after, so the median spans the run.
  std::vector<double> setup_s;
  RefreshSystem system;
  const auto set_up = [&]() -> Status {
    system = RefreshSystem();
    const Clock::time_point start = Clock::now();
    OREW_ASSIGN_OR_RETURN(system, SetUpRefresh(program, facts[0], table));
    setup_s.push_back(MsSince(start) / 1e3);
    return Status::Ok();
  };
  for (int rep = 0; rep < 11; ++rep) {
    const Status built = set_up();
    if (!built.ok()) return fail(StrCat("setup: ", built.ToString()));
  }

  // The operator's pre-generated instances and TGDs, parsed up front.
  Writer writer;
  for (int s = 0; s < 2; ++s) {
    Vocabulary* vocab = &system.sides[s]->vocab;
    for (const std::string& text : facts) {
      StatusOr<Database> db = ontorew::ParseFacts(text, vocab);
      if (!db.ok()) return fail(db.status().ToString());
      writer.instances[s].push_back(std::move(db).value());
    }
    for (const std::string& text : ImpliedTgds()) {
      StatusOr<Tgd> tgd = ontorew::ParseTgd(text, vocab);
      if (!tgd.ok()) return fail(tgd.status().ToString());
      writer.tgds[s].push_back(std::move(tgd).value());
    }
  }

  std::vector<Phase> phases;
  std::int64_t cursor = 0;
  const int spare = options.spare_cpu;
  if (recorder == nullptr) {
    phases.push_back(RunRefreshPhase(&system, table, &writer, spare, &cursor,
                                     options.seconds, false, nullptr));
  } else {
    phases.push_back(RunRefreshPhase(&system, table, &writer, spare, &cursor,
                                     options.seconds / 2, false, nullptr));
    phases.push_back(RunRefreshPhase(&system, table, &writer, spare, &cursor,
                                     options.seconds / 2, true, recorder));
  }

  for (int rep = 0; rep < 10; ++rep) {
    const Status built = set_up();
    if (!built.ok()) return fail(StrCat("setup: ", built.ToString()));
  }

  std::vector<std::unique_ptr<Oracle>> oracles;
  for (const std::string& text : facts) {
    StatusOr<std::unique_ptr<Oracle>> oracle = Oracle::Build(program, text);
    if (!oracle.ok()) return fail(oracle.status().ToString());
    oracles.push_back(std::move(oracle).value());
  }
  const ExpectedFn expected =
      [&](const Sample& s) -> StatusOr<std::vector<Expected>> {
    const Request& r = table[static_cast<std::size_t>(s.request)];
    std::vector<Expected> allowed;
    const std::int64_t hi =
        std::min(s.version_hi, s.version_lo + kRefreshInstances - 1);
    for (std::int64_t v = s.version_lo; v <= hi; ++v) {
      OREW_ASSIGN_OR_RETURN(
          Expected e,
          oracles[static_cast<std::size_t>(v % kRefreshInstances)]->Answers(
              r.query));
      allowed.push_back(e);
    }
    return allowed;
  };
  const auto backend = [&table](int request) {
    return table[static_cast<std::size_t>(request)].tenant;
  };
  Verdict verdict;
  std::vector<Sample> all;
  std::vector<double> writes;
  for (const Phase& p : phases) {
    all.insert(all.end(), p.samples.begin(), p.samples.end());
    writes.insert(writes.end(), p.write_ms.begin(), p.write_ms.end());
  }
  Check(&all, options.inject_wrong_answer, expected, backend, &verdict);
  result.requests_json = RequestsJson(table, {"builtin", "sqlite"}, all);

  std::vector<TenantInput> tenants = {{"uni", program, facts[0], false},
                                      {"uni_sql", program, facts[0], true}};
  if (recorder == nullptr) {
    EndToEnd(phases[0], all, Median(setup_s), Median(writes), verdict,
             &result);
    result.details.push_back(
        {"writes", static_cast<double>(writes.size()), "count"});
  } else {
    TracedServing(phases[0], phases[1], &result);
    std::vector<LayerRequest> requests = DistinctLayerRequests(table, all);
    // The server probe's tenants are the engines' twins over the wire;
    // an in-process workload has no server to shed.
    result.metrics.push_back({"server.sheds", 0, "count"});
    FinishLayers(tenants, requests, options.seconds, recorder, &result);
  }
  ApplyVerdict(verdict, &result);
  return result;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"warm_wire", "cold_rewrite",
                                                 "wide_cte", "refresh_mix"};
  return names;
}

RunResult RunWorkload(const RunOptions& options, SpanRecorder* recorder) {
  if (options.workload == "warm_wire") return WarmWire(options, recorder);
  if (options.workload == "cold_rewrite") {
    return ColdRewrite(options, recorder);
  }
  if (options.workload == "wide_cte") return WideCte(options, recorder);
  if (options.workload == "refresh_mix") return RefreshMix(options, recorder);
  RunResult result;
  result.correct = false;
  result.problems.push_back(StrCat("unknown workload '", options.workload, "'"));
  return result;
}

}  // namespace ontobench
