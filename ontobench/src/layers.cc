#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <tuple>
#include <utility>

#include "backend/backend.h"
#include "backend/sqlite_backend.h"
#include "base/deadline.h"
#include "db/facts_io.h"
#include "logic/parser.h"
#include "rewriting/cte_sql.h"
#include "rewriting/dag_rewriter.h"
#include "rewriting/datalog.h"
#include "rewriting/rewriter.h"
#include "rewriting/sql.h"
#include "server/client.h"
#include "server/server.h"
#include "serving/answer_engine.h"

namespace ontobench {
namespace {

using ontorew::BackendExecOptions;
using ontorew::CancelScope;
using ontorew::Database;
using ontorew::Deadline;
using ontorew::EvalStats;
using ontorew::StatusOr;
using ontorew::TgdProgram;
using ontorew::Tuple;
using ontorew::UnionOfCqs;
using ontorew::Vocabulary;

// Replays beyond this many distinct requests are sampled evenly.
constexpr std::size_t kMaxReplays = 120;
constexpr std::size_t kMaxProbes = 40;
// Requests slower than this are not probed on the wire: their wire and
// dispatch overhead is lost in the noise of the request itself.
constexpr double kProbeMaxRequestMs = 100;
constexpr int kLoadReps = 3;
constexpr int kProbeReps = 3;
// The unfold cap of UnfoldDatalog, reported as the disjunct count of an
// unfolding that exceeded it.
constexpr double kUnfoldCap = 1 << 20;

// Runs `fn` inside a span and appends its wall time (ms) to `ms`.
template <typename Fn>
auto Timed(SpanRecorder* recorder, const char* name, int parent,
           std::vector<double>* ms, Fn&& fn) {
  ScopedSpan span(recorder, name, parent);
  const Clock::time_point start = Clock::now();
  auto result = fn();
  ms->push_back(MsSince(start));
  return result;
}

// Evenly spaced picks of at most `limit` of `n` items.
std::vector<std::size_t> Spread(std::size_t n, std::size_t limit) {
  std::vector<std::size_t> picks;
  if (n == 0) return picks;
  const std::size_t take = std::min(n, limit);
  for (std::size_t i = 0; i < take; ++i) picks.push_back(i * n / take);
  return picks;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// One tenant's data, parsed into a vocabulary of its own, with backends
// loaded from it.
struct LayerTenant {
  Vocabulary vocab;
  TgdProgram program;
  Database db;
  std::unique_ptr<ontorew::AnswerEngine> engine;  // For CacheKey only.
  ontorew::InMemoryBackend inmemory;
  std::unique_ptr<ontorew::SqliteBackend> sqlite;
};

// What the replay collects, one entry per call.
struct Samples {
  std::vector<double> parse_ms, canonicalize_ms;
  std::vector<double> saturate_ms, steps, generated;
  double output_total = 0, generated_total = 0;
  std::vector<double> dag_ms, memo_hits;
  double dag_calls = 0, dag_fallbacks = 0;
  std::vector<double> factor_ms, emit_ms, sql_bytes;
  std::vector<double> unfold_ms, unfold_disjuncts;
  std::vector<double> load_inmemory_ms, load_sqlite_ms;
  std::vector<double> exec_inmemory_ms, exec_sqlite_ms, exec_first_sqlite_ms;
  std::vector<double> tuples_examined;
  double answers_total = 0, examined_total = 0;
  std::vector<std::string> replays;  // One JSON object per request.
};

// The last sample of `ms`, or -1 when the call did not happen.
double Last(const std::vector<double>& ms, std::size_t size_before) {
  return ms.size() > size_before ? ms.back() : -1;
}

StatusOr<std::unique_ptr<LayerTenant>> LoadTenant(const TenantInput& input,
                                                  SpanRecorder* recorder,
                                                  Samples* s) {
  auto t = std::make_unique<LayerTenant>();
  OREW_ASSIGN_OR_RETURN(t->program,
                        ontorew::ParseProgram(input.program_text, &t->vocab));
  OREW_ASSIGN_OR_RETURN(t->db, ontorew::ParseFacts(input.facts_text, &t->vocab));
  t->engine = std::make_unique<ontorew::AnswerEngine>(t->program, t->db);
  for (int rep = 0; rep < kLoadReps; ++rep) {
    ontorew::Status loaded =
        Timed(recorder, "backend.load.inmemory", -1, &s->load_inmemory_ms,
              [&] { return t->inmemory.Load(t->program, t->db); });
    OREW_RETURN_IF_ERROR(loaded);
    t->sqlite = std::make_unique<ontorew::SqliteBackend>(&t->vocab);
    loaded = Timed(recorder, "backend.load.sqlite", -1, &s->load_sqlite_ms,
                   [&] { return t->sqlite->Load(t->program, t->db); });
    OREW_RETURN_IF_ERROR(loaded);
  }
  return t;
}

void RecordExec(const StatusOr<std::vector<Tuple>>& answers,
                const EvalStats& stats, Samples* s) {
  if (!answers.ok()) return;
  s->tuples_examined.push_back(static_cast<double>(stats.tuples_examined));
  s->answers_total += static_cast<double>(answers->size());
  s->examined_total += static_cast<double>(stats.tuples_examined);
}

// One distinct request through every layer.
void ReplayCalls(LayerTenant* t, const LayerRequest& request,
                 SpanRecorder* recorder, Samples* s);

void ReplayOne(LayerTenant* t, const LayerRequest& request,
               SpanRecorder* recorder, Samples* s) {
  const std::size_t rewrites = s->saturate_ms.size();
  const std::size_t emits = s->emit_ms.size();
  const std::size_t unfolds = s->unfold_ms.size();
  const std::size_t inmemory = s->exec_inmemory_ms.size();
  const std::size_t first = s->exec_first_sqlite_ms.size();
  const std::size_t steady = s->exec_sqlite_ms.size();
  ReplayCalls(t, request, recorder, s);
  s->replays.push_back(
      "{\"target\": " + JsonString(request.target) +
      ", \"query\": " + JsonString(request.query) +
      ", \"saturate_ms\": " + JsonNumber(Last(s->saturate_ms, rewrites)) +
      ", \"emit_ms\": " + JsonNumber(Last(s->emit_ms, emits)) +
      ", \"unfold_ms\": " + JsonNumber(Last(s->unfold_ms, unfolds)) +
      ", \"exec_inmemory_ms\": " +
      JsonNumber(Last(s->exec_inmemory_ms, inmemory)) +
      ", \"exec_first_sqlite_ms\": " +
      JsonNumber(Last(s->exec_first_sqlite_ms, first)) +
      ", \"exec_sqlite_ms\": " + JsonNumber(Last(s->exec_sqlite_ms, steady)) +
      "}");
}

// The calls of one replay, each in its own span under a "replay" root.
void ReplayCalls(LayerTenant* t, const LayerRequest& request,
                 SpanRecorder* recorder, Samples* s) {
  ScopedSpan root(recorder, "replay");
  StatusOr<ontorew::ConjunctiveQuery> cq =
      Timed(recorder, "logic.parse_query", root.id(), &s->parse_ms,
            [&] { return ontorew::ParseQuery(request.query, &t->vocab); });
  if (!cq.ok()) return;
  const UnionOfCqs query(*cq);
  const bool cte = request.target == "cte";
  const ontorew::RewriteTarget target =
      cte ? ontorew::RewriteTarget::kCte : ontorew::RewriteTarget::kUcq;
  Timed(recorder, "logic.canonicalize", root.id(), &s->canonicalize_ms,
        [&] { return t->engine->CacheKey(query, target); });

  ontorew::RewriterOptions rewriter;
  rewriter.max_cqs = 300000;
  rewriter.cancel = CancelScope(Deadline::AfterMillis(5000));
  BackendExecOptions exec;
  exec.num_threads = 1;
  exec.cancel = CancelScope(Deadline::AfterMillis(5000));

  if (!cte) {
    std::vector<double> saturate;
    StatusOr<ontorew::RewriteResult> flat =
        Timed(recorder, "rewriting.saturate", root.id(), &saturate,
              [&] { return ontorew::RewriteUcq(query, t->program, rewriter); });
    if (!flat.ok()) return;
    s->saturate_ms.push_back(saturate.back());
    s->steps.push_back(flat->steps);
    s->generated.push_back(flat->generated);
    s->output_total += flat->ucq.size();
    s->generated_total += flat->generated;
    Timed(recorder, "rewriting.factor", root.id(), &s->factor_ms,
          [&] { return ontorew::FactorUcq(flat->ucq); });
    StatusOr<std::string> sql =
        Timed(recorder, "rewriting.emit", root.id(), &s->emit_ms,
              [&] { return ontorew::UcqToSql(flat->ucq, t->vocab); });
    if (sql.ok()) s->sql_bytes.push_back(static_cast<double>(sql->size()));
    EvalStats stats;
    RecordExec(Timed(recorder, "backend.exec.inmemory", root.id(),
                     &s->exec_inmemory_ms,
                     [&] { return t->inmemory.Execute(flat->ucq, exec, &stats); }),
               stats, s);
    Timed(recorder, "backend.exec_first.sqlite", root.id(),
          &s->exec_first_sqlite_ms,
          [&] { return t->sqlite->Execute(flat->ucq, exec); });
    Timed(recorder, "backend.exec.sqlite", root.id(), &s->exec_sqlite_ms,
          [&] { return t->sqlite->Execute(flat->ucq, exec); });
    return;
  }

  ontorew::DagRewriteOptions dag_options;
  dag_options.rewriter = rewriter;
  dag_options.factor.cancel = rewriter.cancel;
  StatusOr<ontorew::DagRewriteResult> dag =
      Timed(recorder, "rewriting.dag", root.id(), &s->dag_ms, [&] {
        return ontorew::RewriteToDatalog(query, t->program, dag_options);
      });
  if (!dag.ok()) return;
  s->dag_calls += 1;
  s->dag_fallbacks += dag->fallback ? 1 : 0;
  s->memo_hits.push_back(dag->memo_hits);
  s->saturate_ms.push_back(static_cast<double>(dag->saturate_ns) / 1e6);
  s->factor_ms.push_back(static_cast<double>(dag->factor_ns) / 1e6);
  s->steps.push_back(dag->steps);
  s->generated.push_back(dag->generated);
  s->output_total += dag->program.total_rules();
  s->generated_total += dag->generated;
  StatusOr<std::string> sql =
      Timed(recorder, "rewriting.emit", root.id(), &s->emit_ms, [&] {
        return ontorew::DatalogToCteSql(dag->program, t->vocab);
      });
  if (sql.ok()) s->sql_bytes.push_back(static_cast<double>(sql->size()));
  StatusOr<UnionOfCqs> unfolded =
      Timed(recorder, "rewriting.unfold", root.id(), &s->unfold_ms,
            [&] { return ontorew::UnfoldDatalog(dag->program); });
  s->unfold_disjuncts.push_back(
      unfolded.ok() ? static_cast<double>(unfolded->size()) : kUnfoldCap);
  if (unfolded.ok()) {
    // The in-memory backend unfolds again inside ExecuteDatalog; past
    // the cap it would only repeat the failure just measured.
    EvalStats stats;
    RecordExec(Timed(recorder, "backend.exec.inmemory", root.id(),
                     &s->exec_inmemory_ms,
                     [&] {
                       return t->inmemory.ExecuteDatalog(dag->program, exec,
                                                         &stats);
                     }),
               stats, s);
  }
  Timed(recorder, "backend.exec_first.sqlite", root.id(),
        &s->exec_first_sqlite_ms,
        [&] { return t->sqlite->ExecuteDatalog(dag->program, exec); });
  Timed(recorder, "backend.exec.sqlite", root.id(), &s->exec_sqlite_ms,
        [&] { return t->sqlite->ExecuteDatalog(dag->program, exec); });
}

std::vector<std::string> InfoLines(const std::string& response) {
  std::vector<std::string> info;
  std::size_t at = 0;
  while (at < response.size()) {
    std::size_t nl = response.find('\n', at);
    if (nl == std::string::npos) nl = response.size();
    if (response.compare(at, 2, "# ") == 0) {
      info.push_back(response.substr(at + 2, nl - at - 2));
    }
    at = nl + 1;
  }
  return info;
}

}  // namespace

std::string QueryLine(const std::string& tenant, const std::string& target,
                      const std::string& query, bool traced) {
  return "QUERY tenant=" + tenant + " target=" + target +
         (traced ? " trace=1 " : " ") + query;
}

EngineStages StagesFromTraceText(const std::vector<std::string>& lines) {
  EngineStages stages;
  for (const std::string& line : lines) {
    const std::size_t indent = line.find_first_not_of(' ');
    if (indent == std::string::npos) continue;
    const std::size_t name_end = line.find(' ', indent);
    if (name_end == std::string::npos) continue;
    const std::string name = line.substr(indent, name_end - indent);
    const std::size_t ms_end = line.find("ms", name_end + 1);
    if (ms_end == std::string::npos) continue;
    const double ms = std::atof(line.c_str() + name_end + 1);
    const std::size_t depth = indent / 2;
    if (depth == 0 && name == "serve") {
      stages.valid = true;
      stages.serve_ms = ms;
    } else if (depth == 1 && name == "canonicalize") {
      stages.canonicalize_ms += ms;
    } else if (depth == 1 && name == "rewrite") {
      stages.rewrite_ms += ms;
    } else if (depth == 1 && name == "eval") {
      stages.eval_ms += ms;
    }
  }
  return stages;
}

std::vector<Metric> ReplayLayers(const std::vector<TenantInput>& tenants,
                                 const std::vector<LayerRequest>& requests,
                                 double budget_s, SpanRecorder* recorder,
                                 std::string* replays_json) {
  Samples s;
  // Tenants hosting the same program and data share one replay tenant.
  std::map<std::pair<std::string, std::string>, std::unique_ptr<LayerTenant>>
      loaded;
  std::vector<LayerTenant*> by_tenant;
  for (const TenantInput& input : tenants) {
    auto key = std::make_pair(input.program_text, input.facts_text);
    auto it = loaded.find(key);
    if (it == loaded.end()) {
      StatusOr<std::unique_ptr<LayerTenant>> t =
          LoadTenant(input, recorder, &s);
      it = loaded.emplace(key, t.ok() ? std::move(t).value() : nullptr).first;
    }
    by_tenant.push_back(it->second.get());
  }

  // Distinct by (replay tenant, target, query).
  std::vector<std::pair<LayerTenant*, const LayerRequest*>> distinct;
  std::set<std::tuple<LayerTenant*, std::string, std::string>> seen;
  for (const LayerRequest& r : requests) {
    LayerTenant* t = by_tenant[static_cast<std::size_t>(r.tenant)];
    if (t == nullptr) continue;
    if (seen.emplace(t, r.target, r.query).second) distinct.emplace_back(t, &r);
  }
  const Clock::time_point start = Clock::now();
  for (std::size_t pick : Spread(distinct.size(), kMaxReplays)) {
    if (MsSince(start) > budget_s * 1e3) break;
    ReplayOne(distinct[pick].first, *distinct[pick].second, recorder, &s);
  }

  *replays_json = "[";
  for (std::size_t i = 0; i < s.replays.size(); ++i) {
    *replays_json += (i == 0 ? "\n  " : ",\n  ") + s.replays[i];
  }
  *replays_json += "\n]";

  auto us = [](const std::vector<double>& ms) { return Median(ms) * 1e3; };
  return {
      {"logic.parse_query_us", us(s.parse_ms), "us"},
      {"logic.canonicalize_us", us(s.canonicalize_ms), "us"},
      {"rewriting.saturate_ms", Median(s.saturate_ms), "ms"},
      {"rewriting.steps", Median(s.steps), "count"},
      {"rewriting.generated", Median(s.generated), "count"},
      {"rewriting.yield", Ratio(s.output_total, s.generated_total),
       "fraction"},
      {"rewriting.dag_ms", Median(s.dag_ms), "ms"},
      {"rewriting.dag_fallback_ratio", Ratio(s.dag_fallbacks, s.dag_calls),
       "fraction"},
      {"rewriting.dag_memo_hits", Mean(s.memo_hits), "count"},
      {"rewriting.factor_ms", Median(s.factor_ms), "ms"},
      {"rewriting.emit_ms", Median(s.emit_ms), "ms"},
      {"rewriting.sql_bytes", Median(s.sql_bytes), "bytes"},
      {"rewriting.unfold_ms", Median(s.unfold_ms), "ms"},
      {"rewriting.unfold_disjuncts", Median(s.unfold_disjuncts), "count"},
      {"backend.load_ms.inmemory", Median(s.load_inmemory_ms), "ms"},
      {"backend.load_ms.sqlite", Median(s.load_sqlite_ms), "ms"},
      {"backend.exec_ms.inmemory", Median(s.exec_inmemory_ms), "ms"},
      {"backend.exec_ms.sqlite", Median(s.exec_sqlite_ms), "ms"},
      {"backend.exec_first_ms.sqlite", Median(s.exec_first_sqlite_ms), "ms"},
      {"db.tuples_examined", Median(s.tuples_examined), "count"},
      {"db.answer_yield", Ratio(s.answers_total, s.examined_total),
       "fraction"},
  };
}

std::vector<Metric> ProbeServer(const std::vector<TenantInput>& tenants,
                                const std::vector<LayerRequest>& requests,
                                double budget_s, SpanRecorder* recorder) {
  std::vector<double> wire, dispatch;
  ontorew::OntologyServerOptions options;
  options.num_workers = 1;
  ontorew::OntologyServer server(options);
  bool ready = true;
  for (const TenantInput& input : tenants) {
    ontorew::TenantSpec spec;
    spec.name = input.name;
    spec.program_text = input.program_text;
    spec.facts_text = input.facts_text;
    spec.use_sqlite = input.use_sqlite;
    spec.engine.num_threads = 1;
    spec.engine.rewriter.max_cqs = 300000;
    ready = ready && server.AddTenant(std::move(spec)).ok();
  }
  ready = ready && server.Start().ok();
  StatusOr<ontorew::ServerClient> client =
      ready ? ontorew::ServerClient::Connect(server.port())
            : StatusOr<ontorew::ServerClient>(
                  ontorew::InternalError("probe server did not start"));
  if (client.ok()) {
    std::set<std::string> seen;
    std::vector<std::string> lines;
    for (const LayerRequest& r : requests) {
      std::string line = QueryLine(
          tenants[static_cast<std::size_t>(r.tenant)].name, r.target, r.query,
          true);
      if (seen.insert(line).second) lines.push_back(std::move(line));
    }
    const Clock::time_point start = Clock::now();
    for (std::size_t pick : Spread(lines.size(), kMaxProbes)) {
      if (MsSince(start) > budget_s * 1e3) break;
      const std::string& line = lines[pick];
      const Clock::time_point warm = Clock::now();
      StatusOr<ontorew::WireResponse> first = client->Roundtrip(line);
      if (!first.ok() || !first->status.ok() ||
          MsSince(warm) > kProbeMaxRequestMs) {
        continue;
      }
      for (int rep = 0; rep < kProbeReps; ++rep) {
        std::vector<double> rt, sl;
        StatusOr<ontorew::WireResponse> response =
            Timed(recorder, "server.roundtrip", -1, &rt,
                  [&] { return client->Roundtrip(line); });
        const std::string served = Timed(recorder, "server.serve_line", -1,
                                         &sl,
                                         [&] { return server.ServeLine(line); });
        const EngineStages stages = StagesFromTraceText(InfoLines(served));
        if (!response.ok() || !stages.valid) continue;
        wire.push_back(rt.back() - sl.back());
        dispatch.push_back(sl.back() - stages.serve_ms);
      }
    }
    client->Close();
  }
  ontorew::Status stopped = server.Shutdown(std::chrono::seconds(5));
  (void)stopped;
  return {{"server.wire_ms", Median(wire), "ms"},
          {"server.dispatch_ms", Median(dispatch), "ms"}};
}

}  // namespace ontobench
