#ifndef ONTOBENCH_LAYERS_H_
#define ONTOBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "inputs.h"
#include "measure.h"

// The traced run's layer replay. The library has no tracing of its own
// beyond the engine's span tree, so per-layer costs are measured from
// outside: every distinct request of the run is replayed through the
// public functions of each module (ParseQuery, AnswerEngine::CacheKey,
// RewriteUcq, RewriteToDatalog, FactorUcq, UcqToSql, DatalogToCteSql,
// UnfoldDatalog, Backend::Load / Execute / ExecuteDatalog) with a span
// around each call, and the spans become the per-layer metrics.

namespace ontobench {

// One distinct request: the tenant that received it, its rewrite target
// ("ucq" | "cte") and the query text.
struct LayerRequest {
  int tenant = 0;
  std::string target;
  std::string query;
};

// Replays `requests` (deduplicated by tenant program, target and query;
// evenly sampled when there are more than fit in `budget_s`) against
// fresh backends loaded with each tenant's data. Returns the rewriting,
// logic, backend and db metrics of README.md's table, and in
// `replays_json` one JSON object per replayed request with its own
// timings (rewrite, emit, unfold, in-memory and first/steady SQLite
// execution).
std::vector<Metric> ReplayLayers(const std::vector<TenantInput>& tenants,
                                 const std::vector<LayerRequest>& requests,
                                 double budget_s, SpanRecorder* recorder,
                                 std::string* replays_json);

// The server probe: hosts `tenants` on a fresh OntologyServer, warms each
// request, then times Roundtrip and in-process ServeLine of the same
// traced line alternately. Returns server.wire_ms (Roundtrip minus
// ServeLine) and server.dispatch_ms (ServeLine minus the engine's serve
// span), medians over the probes.
std::vector<Metric> ProbeServer(const std::vector<TenantInput>& tenants,
                                const std::vector<LayerRequest>& requests,
                                double budget_s, SpanRecorder* recorder);

// The engine's own span tree, reduced to the serve span and its direct
// stages.
struct EngineStages {
  bool valid = false;
  double serve_ms = 0;
  double canonicalize_ms = 0;
  double rewrite_ms = 0;
  double eval_ms = 0;
  // serve - canonicalize - rewrite - eval: admission, the cache lookup,
  // result assembly — the time no stage accounts for.
  double other_ms() const {
    return serve_ms - canonicalize_ms - rewrite_ms - eval_ms;
  }
};

// From the indented text tree a traced wire response carries in its info
// lines ("serve 1.204ms", "  eval 0.801ms backend=sqlite", ...).
EngineStages StagesFromTraceText(const std::vector<std::string>& lines);

// The wire request line for one query.
std::string QueryLine(const std::string& tenant, const std::string& target,
                      const std::string& query, bool traced);

}  // namespace ontobench

#endif  // ONTOBENCH_LAYERS_H_
