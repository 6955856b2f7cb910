#include "serving/answer_engine.h"

#include <algorithm>

#include "base/fault_point.h"
#include "base/strings.h"
#include "classes/weakly_acyclic.h"
#include "logic/canonical.h"
#include "rewriting/cte_sql.h"
#include "rewriting/dag_rewriter.h"

namespace ontorew {
namespace {

// FNV-1a, 64-bit.
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void Mix(std::uint64_t* hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    *hash ^= (value >> (8 * byte)) & 0xff;
    *hash *= kFnvPrime;
  }
}

void MixAtoms(std::uint64_t* hash, const std::vector<Atom>& atoms) {
  Mix(hash, atoms.size());
  for (const Atom& atom : atoms) {
    Mix(hash, static_cast<std::uint64_t>(atom.predicate()));
    Mix(hash, static_cast<std::uint64_t>(atom.arity()));
    for (Term t : atom.terms()) {
      Mix(hash, t.is_constant() ? 1u : 2u);
      Mix(hash, static_cast<std::uint64_t>(t.id()));
    }
  }
}

// A rewrite failure that merely means "could not finish in budget" — the
// cases chase fallback may rescue. Hard errors (invalid query, multi-head
// program) stay hard.
bool IsBudgetFailure(const Status& status) {
  return status.code() == StatusCode::kDeadlineExceeded ||
         status.code() == StatusCode::kResourceExhausted;
}

// The cache key for `query` under a specific program fingerprint — the
// fingerprint must come from the same snapshot the rewriting will run
// against, or a rewriting computed from a newer program could be cached
// under an older program's key. The target name keeps kUcq and kCte
// entries (different artifacts: flat union vs factored program) from
// aliasing in a shared cache.
std::string CacheKeyFor(const UnionOfCqs& query, std::uint64_t fingerprint,
                        RewriteTarget target) {
  std::vector<std::string> keys;
  keys.reserve(query.disjuncts().size());
  for (const ConjunctiveQuery& cq : query.disjuncts()) {
    keys.push_back(CanonicalFormKey(CanonicalizeCq(cq)));
  }
  // Sorted: a UCQ is a set of disjuncts, so order must not split entries.
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return StrCat(fingerprint, "|", RewriteTargetName(target), "|",
                StrJoin(keys, "|"));
}

// Aliases the members of a cache entry: the returned pointers share the
// entry's lifetime, so they stay valid after cache eviction. UcqOf is
// null for kCte entries, which hold only the factored program.
std::shared_ptr<const UnionOfCqs> UcqOf(
    const std::shared_ptr<const CachedRewriting>& cached) {
  if (!cached->ucq.has_value()) return nullptr;
  return std::shared_ptr<const UnionOfCqs>(cached, &*cached->ucq);
}

std::shared_ptr<const DatalogProgram> DatalogOf(
    const std::shared_ptr<const CachedRewriting>& cached) {
  return std::shared_ptr<const DatalogProgram>(cached, &cached->datalog);
}

}  // namespace

std::uint64_t FingerprintProgram(const TgdProgram& program) {
  std::uint64_t hash = kFnvOffset;
  Mix(&hash, static_cast<std::uint64_t>(program.size()));
  for (const Tgd& tgd : program.tgds()) {
    MixAtoms(&hash, tgd.body());
    MixAtoms(&hash, tgd.head());
  }
  return hash;
}

AnswerEngine::AnswerEngine(TgdProgram program, Database db,
                           AnswerEngineOptions options)
    : program_(std::make_shared<const TgdProgram>(std::move(program))),
      db_(std::make_shared<const Database>(std::move(db))),
      options_(std::move(options)),
      fingerprint_(FingerprintProgram(*program_)),
      cache_(options_.shared_cache != nullptr
                 ? options_.shared_cache
                 : std::make_shared<RewriteCache>(options_.cache_capacity)) {
  if (!options_.backend) options_.backend = std::make_shared<InMemoryBackend>();
  const std::string prefix = StrCat("backend_", options_.backend->name());
  exec_metric_ = StrCat(prefix, "_exec");
  exec_ns_metric_ = StrCat(prefix, "_exec_ns");
  load_metric_ = StrCat(prefix, "_load");
  load_ns_metric_ = StrCat(prefix, "_load_ns");
  ReloadBackend();
}

AnswerEngine::Snapshot AnswerEngine::CurrentSnapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return Snapshot{program_, db_, fingerprint_, data_generation_};
}

void AnswerEngine::ReloadBackend() {
  const Snapshot snap = CurrentSnapshot();
  Status status;
  {
    ScopedTimer timer(&metrics_, load_ns_metric_);
    status = options_.backend->Load(*snap.program, snap.db);
  }
  if (status.ok()) metrics_.Increment(load_metric_);
  std::lock_guard<std::mutex> lock(mutex_);
  backend_load_status_ = std::move(status);
  backend_loading_ = false;
}

void AnswerEngine::AddTgd(Tgd tgd) {
  // Serialize mutators: two racing AddTgds must both land, and the
  // snapshot swap below must pair each program with its own fingerprint.
  std::lock_guard<std::mutex> update(update_mutex_);
  auto next = std::make_shared<TgdProgram>(*CurrentSnapshot().program);
  next->Add(std::move(tgd));
  const std::uint64_t fingerprint = FingerprintProgram(*next);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    program_ = std::move(next);
    fingerprint_ = fingerprint;
  }
  // The schema grew: the backend must know the new predicates.
  ReloadBackend();
}

void AnswerEngine::ReplaceDatabase(Database db) {
  std::lock_guard<std::mutex> update(update_mutex_);
  auto next = std::make_shared<const Database>(std::move(db));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    db_ = std::move(next);
    ++data_generation_;
    backend_loading_ = true;
  }
  ReloadBackend();
}

std::string AnswerEngine::CacheKey(const UnionOfCqs& query,
                                   RewriteTarget target) const {
  return CacheKeyFor(query, program_fingerprint(), target);
}

bool AnswerEngine::ChaseTerminates() const {
  Snapshot snap;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (wa_cache_.has_value() && wa_cache_->first == fingerprint_) {
      return wa_cache_->second;
    }
    snap = Snapshot{program_, db_, fingerprint_, data_generation_};
  }
  // Classify outside the lock (the classifier walks the whole program).
  const bool weakly_acyclic = IsWeaklyAcyclic(*snap.program);
  std::lock_guard<std::mutex> lock(mutex_);
  // Keyed by the fingerprint the verdict was computed *for* — a program
  // swapped in mid-classification must not inherit this verdict.
  wa_cache_ = {snap.fingerprint, weakly_acyclic};
  return weakly_acyclic;
}

StatusOr<std::shared_ptr<const CachedRewriting>> AnswerEngine::RewriteInternal(
    const UnionOfCqs& query, const CancelScope& cancel,
    const TraceContext& trace, bool* cache_hit, const Snapshot& snap,
    RewriteTarget target, bool shed_optional_work) {
  if (cache_hit != nullptr) *cache_hit = false;

  std::string key;
  {
    TraceSpan canonicalize_span(trace, "canonicalize");
    key = CacheKeyFor(query, snap.fingerprint, target);
  }

  {
    TraceSpan cache_span(trace, "rewrite-cache");
    if (cache_->capacity() == 0) {
      cache_span.Attr("cache", "disabled");
    } else if (std::shared_ptr<const CachedRewriting> hit =
                   cache_->Lookup(key)) {
      metrics_.Increment("rewrite_cache_hit");
      cache_span.Attr("cache", "hit");
      if (cache_hit != nullptr) *cache_hit = true;
      return hit;
    } else {
      metrics_.Increment("rewrite_cache_miss");
      cache_span.Attr("cache", "miss");
    }
  }

  // Rewrite outside any lock: concurrent misses on the same key duplicate
  // work instead of serializing every caller behind one saturation.
  auto entry = std::make_shared<CachedRewriting>();
  {
    TraceSpan rewrite_span(trace, "rewrite");
    RewriterOptions rewriter = options_.rewriter;
    // The per-request scope tightens whatever the engine-wide options
    // carry: the earlier deadline wins, the request token applies.
    rewriter.cancel = CancelScope(
        Deadline::Earlier(rewriter.cancel.deadline(), cancel.deadline()),
        cancel.token() != nullptr ? cancel.token()
                                  : rewriter.cancel.token());
    rewriter.trace = rewrite_span.context();
    if (shed_optional_work) {
      // Brownout: skip the final containment minimization. The union is
      // still sound and complete — minimization only removes redundant
      // disjuncts — so answers are unchanged; only CPU is saved.
      rewriter.minimize = false;
      metrics_.Increment("rewrite_degraded");
      rewrite_span.Attr("degraded", "no-minimize");
    }
    if (target == RewriteTarget::kCte) {
      // DAG-native compilation: the saturator emits the factored Datalog
      // program directly (per-group memoized saturation + a "factor"
      // assembly span inside), never materializing the flat union — the
      // entry caches the program alone. Data-independent like the flat
      // rewriting, so it is computed once per cache entry.
      DagRewriteOptions dag_options;
      dag_options.rewriter = rewriter;
      dag_options.factor.cancel = rewriter.cancel;
      StatusOr<DagRewriteResult> dag =
          RewriteToDatalog(query, *snap.program, dag_options);
      if (!dag.ok()) {
        rewrite_span.AnnotateStatus(dag.status());
        return dag.status();
      }
      metrics_.AddTimeNs("rewrite_ns", dag->saturate_ns);
      metrics_.AddTimeNs("factor_ns", dag->factor_ns);
      metrics_.Increment("rewrite_pruned_total", dag->pruned);
      metrics_.SetGauge("rewrite_threads", dag->threads_used);
      metrics_.Increment("rewrite_factored");
      metrics_.Increment(dag->fallback ? "rewrite_dag_fallback"
                                       : "rewrite_dag");
      rewrite_span.Attr("mode", dag->fallback ? "flat-fallback" : "dag");
      rewrite_span.Attr("groups", static_cast<std::int64_t>(dag->groups));
      rewrite_span.Attr("memo_hits",
                        static_cast<std::int64_t>(dag->memo_hits));
      rewrite_span.Attr("disjuncts", dag->implied_disjuncts);
      entry->datalog = std::move(dag->program);
    } else {
      StatusOr<RewriteResult> rewritten = [&] {
        ScopedTimer timer(&metrics_, "rewrite_ns");
        return RewriteUcq(query, *snap.program, rewriter);
      }();
      if (!rewritten.ok()) {
        rewrite_span.AnnotateStatus(rewritten.status());
        return rewritten.status();
      }
      RewriteResult result = std::move(rewritten).value();
      metrics_.Increment("rewrite_pruned_total", result.pruned);
      metrics_.SetGauge("rewrite_threads", result.threads_used);
      rewrite_span.Attr(
          "disjuncts",
          static_cast<std::int64_t>(result.ucq.disjuncts().size()));
      // Factored once per cache entry: a wide union ships to the backend
      // as shared aux predicates instead of one arm per disjunct. With
      // nothing shared the program has no aux predicates and its SQL is
      // the plain UNION. Only the engine-wide scope bounds it: a request
      // whose deadline passes here still publishes the finished
      // saturation, so its retry is a cache hit instead of a repeat.
      TraceSpan factor_span(rewrite_span.context(), "factor");
      DatalogFactorOptions factor_options;
      factor_options.cancel = options_.rewriter.cancel;
      StatusOr<DatalogProgram> factored = [&] {
        ScopedTimer timer(&metrics_, "factor_ns");
        return FactorUcq(result.ucq, factor_options);
      }();
      if (!factored.ok()) {
        factor_span.AnnotateStatus(factored.status());
        rewrite_span.AnnotateStatus(factored.status());
        return factored.status();
      }
      factor_span.Attr("cte_count",
                       static_cast<std::int64_t>(factored->cte_count()));
      factor_span.Attr("rules",
                       static_cast<std::int64_t>(factored->total_rules()));
      metrics_.Increment("rewrite_factored");
      entry->datalog = std::move(factored).value();
      entry->ucq = std::move(result.ucq);
    }
  }

  std::shared_ptr<const CachedRewriting> rewriting = std::move(entry);
  if (shed_optional_work) {
    // An unminimized rewriting must not be published: the cache (possibly
    // shared across tenants) only ever holds canonical, minimized unions.
    return rewriting;
  }
  std::int64_t evictions = 0;
  rewriting = cache_->Insert(key, std::move(rewriting), &evictions);
  if (evictions > 0) metrics_.Increment("rewrite_cache_eviction", evictions);
  return rewriting;
}

Status AnswerEngine::Admit(const CancelScope& scope) {
  if (options_.max_inflight == 0) {
    // Unlimited: still maintain the gauge.
    std::lock_guard<std::mutex> lock(admission_mutex_);
    ++inflight_;
    metrics_.SetGauge("inflight", static_cast<std::int64_t>(inflight_));
    return Status::Ok();
  }
  std::unique_lock<std::mutex> lock(admission_mutex_);
  if (inflight_ >= options_.max_inflight) {
    // Queue for a slot, but never past the request's own deadline: a
    // request that would time out while queued is shed immediately
    // instead of wasting its budget waiting.
    auto give_up = Deadline::Clock::now() + options_.admission_timeout;
    if (!scope.deadline().is_infinite() &&
        scope.deadline().time() < give_up) {
      give_up = scope.deadline().time();
    }
    const bool admitted = admission_cv_.wait_until(lock, give_up, [this] {
      return inflight_ < options_.max_inflight;
    });
    if (!admitted) {
      // Distinguish WHY the wait ended without a slot: the request's own
      // deadline expiring while queued is the caller's budget running out
      // (DeadlineExceeded — retrying with the same deadline is hopeless),
      // while the admission timeout elapsing is the server shedding load
      // (ResourceExhausted — retry with backoff). Neither consumes a
      // slot. The requests_by_status counters pin the split.
      if (scope.deadline().expired()) {
        metrics_.Increment("admission_queue_deadline");
        return DeadlineExceededError(
            StrCat("deadline expired while queued for admission (",
                   inflight_, " requests in flight, max ",
                   options_.max_inflight, ")"));
      }
      metrics_.Increment("requests_shed");
      return ResourceExhaustedError(
          StrCat("shed: ", inflight_, " requests in flight (max ",
                 options_.max_inflight, ")"));
    }
  }
  ++inflight_;
  metrics_.SetGauge("inflight", static_cast<std::int64_t>(inflight_));
  return Status::Ok();
}

void AnswerEngine::Release() {
  {
    std::lock_guard<std::mutex> lock(admission_mutex_);
    --inflight_;
    metrics_.SetGauge("inflight", static_cast<std::int64_t>(inflight_));
  }
  admission_cv_.notify_one();
}

std::size_t AnswerEngine::inflight() const {
  std::lock_guard<std::mutex> lock(admission_mutex_);
  return inflight_;
}

// Releases the admission slot on every exit path out of ServeAdmitted.
class AnswerEngine::AdmissionSlot {
 public:
  explicit AdmissionSlot(AnswerEngine* engine) : engine_(engine) {}
  AdmissionSlot(const AdmissionSlot&) = delete;
  AdmissionSlot& operator=(const AdmissionSlot&) = delete;
  ~AdmissionSlot() { engine_->Release(); }

 private:
  AnswerEngine* engine_;
};

StatusOr<AnswerResult> AnswerEngine::Serve(const UnionOfCqs& query,
                                           const ServeOptions& serve) {
  metrics_.Increment("queries_served");
  const CancelScope scope(serve.deadline, serve.cancel);
  TraceSpan serve_span(serve.trace, "serve");
  // One requests_by_status_<Code> tick per Serve, on every exit path —
  // the counter split tests (and dashboards) key on.
  const auto record_status = [this](StatusCode code) {
    metrics_.Increment(StrCat("requests_by_status_", StatusCodeName(code)));
  };

  Status admitted;
  {
    TraceSpan admit_span(serve_span.context(), "admit");
    admitted = Admit(scope);
    admit_span.AnnotateStatus(admitted);
  }
  if (!admitted.ok()) {
    serve_span.AnnotateStatus(admitted);
    record_status(admitted.code());
    if (admitted.code() == StatusCode::kDeadlineExceeded) {
      metrics_.Increment("deadline_exceeded");
    }
    return admitted;
  }
  AdmissionSlot slot(this);

  StatusOr<AnswerResult> result =
      ServeAdmitted(query, scope, serve_span.context(),
                    serve.target.value_or(options_.target),
                    serve.shed_optional_work);
  record_status(result.ok() ? StatusCode::kOk : result.status().code());
  if (!result.ok()) {
    serve_span.AnnotateStatus(result.status());
    if (result.status().code() == StatusCode::kDeadlineExceeded) {
      metrics_.Increment("deadline_exceeded");
    }
  }
  return result;
}

StatusOr<AnswerResult> AnswerEngine::ServeAdmitted(
    const UnionOfCqs& query, const CancelScope& scope,
    const TraceContext& trace, RewriteTarget target,
    bool shed_optional_work) {
  // Fast-fail a request that arrived already out of budget, and give
  // tests a hook that holds an admitted request in flight.
  OREW_RETURN_IF_ERROR(scope.Check("serve"));
  OREW_RETURN_IF_ERROR(CheckFaultPoint("serve.admit"));

  // Pin the program/data for the whole request: a concurrent AddTgd or
  // ReplaceDatabase swaps the engine's snapshot without disturbing this
  // rewrite/chase, and the cache entry written is keyed by the pinned
  // fingerprint. The backend holds only the latest data, so a
  // ReplaceDatabase that lands before evaluation ends makes the attempt
  // stale: it is served again against the new snapshot, and answers never
  // mix two states. An AddTgd alone leaves the attempt valid: the pinned
  // program's rewriting over unchanged data answers the pinned state.
  for (;;) {
    const Snapshot snap = CurrentSnapshot();
    AnswerResult result;
    StatusOr<std::shared_ptr<const CachedRewriting>> rewriting =
        RewriteInternal(query, scope, trace, &result.cache_hit, snap, target,
                        shed_optional_work);
    if (!rewriting.ok()) {
      // Graceful degradation: a rewrite that ran out of budget (deadline or
      // divergence cap) on a chase-terminating program can still be
      // answered exactly, by materialization.
      if (options_.chase_fallback && IsBudgetFailure(rewriting.status()) &&
          ChaseTerminates()) {
        TraceSpan chase_span(trace, "chase");
        chase_span.Attr("fallback", "chase");
        ChaseOptions chase_options = options_.fallback_chase;
        chase_options.cancel = scope;
        chase_options.trace = chase_span.context();
        StatusOr<std::vector<Tuple>> answers =
            CertainAnswersViaChase(query, *snap.program, *snap.db,
                                   chase_options);
        if (!answers.ok()) {
          chase_span.AnnotateStatus(answers.status());
          return answers.status();
        }
        result.answers = std::move(answers).value();
        result.served_via_chase = true;
        metrics_.Increment("fallback_chase_served");
        return result;
      }
      return rewriting.status();
    }
    const std::shared_ptr<const CachedRewriting> cached = *std::move(rewriting);
    result.rewriting = UcqOf(cached);
    result.datalog = DatalogOf(cached);

    // The per-request scope tightens the engine-wide eval options.
    const CancelScope eval_scope(
        Deadline::Earlier(options_.eval.cancel.deadline(), scope.deadline()),
        scope.token() != nullptr ? scope.token()
                                 : options_.eval.cancel.token());
    Status load_status;
    bool fresh = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      fresh = !backend_loading_ && data_generation_ == snap.data_generation;
      load_status = backend_load_status_;
    }
    if (!fresh) {
      // Wait out the data swap's backend load, then serve the new data.
      std::lock_guard<std::mutex> wait(update_mutex_);
      continue;
    }
    TraceSpan eval_span(trace, "eval");
    if (!load_status.ok()) {
      eval_span.AnnotateStatus(load_status);
      return load_status;
    }
    eval_span.Attr("backend", options_.backend->name());
    BackendExecOptions exec;
    exec.drop_tuples_with_nulls = options_.eval.drop_tuples_with_nulls;
    exec.cancel = eval_scope;
    exec.num_threads = options_.num_threads;
    exec.trace = eval_span.context();
    ScopedTimer timer(&metrics_, exec_ns_metric_);
    // Every entry holds a program, whatever the target: SQLite runs it as
    // WITH-CTE SQL, the in-memory backend materializes each aux predicate
    // once. A ucq entry also holds the union it was factored from, which
    // the in-memory backend answers faster (PrefersFlatUnions).
    StatusOr<std::vector<Tuple>> answers =
        result.rewriting != nullptr && options_.backend->PrefersFlatUnions()
            ? options_.backend->Execute(*result.rewriting, exec, &result.eval)
            : options_.backend->ExecuteDatalog(*result.datalog, exec,
                                               &result.eval);
    {
      // A data swap since the check above may have reloaded the backend
      // while it evaluated.
      std::lock_guard<std::mutex> lock(mutex_);
      if (data_generation_ != snap.data_generation) continue;
    }
    if (!answers.ok()) {
      eval_span.AnnotateStatus(answers.status());
      return answers.status();
    }
    result.answers = std::move(answers).value();
    metrics_.Increment(exec_metric_);
    eval_span.Attr("rows", static_cast<std::int64_t>(result.answers.size()));
    metrics_.Increment("eval_tuples_examined", result.eval.tuples_examined);
    metrics_.Increment("eval_matches", result.eval.matches);
    return result;
  }
}

StatusOr<ExplainResult> AnswerEngine::Explain(const UnionOfCqs& query,
                                              const Vocabulary& vocab,
                                              const ServeOptions& serve) {
  ExplainResult explain;
  explain.trace = std::make_shared<Trace>();
  const CancelScope scope(serve.deadline, serve.cancel);
  TraceSpan root(explain.trace.get(), "explain");

  const Snapshot snap = CurrentSnapshot();
  explain.target = serve.target.value_or(options_.target);
  StatusOr<std::shared_ptr<const CachedRewriting>> rewriting = RewriteInternal(
      query, scope, root.context(), &explain.cache_hit, snap, explain.target);
  if (!rewriting.ok()) {
    root.AnnotateStatus(rewriting.status());
    return rewriting.status();
  }
  const std::shared_ptr<const CachedRewriting> cached = *std::move(rewriting);
  explain.rewriting = UcqOf(cached);
  explain.datalog = DatalogOf(cached);

  {
    TraceSpan emit_span(root.context(), "emit");
    StatusOr<std::string> sql = DatalogToCteSql(*explain.datalog, vocab);
    if (!sql.ok()) {
      emit_span.AnnotateStatus(sql.status());
      root.AnnotateStatus(sql.status());
      return sql.status();
    }
    explain.sql = std::move(sql).value();
    emit_span.Attr("target", RewriteTargetName(explain.target));
    emit_span.Attr("sql_bytes",
                   static_cast<std::int64_t>(explain.sql.size()));
    if (explain.rewriting != nullptr) {
      emit_span.Attr("disjuncts", static_cast<std::int64_t>(
                                      explain.rewriting->disjuncts().size()));
    }
    emit_span.Attr("cte_count",
                   static_cast<std::int64_t>(explain.datalog->cte_count()));
  }
  return explain;
}

StatusOr<std::vector<Tuple>> AnswerEngine::CertainAnswers(
    const UnionOfCqs& query, const ServeOptions& serve) {
  OREW_ASSIGN_OR_RETURN(AnswerResult result, Serve(query, serve));
  return std::move(result.answers);
}

StatusOr<std::vector<Tuple>> AnswerEngine::CertainAnswers(
    const ConjunctiveQuery& query, const ServeOptions& serve) {
  return CertainAnswers(UnionOfCqs(query), serve);
}

RewriteCacheStats AnswerEngine::cache_stats() const {
  return cache_->stats();
}

}  // namespace ontorew
