#include "backend/sqlite_backend.h"

#include <sqlite3.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/fault_point.h"
#include "base/strings.h"
#include "logic/atom.h"
#include "rewriting/cte_sql.h"
#include "rewriting/datalog.h"
#include "rewriting/sql.h"

namespace ontorew {
namespace {

// Stored form of labeled null N_i: "\x1b:n<i>". The ESC byte cannot open
// a parsed constant (Load rejects it), so nulls and constants never
// collide in a column.
constexpr char kNullPrefix[] = "\x1b:n";
constexpr std::size_t kNullPrefixLen = 3;

std::string EncodeValue(Value value, const Vocabulary& vocab) {
  if (value.is_null()) return StrCat(kNullPrefix, value.id());
  return SqlConstantText(value.id(), vocab);
}

bool IsNullEncoding(std::string_view text) {
  return text.size() > kNullPrefixLen &&
         text.compare(0, kNullPrefixLen, kNullPrefix) == 0;
}

Status SqliteError(sqlite3* conn, std::string_view what) {
  return InternalError(
      StrCat("sqlite: ", what, ": ",
             conn != nullptr ? sqlite3_errmsg(conn) : "no connection"));
}

// Busy/locked are transient lock contention, retried with backoff; the
// low byte strips SQLite's extended result-code detail.
bool IsBusyRc(int rc) {
  const int primary = rc & 0xff;
  return primary == SQLITE_BUSY || primary == SQLITE_LOCKED;
}

// splitmix64 step for backoff jitter (matches base/rng.h).
std::uint64_t NextJitter(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// One finalize on every exit path.
class StmtGuard {
 public:
  explicit StmtGuard(sqlite3_stmt* stmt) : stmt_(stmt) {}
  StmtGuard(const StmtGuard&) = delete;
  StmtGuard& operator=(const StmtGuard&) = delete;
  ~StmtGuard() { sqlite3_finalize(stmt_); }

 private:
  sqlite3_stmt* stmt_;
};

// Polls the request's cancel scope from SQLite's VM; nonzero interrupts
// the running statement.
int ProgressPoll(void* scope) {
  return static_cast<const CancelScope*>(scope)->Check("sqlite.exec").ok()
             ? 0
             : 1;
}

// Uninstalls the progress handler on every exit path.
class ProgressGuard {
 public:
  ProgressGuard(sqlite3* conn, const CancelScope& scope, int instructions)
      : conn_(conn), installed_(scope.active()) {
    if (installed_) {
      sqlite3_progress_handler(conn_, instructions, &ProgressPoll,
                               const_cast<CancelScope*>(&scope));
    }
  }
  ProgressGuard(const ProgressGuard&) = delete;
  ProgressGuard& operator=(const ProgressGuard&) = delete;
  ~ProgressGuard() {
    if (installed_) sqlite3_progress_handler(conn_, 0, nullptr, nullptr);
  }

 private:
  sqlite3* conn_;
  bool installed_;
};

}  // namespace

SqliteBackend::SqliteBackend(Vocabulary* vocab, SqliteBackendOptions options)
    : vocab_(vocab), options_(std::move(options)),
      busy_rng_state_(options_.busy_jitter_seed) {
  const int rc =
      sqlite3_open_v2(options_.path.c_str(), &conn_,
                      SQLITE_OPEN_READWRITE | SQLITE_OPEN_CREATE |
                          SQLITE_OPEN_FULLMUTEX,
                      nullptr);
  if (rc != SQLITE_OK) {
    open_status_ = InternalError(StrCat(
        "sqlite: cannot open '", options_.path, "': ",
        conn_ != nullptr ? sqlite3_errmsg(conn_) : sqlite3_errstr(rc)));
    sqlite3_close(conn_);
    conn_ = nullptr;
  }
}

SqliteBackend::~SqliteBackend() { sqlite3_close(conn_); }

Status SqliteBackend::WaitBusyBackoff(int attempt, const CancelScope& cancel,
                                      std::string_view what) {
  busy_retries_.fetch_add(1, std::memory_order_relaxed);
  if (attempt >= options_.busy_max_retries) {
    return UnavailableError(
        StrCat("sqlite: ", what, ": database busy after ", attempt + 1,
               " attempts — retry with backoff"));
  }
  OREW_RETURN_IF_ERROR(cancel.Check("sqlite.busy-backoff"));
  // Exponential base delay, then full jitter over [delay/2, delay]: the
  // herd that collided once must not collide again in lockstep.
  std::chrono::nanoseconds delay = options_.busy_initial_backoff;
  for (int i = 0; i < attempt && delay < options_.busy_max_backoff; ++i) {
    delay *= 2;
  }
  delay = std::min(delay, options_.busy_max_backoff);
  const std::uint64_t half =
      static_cast<std::uint64_t>(delay.count() / 2) + 1;
  delay = std::chrono::nanoseconds(
      delay.count() / 2 +
      static_cast<std::int64_t>(NextJitter(&busy_rng_state_) % half));
  // Never sleep past the request's own deadline.
  if (!cancel.deadline().is_infinite()) {
    const auto remaining = cancel.deadline().remaining();
    if (remaining < delay) delay = remaining;
  }
  if (delay > std::chrono::nanoseconds::zero()) {
    std::this_thread::sleep_for(delay);
  }
  return cancel.Check("sqlite.busy-backoff");
}

Status SqliteBackend::RunSql(const std::string& sql) {
  int attempt = 0;
  for (;;) {
    char* error = nullptr;
    const int rc = sqlite3_exec(conn_, sql.c_str(), nullptr, nullptr, &error);
    if (rc == SQLITE_OK) {
      sqlite3_free(error);
      return Status::Ok();
    }
    Status status = InternalError(
        StrCat("sqlite: ", error != nullptr ? error : "unknown error",
               " while executing: ", sql));
    sqlite3_free(error);
    if (!IsBusyRc(rc)) return status;
    OREW_RETURN_IF_ERROR(WaitBusyBackoff(attempt++, CancelScope(), "exec"));
  }
}

Status SqliteBackend::RegisterConstant(ConstantId id) {
  std::string text = SqlConstantText(id, *vocab_);
  if (!text.empty() && text.front() == kNullPrefix[0]) {
    return InvalidArgumentError(
        StrCat("constant '", vocab_->ConstantName(id),
               "' begins with the byte reserved for labeled-null encoding"));
  }
  auto [it, inserted] = decode_.emplace(std::move(text), id);
  if (!inserted && it->second != id) {
    return InvalidArgumentError(StrCat(
        "constants '", vocab_->ConstantName(it->second), "' and '",
        vocab_->ConstantName(id),
        "' have identical SQL encodings ('", it->first,
        "'): SQL would equate values the in-memory evaluator distinguishes"));
  }
  return Status::Ok();
}

Status SqliteBackend::EnsureTable(PredicateId p) {
  if (created_.count(p) > 0) return Status::Ok();
  OREW_RETURN_IF_ERROR(RunSql(TableToSql(p, *vocab_)));
  created_.insert(p);
  return Status::Ok();
}

Status SqliteBackend::Load(const TgdProgram& program,
                           std::shared_ptr<const Database> data) {
  OREW_RETURN_IF_ERROR(open_status_);
  const Database& db = *data;
  std::lock_guard<std::mutex> lock(mutex_);
  loaded_ = false;

  // Replace, don't merge: drop the previous schema entirely.
  for (PredicateId p : created_) {
    OREW_RETURN_IF_ERROR(RunSql(StrCat(
        "DROP TABLE IF EXISTS ", SqlIdentifier(vocab_->PredicateName(p)),
        ";")));
  }
  created_.clear();
  decode_.clear();

  std::vector<PredicateId> predicates = program.Predicates();
  for (PredicateId p : db.PredicatesPresent()) predicates.push_back(p);
  std::sort(predicates.begin(), predicates.end());
  predicates.erase(std::unique(predicates.begin(), predicates.end()),
                   predicates.end());

  OREW_RETURN_IF_ERROR(RunSql("BEGIN;"));
  Status status = Status::Ok();
  for (PredicateId p : predicates) {
    status = EnsureTable(p);
    if (!status.ok()) break;
    const Relation* relation = db.Find(p);
    if (relation == nullptr || relation->size() == 0) continue;

    std::string insert = StrCat(
        "INSERT INTO ", SqlIdentifier(vocab_->PredicateName(p)), " VALUES (");
    std::vector<std::string> holes;
    for (int j = 0; j < relation->arity(); ++j) holes.push_back("?");
    if (holes.empty()) holes.push_back("1");  // 0-ary sentinel column.
    insert += StrJoin(holes, ", ");
    insert += ");";
    sqlite3_stmt* stmt = nullptr;
    for (int attempt = 0;;) {
      const int rc =
          sqlite3_prepare_v2(conn_, insert.c_str(), -1, &stmt, nullptr);
      if (rc == SQLITE_OK) break;
      status = IsBusyRc(rc)
                   ? WaitBusyBackoff(attempt++, CancelScope(), "prepare")
                   : SqliteError(conn_, StrCat("prepare: ", insert));
      if (!status.ok()) break;
    }
    if (!status.ok()) break;
    StmtGuard guard(stmt);
    for (const Tuple& tuple : relation->tuples()) {
      for (int j = 0; j < relation->arity(); ++j) {
        Value v = tuple[static_cast<std::size_t>(j)];
        if (v.is_constant()) {
          status = RegisterConstant(v.id());
          if (!status.ok()) break;
        }
        std::string text = EncodeValue(v, *vocab_);
        if (sqlite3_bind_text(stmt, j + 1, text.data(),
                              static_cast<int>(text.size()),
                              SQLITE_TRANSIENT) != SQLITE_OK) {
          status = SqliteError(conn_, "bind");
          break;
        }
      }
      if (!status.ok()) break;
      // Busy on an insert step retries the same row after a reset; the
      // surrounding transaction keeps the load all-or-nothing.
      for (int attempt = 0;;) {
        const int rc = sqlite3_step(stmt);
        if (rc == SQLITE_DONE) break;
        status = IsBusyRc(rc)
                     ? WaitBusyBackoff(attempt++, CancelScope(), "insert step")
                     : SqliteError(conn_, "insert step");
        if (!status.ok()) break;
        sqlite3_reset(stmt);
      }
      if (!status.ok()) break;
      sqlite3_reset(stmt);
    }
    if (!status.ok()) break;
  }
  if (!status.ok()) {
    (void)RunSql("ROLLBACK;");
    return status;
  }
  OREW_RETURN_IF_ERROR(RunSql("COMMIT;"));
  loaded_ = true;
  return Status::Ok();
}

StatusOr<std::vector<Tuple>> SqliteBackend::Execute(
    const UnionOfCqs& ucq, const BackendExecOptions& options,
    EvalStats* stats) {
  // A UCQ is the program with no aux predicates; its SQL is UcqToSql's.
  return ExecuteDatalog(UnfactoredProgram(ucq), options, stats);
}

StatusOr<std::vector<Tuple>> SqliteBackend::ExecuteDatalog(
    const DatalogProgram& program, const BackendExecOptions& options,
    EvalStats* stats) {
  OREW_RETURN_IF_ERROR(open_status_);
  std::lock_guard<std::mutex> lock(mutex_);
  if (!loaded_) {
    return FailedPreconditionError("SqliteBackend: Execute before Load");
  }
  OREW_RETURN_IF_ERROR(options.cancel.Check("sqlite.exec"));
  OREW_RETURN_IF_ERROR(CheckFaultPoint("backend.exec"));

  // SQLite refuses compound SELECTs wider than SQLITE_LIMIT_COMPOUND_SELECT
  // (500 by default; university_q3's flat union has 1000 arms), so the
  // emitter nests wide CTE bodies and splits a wide output union into
  // statements. Any statement failure discards every answer.
  TraceSpan emit_span(options.trace, "emit");
  StatusOr<std::vector<std::string>> sqls = DatalogToCteSqlStatements(
      program, *vocab_, sqlite3_limit(conn_, SQLITE_LIMIT_COMPOUND_SELECT, -1));
  if (!sqls.ok()) {
    emit_span.AnnotateStatus(sqls.status());
    return sqls.status();
  }
  std::int64_t sql_bytes = 0;
  for (const std::string& sql : *sqls) sql_bytes += std::ssize(sql);
  emit_span.Attr("sql_bytes", sql_bytes);
  emit_span.Attr("cte_count", static_cast<std::int64_t>(program.cte_count()));
  emit_span.Attr("rules", static_cast<std::int64_t>(program.total_rules()));
  if (sqls->size() > 1) {
    emit_span.Attr("chunks", static_cast<std::int64_t>(sqls->size()));
  }
  emit_span.End();

  // Constants that appear only in the query still need a decoding (a
  // constant answer term comes back as a result cell), and their
  // encodings must not collide with loaded ones.
  for (const DatalogRule& rule : program.output) {
    OREW_RETURN_IF_ERROR(PrepareQuerySymbols(rule.head, rule.body));
  }
  for (const DatalogAux& aux : program.aux) {
    for (const DatalogRule& rule : aux.rules) {
      OREW_RETURN_IF_ERROR(PrepareQuerySymbols(rule.head, rule.body));
    }
  }

  std::vector<Tuple> answers;
  for (const std::string& sql : *sqls) {
    OREW_RETURN_IF_ERROR(Scan(sql, program.arity, options, stats, &answers));
  }
  // SQL's UNION already deduplicates *encodings* within a statement; sort
  // and deduplicate in Value order across statements so the result is
  // byte-identical to the in-memory path.
  std::sort(answers.begin(), answers.end());
  answers.erase(std::unique(answers.begin(), answers.end()), answers.end());
  return answers;
}

Status SqliteBackend::PrepareQuerySymbols(const std::vector<Term>& head,
                                          const std::vector<Atom>& body) {
  for (Term t : head) {
    if (t.is_constant()) OREW_RETURN_IF_ERROR(RegisterConstant(t.id()));
  }
  for (const Atom& atom : body) {
    // Aux predicates are CTEs, not tables; only base predicates the
    // loaded schema has not seen need an empty relation.
    if (!IsAuxPredicate(atom.predicate())) {
      OREW_RETURN_IF_ERROR(EnsureTable(atom.predicate()));
    }
    for (Term t : atom.terms()) {
      if (t.is_constant()) OREW_RETURN_IF_ERROR(RegisterConstant(t.id()));
    }
  }
  return Status::Ok();
}

Status SqliteBackend::Scan(const std::string& sql, int arity,
                           const BackendExecOptions& options,
                           EvalStats* stats, std::vector<Tuple>* answers) {
  sqlite3_stmt* stmt = nullptr;
  for (int attempt = 0;;) {
    const int rc = sqlite3_prepare_v2(conn_, sql.c_str(), -1, &stmt, nullptr);
    if (rc == SQLITE_OK) break;
    if (!IsBusyRc(rc)) return SqliteError(conn_, StrCat("prepare: ", sql));
    OREW_RETURN_IF_ERROR(
        WaitBusyBackoff(attempt++, options.cancel, "prepare"));
  }
  StmtGuard guard(stmt);
  ProgressGuard progress(conn_, options.cancel,
                         options_.progress_poll_instructions);

  TraceSpan scan_span(options.trace, "scan");
  if (scan_span.enabled()) {
    // Attach SQLite's own plan to the scan span, one "plan" attribute per
    // EXPLAIN QUERY PLAN row — the difference between "SCAN t" and
    // "SEARCH t USING INDEX" is exactly what a slow traced request needs.
    const std::string explain_sql = StrCat("EXPLAIN QUERY PLAN ", sql);
    sqlite3_stmt* plan = nullptr;
    if (sqlite3_prepare_v2(conn_, explain_sql.c_str(), -1, &plan, nullptr) ==
        SQLITE_OK) {
      StmtGuard plan_guard(plan);
      while (sqlite3_step(plan) == SQLITE_ROW) {
        const unsigned char* detail = sqlite3_column_text(plan, 3);
        scan_span.Attr(
            "plan",
            detail != nullptr ? reinterpret_cast<const char*>(detail) : "");
      }
    }
  }

  const std::size_t first_row = answers->size();
  std::int64_t rows_matched = 0;
  // The scan restarts from scratch on SQLITE_BUSY/SQLITE_LOCKED (this
  // statement's rows dropped, statement reset): a busy retry must stay
  // all-or-nothing, the same contract cancellation has. An armed
  // "backend.busy" fault trips exactly like a busy return from the
  // statement.
  for (int busy_attempt = 0;;) {
    answers->resize(first_row);
    rows_matched = 0;
    bool busy = !CheckFaultPoint("backend.busy").ok();
    for (; !busy;) {
      const int rc = sqlite3_step(stmt);
      if (rc == SQLITE_DONE) break;
      if (IsBusyRc(rc)) {
        busy = true;
        break;
      }
      if (rc == SQLITE_INTERRUPT) {
        Status tripped = options.cancel.Check("sqlite.exec");
        Status interrupted =
            tripped.ok() ? CancelledError("sqlite: statement interrupted")
                         : tripped;
        scan_span.AnnotateStatus(interrupted);
        return interrupted;
      }
      if (rc != SQLITE_ROW) {
        Status step_error = SqliteError(conn_, "step");
        scan_span.AnnotateStatus(step_error);
        return step_error;
      }
      ++rows_matched;
      Tuple tuple;
      tuple.reserve(static_cast<std::size_t>(arity));
      bool has_null = false;
      for (int j = 0; j < arity; ++j) {
        const unsigned char* raw = sqlite3_column_text(stmt, j);
        std::string text(raw != nullptr
                             ? reinterpret_cast<const char*>(raw)
                             : "");
        if (IsNullEncoding(text)) {
          has_null = true;
          tuple.push_back(Value::Null(static_cast<std::int32_t>(
              std::atoi(text.c_str() + kNullPrefixLen))));
          continue;
        }
        auto it = decode_.find(text);
        ConstantId id =
            it != decode_.end() ? it->second : vocab_->InternConstant(text);
        if (it == decode_.end()) decode_.emplace(std::move(text), id);
        tuple.push_back(Value::Constant(id));
      }
      if (has_null && options.drop_tuples_with_nulls) continue;
      answers->push_back(std::move(tuple));
    }
    if (!busy) break;
    Status backoff = WaitBusyBackoff(busy_attempt++, options.cancel, "step");
    if (!backoff.ok()) {
      scan_span.AnnotateStatus(backoff);
      return backoff;
    }
    sqlite3_reset(stmt);
  }
  if (stats != nullptr) stats->matches += rows_matched;
  const int fullscan_steps =
      sqlite3_stmt_status(stmt, SQLITE_STMTSTATUS_FULLSCAN_STEP, 0);
  if (stats != nullptr) stats->tuples_examined += fullscan_steps;
  scan_span.Attr("fullscan_steps", static_cast<std::int64_t>(fullscan_steps));
  scan_span.Attr("rows",
                 static_cast<std::int64_t>(answers->size() - first_row));
  return Status::Ok();
}

StatusOr<std::int64_t> SqliteBackend::StoredTuples() {
  OREW_RETURN_IF_ERROR(open_status_);
  std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t total = 0;
  for (PredicateId p : created_) {
    std::string sql = StrCat("SELECT COUNT(*) FROM ",
                             SqlIdentifier(vocab_->PredicateName(p)), ";");
    sqlite3_stmt* stmt = nullptr;
    if (sqlite3_prepare_v2(conn_, sql.c_str(), -1, &stmt, nullptr) !=
        SQLITE_OK) {
      return SqliteError(conn_, StrCat("prepare: ", sql));
    }
    StmtGuard guard(stmt);
    if (sqlite3_step(stmt) != SQLITE_ROW) {
      return SqliteError(conn_, "count step");
    }
    total += sqlite3_column_int64(stmt, 0);
  }
  return total;
}

Status SqliteBackend::SetCompoundSelectLimitForTest(int limit) {
  OREW_RETURN_IF_ERROR(open_status_);
  std::lock_guard<std::mutex> lock(mutex_);
  sqlite3_limit(conn_, SQLITE_LIMIT_COMPOUND_SELECT, limit);
  return Status::Ok();
}

}  // namespace ontorew
