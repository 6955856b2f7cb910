#ifndef ONTOREW_BACKEND_SQLITE_BACKEND_H_
#define ONTOREW_BACKEND_SQLITE_BACKEND_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "backend/backend.h"
#include "logic/vocabulary.h"

struct sqlite3;  // Opaque handle; <sqlite3.h> stays out of this header.

// The paper's architecture made real: the rewriting is a plain UCQ, so it
// can run on an actual SQL engine over the original extensional data.
// SqliteBackend loads a Database into system libsqlite3 (in-memory by
// default, or a file), executing the DDL from TableToSql and bulk
// inserts inside one transaction with prepared statements, and executes
// UCQs and factored Datalog programs as SQL through one path: a UCQ is
// the program with no aux predicates (see ExecuteDatalog).
//
// Value encoding (see DESIGN.md "Backends"): a constant is stored as its
// SqlConstantText — exactly the text the query emitter's literals
// contain, so emitted comparisons match stored values — and decoded back
// to its ConstantId through a map built at load time (constants first
// seen in a result row are interned into the shared Vocabulary). A
// labeled null N_i is stored as "\x1b:n<i>" (ESC prefix): SQL equality
// then equates nulls exactly when their ids match, which is Value
// identity — the same join semantics the in-memory evaluator uses. Two
// distinct constants whose SqlConstantText coincide (e.g. `a` and `"a"`)
// would be equated by SQL but not by the in-memory evaluator; Load
// rejects such databases with InvalidArgument, as it does constants whose
// text begins with the reserved ESC byte.
//
// Deadlines/cancellation map onto sqlite3_progress_handler: while a
// statement runs, the handler polls the request's CancelScope every few
// thousand VM instructions and interrupts the statement when it trips,
// surfacing DeadlineExceeded/Cancelled — never a partial answer set.
//
// One connection serves one statement at a time: Load and Execute
// serialize on an internal mutex (the engine above fans parallelism
// across requests, not within a connection).

namespace ontorew {

struct SqliteBackendOptions {
  // ":memory:" (the default) keeps the database private to the process;
  // any other value is a filesystem path.
  std::string path = ":memory:";
  // VM instructions between two progress-handler polls of the cancel
  // scope (SQLite's N for sqlite3_progress_handler).
  int progress_poll_instructions = 1000;

  // --- Transient-contention retry ------------------------------------------
  // SQLITE_BUSY / SQLITE_LOCKED mean another connection (file databases,
  // WAL checkpoints) holds a conflicting lock right now — a transient
  // condition, not a failure. Every prepare/step retries it with bounded
  // exponential backoff plus deterministic jitter; once busy_max_retries
  // attempts are exhausted the call surfaces kUnavailable (retryable on
  // the wire), never a generic Internal error. Backoff sleeps never
  // overshoot the request deadline. The "backend.busy" fault point
  // simulates a busy return on any armed trip, so tests and the soak
  // harness can inject contention bursts against in-memory databases.
  int busy_max_retries = 8;
  std::chrono::nanoseconds busy_initial_backoff = std::chrono::microseconds(200);
  std::chrono::nanoseconds busy_max_backoff = std::chrono::milliseconds(20);
  std::uint64_t busy_jitter_seed = 1;
};

class SqliteBackend : public Backend {
 public:
  // `vocab` must outlive the backend; decoding result rows may intern
  // constants it has not seen (values present in a loaded file database
  // but not in the vocabulary).
  explicit SqliteBackend(Vocabulary* vocab, SqliteBackendOptions options = {});
  ~SqliteBackend() override;
  SqliteBackend(const SqliteBackend&) = delete;
  SqliteBackend& operator=(const SqliteBackend&) = delete;

  std::string_view name() const override { return "sqlite"; }

  // Drops every table from a previous Load, recreates the schema for the
  // program's predicates plus every predicate with stored facts, and bulk
  // inserts all tuples in one transaction. Errors: Internal on SQLite
  // failures (including a failed open in the constructor),
  // InvalidArgument on ambiguous constant encodings (see above).
  Status Load(const TgdProgram& program,
              std::shared_ptr<const Database> db) override;

  using Backend::Load;

  // Runs the UCQ as the program with no aux predicates (see
  // ExecuteDatalog), so its SQL is UcqToSql's. Predicates the loaded
  // schema does not know are created empty first (a missing relation is
  // an empty relation, as in the in-memory evaluator). Errors:
  // FailedPrecondition before a successful Load, InvalidArgument on
  // invalid queries or ambiguous constant encodings,
  // DeadlineExceeded/Cancelled when options.cancel trips mid-statement,
  // an injected "backend.exec" fault, Unavailable when busy/locked
  // retries are exhausted (see busy_max_retries above), Internal on other
  // SQLite failures.
  StatusOr<std::vector<Tuple>> Execute(const UnionOfCqs& ucq,
                                       const BackendExecOptions& options,
                                       EvalStats* stats = nullptr) override;

  // Runs the program as WITH-CTE SQL (rewriting/cte_sql.h), never
  // materializing the flat union. Same errors as Execute; the "emit" span
  // records sql_bytes, cte_count, rules and, for a split union, chunks.
  // This is the one statement path: it emits the program under the
  // connection's compound-select limit and runs every statement.
  StatusOr<std::vector<Tuple>> ExecuteDatalog(
      const DatalogProgram& program, const BackendExecOptions& options,
      EvalStats* stats = nullptr) override;

  // Tuples stored across all tables (COUNT(*) sweep), for tests/benches.
  StatusOr<std::int64_t> StoredTuples();

  // Lowers SQLITE_LIMIT_COMPOUND_SELECT on this connection so tests can
  // exercise the output-union split and the nested CTE bodies without
  // building 500-rule programs.
  Status SetCompoundSelectLimitForTest(int limit);

  // Busy/locked attempts absorbed by backoff so far (injected or real) —
  // the soak harness asserts a contention burst lands here, not in failed
  // requests.
  std::int64_t busy_retries() const {
    return busy_retries_.load(std::memory_order_relaxed);
  }

 private:
  Status RunSql(const std::string& sql);
  // Sleeps the bounded-exponential backoff for 0-based busy `attempt`
  // (jittered, capped by busy_max_backoff and the scope's remaining
  // deadline). kUnavailable once attempts are exhausted;
  // DeadlineExceeded/Cancelled when `cancel` trips. Callers hold mutex_.
  Status WaitBusyBackoff(int attempt, const CancelScope& cancel,
                         std::string_view what);
  // Registers `id` as the decoding of its SqlConstantText; InvalidArgument
  // when a different constant already claimed that text.
  Status RegisterConstant(ConstantId id);
  // CREATE TABLE for `p` unless this connection already has it.
  Status EnsureTable(PredicateId p);
  // Registers the constants of one rule/CQ and creates missing tables for
  // its base predicates (aux predicates resolve to CTEs, not tables).
  // Callers hold mutex_.
  Status PrepareQuerySymbols(const std::vector<Term>& head,
                             const std::vector<Atom>& body);
  // Prepares and scans one emitted statement, appending its decoded rows
  // to *answers: busy-retried prepare, progress-handler cancellation,
  // EXPLAIN-plan capture on the "scan" span. Callers hold mutex_.
  Status Scan(const std::string& sql, int arity,
              const BackendExecOptions& options, EvalStats* stats,
              std::vector<Tuple>* answers);

  Vocabulary* vocab_;
  SqliteBackendOptions options_;
  sqlite3* conn_ = nullptr;
  Status open_status_;

  std::mutex mutex_;  // Serializes Load/Execute on the connection.
  std::uint64_t busy_rng_state_ = 1;     // Jitter state; guarded by mutex_.
  std::atomic<std::int64_t> busy_retries_{0};
  bool loaded_ = false;
  std::unordered_set<PredicateId> created_;  // Tables in the current schema.
  std::unordered_map<std::string, ConstantId> decode_;
};

}  // namespace ontorew

#endif  // ONTOREW_BACKEND_SQLITE_BACKEND_H_
