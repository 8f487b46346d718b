// Parallel experiment runner: executes a batch of {workload, RunMode,
// SystemConfig} jobs on a thread pool (each sim::Run() is a pure function
// of its inputs, so jobs are embarrassingly parallel), memoizes results so
// a scalar baseline — or any cell shared between tables — is executed once
// per batch, and cross-checks every job with the differential-consistency
// oracle (sim/oracle.h). Emits the machine-readable BENCH_*.json next to
// the human-readable tables the bench drivers print.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/oracle.h"
#include "sim/system.h"

namespace dsa::sim {

struct BatchJob {
  Workload workload;
  RunMode mode = RunMode::kScalar;
  SystemConfig config;
  // Memoization trusts tags: two submissions with equal
  // {workload.name, workload_tag, mode, config_tag} are treated as the
  // same experiment and executed once. Drivers that vary the config or
  // the workload parameters must tag them apart.
  std::string config_tag;
  std::string workload_tag;
};

// "name[#wtag]" — groups the modes of one workload for the equivalence
// oracle (outputs must not depend on mode or config).
[[nodiscard]] std::string WorkloadKey(const BatchJob& job);
// "name[#wtag]@mode[/ctag]" — the memoization key.
[[nodiscard]] std::string JobKey(const BatchJob& job);

struct JobOutcome {
  std::string key;
  std::string workload_key;
  RunMode mode = RunMode::kScalar;
  std::string config_tag;
  // `repeats` executions of the same job; runs[0] is the canonical result,
  // the rest exist to feed the determinism oracle.
  std::vector<RunResult> runs;
  double wall_ms = 0;  // wall time of the first execution
  std::string error;   // non-empty if the job threw
  // "ok" once every repeat completed. Failure statuses, keyed on the
  // DsaError code that poisoned the cell (sim::CellStatusFor): "faulted"
  // (watchdog step budget, memory fault, retries exhausted), "crashed"
  // (isolated child died on a signal), "timeout" (wall-clock deadline),
  // "oom" (child memory cap), "skipped" (circuit breaker open) and
  // "cancelled" (graceful drain before execution). A failed cell never
  // aborts the batch — siblings keep running and the JSON records the
  // failure (docs/FAULTS.md, docs/RESILIENCE.md).
  std::string cell_status = "ok";
  // run_fn invocations, including retried attempts (>= runs.size()).
  std::uint64_t attempts = 0;
  // True when the outcome was restored from the cell store instead of
  // executed in this process (RunnerOptions::restore_fn).
  bool restored = false;

  [[nodiscard]] const RunResult& result() const { return runs.at(0); }
};

struct RunnerOptions {
  int jobs = 0;      // worker threads; <= 0 uses hardware_concurrency
  int repeats = 2;   // executions per distinct job; >= 2 checks determinism
  bool oracle = true;  // run invariant/determinism/equivalence checks
  // Watchdog: per-cell interpreter step budget. When > 0 it overrides each
  // job's SystemConfig::max_steps, so one runaway cell trips kStepLimit
  // and is marked "faulted" instead of hanging the whole batch.
  std::uint64_t max_cell_steps = 0;
  // Bounded retry with backoff for *transient* failures only
  // (DsaError::transient()); deterministic errors fail the cell at once.
  int max_retries = 2;
  int retry_backoff_ms = 10;  // doubles per attempt
  // Test seam: replaces sim::Run (instrumented or fault-injecting runs).
  // The resilience layer (src/resilience/supervisor.h) also hooks here to
  // wrap execution in a forked child with a deadline and circuit breaker.
  std::function<RunResult(const Workload&, RunMode, const SystemConfig&)>
      run_fn;
  // Resume seam: consulted once per distinct job at Submit time, outside
  // the runner's lock (it may hash the whole workload). Returning true
  // marks the cell done with the filled outcome (counted as restored)
  // instead of queueing it — the cell store (serve/cache.h, `--cache
  // DIR`) restores completed cells through this.
  std::function<bool(const BatchJob& job, JobOutcome& out)> restore_fn;
  // Completion hook: called from the worker thread right after a cell
  // finished executing (not for restored or drained cells). The cell
  // store publishes "ok" cells through this; it must not call back into
  // the runner.
  std::function<void(const JobOutcome&)> on_outcome;
  // Graceful-drain flag (owned by the caller, typically set from a
  // SIGINT/SIGTERM handler): once true, queued cells are marked
  // "cancelled" instead of executed; in-flight cells finish normally.
  std::atomic<bool>* drain = nullptr;
};

struct BatchReport {
  std::vector<oracle::Violation> violations;
  std::uint64_t distinct_jobs = 0;
  std::uint64_t executed_runs = 0;  // completed runs across all cells
  std::uint64_t faulted_cells = 0;  // cells with cell_status != "ok"
  std::uint64_t memo_hits = 0;      // submissions answered from the memo
  // Cells answered from the cell store (RunnerOptions::restore_fn) and
  // cells abandoned by a graceful drain, respectively. Restored cells
  // contribute their recorded runs to executed_runs so a resumed batch
  // reconciles exactly like the uninterrupted one.
  std::uint64_t restored_cells = 0;
  std::uint64_t cancelled_cells = 0;
  bool interrupted = false;  // the drain flag fired during the batch
  double wall_ms = 0;        // batch wall time (construction→Finish)
  [[nodiscard]] bool ok() const { return violations.empty(); }
};

// Executes one cell — `opts.repeats` runs of `opts.run_fn` under the
// step-budget watchdog override, the transient-only retry policy and the
// DsaError -> cell_status mapping — filling `out` (keys, runs, status,
// attempts, first-run wall time). The BatchRunner's workers execute
// through this, and so does the serving daemon (src/serve/daemon.cc), so
// a cell failing under dsa_serve is classified exactly like the same
// cell failing in a CLI sweep. `opts.run_fn` must be set.
void ExecuteCell(const BatchJob& job, const RunnerOptions& opts,
                 JobOutcome& out);

class BatchRunner {
 public:
  explicit BatchRunner(RunnerOptions opts = {});
  ~BatchRunner();

  BatchRunner(const BatchRunner&) = delete;
  BatchRunner& operator=(const BatchRunner&) = delete;

  // Enqueues the job (deduplicated by JobKey) and returns its key.
  std::string Submit(BatchJob job);
  std::string Submit(const Workload& wl, RunMode mode,
                     const SystemConfig& cfg = {},
                     const std::string& config_tag = "",
                     const std::string& workload_tag = "") {
    return Submit(BatchJob{wl, mode, cfg, config_tag, workload_tag});
  }

  // Submits the full four-system matrix (Table 4) for one workload under
  // one config; returns the keys in RunMode declaration order.
  std::array<std::string, 4> SubmitMatrix(const Workload& wl,
                                          const SystemConfig& cfg = {},
                                          const std::string& config_tag = "",
                                          const std::string& workload_tag = "");

  // Blocks until the job has run. Throws if the job threw.
  const JobOutcome& Get(const std::string& key);
  const RunResult& Result(const std::string& key) { return Get(key).result(); }
  // Blocks until the job has run and returns its outcome without
  // throwing, failed cells included — callers check cell_status. The
  // resilient rendering path (bench::ResultOrEmpty) uses this so one
  // crashed or cancelled cell cannot abort a whole table.
  const JobOutcome& Outcome(const std::string& key);

  // Barrier: waits for every submitted job, then runs the oracle sweep.
  [[nodiscard]] BatchReport Finish();

  // All outcomes, keyed by JobKey. Call after Finish().
  [[nodiscard]] const std::map<std::string, JobOutcome>& outcomes() const {
    return outcomes_;
  }

  [[nodiscard]] const RunnerOptions& options() const { return opts_; }

 private:
  struct Pending {
    BatchJob job;
    std::string key;
    bool done = false;
    JobOutcome outcome;
  };

  void WorkerLoop();
  void Execute(Pending& p);

  RunnerOptions opts_;
  std::chrono::steady_clock::time_point start_;

  std::mutex mu_;
  std::condition_variable queue_cv_;
  std::condition_variable done_cv_;
  std::map<std::string, std::unique_ptr<Pending>> jobs_;
  std::deque<Pending*> queue_;
  std::uint64_t in_flight_ = 0;
  std::uint64_t memo_hits_ = 0;
  std::uint64_t restored_cells_ = 0;
  bool interrupted_ = false;  // a worker observed the drain flag
  bool stop_ = false;

  std::vector<std::thread> workers_;
  std::map<std::string, JobOutcome> outcomes_;  // filled by Finish()
};

// Resilience census for the bench JSON, filled by the resilience layer
// (src/resilience/supervisor.h) — plain data here so sim does not depend
// on the resilience module.
struct BreakerCensusEntry {
  std::string workload;
  std::string state;  // "closed" | "open" | "half-open"
  std::uint64_t failures = 0;  // consecutive failures seen
  std::uint64_t trips = 0;     // closed->open transitions
  std::uint64_t skipped = 0;   // cells refused while open
};

struct BenchJsonExtras {
  // "complete" for a run that drained its whole queue, "interrupted" when
  // a graceful drain (SIGINT/SIGTERM) abandoned queued cells.
  std::string run_status = "complete";
  bool breaker_enabled = false;
  std::vector<BreakerCensusEntry> breaker;
  // Cell-store census (`--cache DIR`, serve/cache.h); an empty cache_dir
  // means no store was attached. Store or fsync failures mean some cells
  // were not made durable: the `cache` block then carries a typed
  // "[io-fault]" warning instead of silently claiming durability.
  std::string cache_dir;
  std::uint64_t cache_stores = 0;
  std::uint64_t cache_store_failures = 0;
  std::uint64_t cache_fsync_failures = 0;
};

// Writes the batch as machine-readable JSON (schema "dsa-bench-json/6"):
// per-job cycles, speedup over the workload's scalar baseline when one is
// in the batch, DSA stats (including the speculation guard's rollback and
// blacklist counters), energy breakdown, wall time, host simulation
// throughput (the `host` block), fault-injection report (`faults` block,
// armed runs only), per-cell status/attempts, the run_status/cache/
// breaker resilience census (docs/RESILIENCE.md), the `stream`/`gen`
// blocks of streaming and generated workloads, plus the oracle
// verdict. Failed cells appear with a minimal payload so a poisoned cell
// is visible, not silently dropped. The file is written to a temporary
// sibling and atomically renamed into place so an interrupted run never
// leaves a truncated report. Returns false if the file could not be
// written.
bool WriteBenchJson(const std::string& path, const std::string& bench_name,
                    const BatchRunner& runner, const BatchReport& report,
                    const BenchJsonExtras* extras = nullptr);

}  // namespace dsa::sim
