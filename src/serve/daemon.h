// The crash-tolerant simulation daemon (dsa_serve, docs/SERVING.md): a
// long-lived process on a Unix-domain socket that answers sweep requests
// from the persistent result cache when it can and simulates the misses
// on the worker pool the BatchRunner also runs on (sim/pool.h), with
// every failure classified through the DsaError taxonomy into a per-cell
// status — exactly the statuses a CLI sweep reports, because both paths
// execute through sim::ExecuteCell with run_fn wrapped by the same
// resilience::Supervisor.
//
// Crash tolerance story, layer by layer:
//   - a cell that SIGSEGVs/OOMs/overruns its deadline is contained by
//     the supervisor's fork isolate (--isolate) and poisons only its own
//     cell;
//   - a workload that fails repeatedly trips the supervisor's circuit
//     breaker and is failed fast instead of re-simulated;
//   - the daemon itself dying (kill -9) loses at most the in-flight
//     cells: completed cells were promoted to the persistent cache with
//     fsync + atomic rename, so a restarted daemon serves them
//     bit-identically (cache.h). An exception that escapes a cell task
//     ends the process through std::terminate and takes this path;
//   - SIGINT/SIGTERM drain gracefully: in-flight cells finish, cells not
//     yet started are "cancelled" by ExecuteCell, queued requests are
//     rejected with the typed "overload" status, exit code 3.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "resilience/supervisor.h"
#include "serve/cache.h"
#include "sim/pool.h"
#include "sim/runner.h"

namespace dsa::serve {

// Admission control for the request queue: a bounded total queue depth
// plus a per-client in-flight quota, so one greedy client cannot starve
// the socket for everyone else. Refusals are typed ("overload: ...")
// and become the response's `status` — the client exits 4, distinct
// from simulation failures.
class AdmissionControl {
 public:
  AdmissionControl(int queue_limit, int client_quota)
      : queue_limit_(queue_limit), client_quota_(client_quota) {}

  // Empty string = admitted (caller must pair with Done); otherwise the
  // typed refusal reason, starting with "overload:".
  [[nodiscard]] std::string Admit(const std::string& client);
  void Done(const std::string& client);
  [[nodiscard]] int depth() const;

 private:
  int queue_limit_;
  int client_quota_;
  mutable std::mutex mu_;
  int depth_ = 0;
  std::map<std::string, int> per_client_;
};

struct DaemonOptions {
  std::string socket_path;
  // Persistent result cache directory; empty disables the cache (every
  // request re-simulates).
  std::string cache_dir;
  int workers = 2;       // simulation worker threads
  int queue_limit = 8;   // admission: max requests queued + in flight
  int client_quota = 4;  // admission: max per client name
  // Deadline applied to requests that do not carry their own; 0 = none.
  // One past steady_clock's range is none too.
  std::uint64_t default_deadline_ms = 0;
  // Per-cell containment, the CLI's supervisor options: fork isolation
  // (--isolate), cell wall-clock deadline (--cell-deadline-ms), child
  // address-space cap (--mem-limit-mb) and the per-workload circuit
  // breaker (--breaker, --probe-after).
  resilience::SupervisorOptions resilience;
  // Executions per cell (>= 2 feeds the determinism oracle's data; the
  // daemon default is 1 — cache hits make repeats pointless).
  int repeats = 1;
  // Injectable host-I/O fault plan (resilience/iofault.h grammar, e.g.
  // "fsync-fail@0+;seed=7"), installed process-wide at Init. Empty = no
  // injection. Parse errors fail Init with a typed message.
  std::string io_fault_plan;
  // Per-read deadline on client connections (SO_RCVTIMEO): a slow-loris
  // client dripping header bytes is cut off instead of pinning a reader.
  // 0 = no deadline.
  std::uint64_t read_deadline_ms = 5000;
  // Boot-time cache scrub (cache.h Scrub): verify every entry before
  // serving, quarantining corruption up front. On by default; the flag
  // exists so tests can observe first-Load quarantine behaviour.
  bool scrub = true;
  // --- crash-drill hooks (tests/check.sh only) -----------------------
  // SIGKILL the daemon after this many executed (non-cached) cells, so
  // the kill-and-restart soak can die mid-sweep deterministically.
  std::uint64_t kill_after = 0;
  // abort() inside the isolated child of every cell whose JobKey
  // contains this substring (requires resilience.isolate) — exercises
  // the "crashed" classification end to end.
  std::string crash_cell;
};

// The daemon's sweep space — bench_matrix's batch (same sets, same
// modes, same config tags, default configs) deduplicated by JobKey and
// optionally narrowed by a case-insensitive substring filter. Exposed so
// the chaos soak (bench/bench_soak_serve.cc) can compute its reference
// truth from exactly the cells the daemon will serve.
[[nodiscard]] std::vector<sim::BatchJob> SweepJobs(const std::string& filter);

// The sweep space keyed once: one entry per cell of SweepJobs(""), in
// that order. The daemon builds it on its first sweep request, never at
// boot, and never changes it afterwards, so a request costs a substring
// scan instead of rebuilding every workload and re-digesting every cell.
struct JobTable {
  struct Entry {
    sim::BatchJob job;
    std::string lower_key;  // lowercased JobKey: what a filter matches
    CacheKey cache_key;     // KeyFor(job); cache_key.job_key is the JobKey
  };

  // Keys every cell with KeyFor on its own job, never with a digest
  // borrowed from a cell of the same workload name: the key is
  // content-addressed, and Article2Set builds its own instances of
  // Article3Set's names.
  [[nodiscard]] static JobTable Build();

  // The entries whose JobKeys SweepJobs(filter) returns, in its order
  // (the two share one filter rule).
  [[nodiscard]] std::vector<const Entry*> Match(const std::string& filter) const;

  std::vector<Entry> entries;
};

class Daemon {
 public:
  explicit Daemon(DaemonOptions opts);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Opens the cache, binds the socket, attaches the supervisor (which
  // installs the drain handler).
  [[nodiscard]] bool Init(std::string* error = nullptr);

  // Accept loop; returns the process exit code (3 after a graceful
  // SIGINT/SIGTERM drain — the only way Serve returns).
  [[nodiscard]] int Serve();

  [[nodiscard]] const DaemonOptions& options() const { return opts_; }

 private:
  struct Request {
    int fd = -1;
    std::string client;
    std::string kind;    // "sweep" | "ping" | "health"
    std::string filter;  // case-insensitive JobKey substring; "" = all
    std::uint64_t deadline_ms = 0;  // 0 = none
    std::chrono::steady_clock::time_point received;
  };

  void AcceptOne();
  // Runs on a short-lived reader thread, one per accepted connection:
  // bounded frame read (SO_RCVTIMEO per read), parse, admission,
  // enqueue. Keeping the read off the accept loop is what stops one
  // slow-loris client from stalling every other connection.
  void HandleConnection(int fd);
  void DispatcherMain();
  void ProcessRequest(Request& req);
  void RespondError(int fd, const std::string& status,
                    const std::string& error);
  // A cell is reported `cached` when it was restored from the cache.
  [[nodiscard]] std::string BuildResponse(
      const std::string& status, const std::string& error,
      const std::vector<sim::JobOutcome>& cells, bool health = false);
  // One cell, end to end: cache probe -> request deadline -> ExecuteCell
  // under the supervisor (drain, breaker, isolate) -> cache store ->
  // kill_after drill.
  void RunCell(const JobTable::Entry& entry,
               std::chrono::steady_clock::time_point deadline,
               sim::JobOutcome& out);

  // Latency of one sweep stage in fixed log2-microsecond buckets: bucket
  // b counts the samples in [2^(b-1), 2^b) us (bucket 0: under 1 us; the
  // last bucket also takes everything longer).
  struct StageHistogram {
    std::array<std::uint64_t, 40> buckets{};
    std::uint64_t count = 0;
    void Add(std::chrono::steady_clock::duration d);
    // Upper bound of the bucket holding the nearest-rank sample; 0 when
    // empty.
    [[nodiscard]] std::uint64_t PercentileUs(std::uint64_t p) const;
  };

  DaemonOptions opts_;
  ResultCache cache_;
  resilience::Supervisor supervisor_;
  // The options every cell executes with, attached to supervisor_ in
  // Init; crash_opts_ (attached only with --crash-cell) runs an inner
  // run_fn that aborts, for the cells the crash drill picks.
  sim::RunnerOptions run_opts_;
  sim::RunnerOptions crash_opts_;
  AdmissionControl admission_;
  int listen_fd_ = -1;

  std::mutex mu_;
  std::condition_variable queue_cv_;
  std::deque<Request> queue_;
  bool stopping_ = false;
  std::thread dispatcher_;

  // Detached reader threads in flight. Serve() refuses to tear the
  // daemon down until this drains to zero — a reader dereferences
  // `this`, so destruction must wait for it. Readers are capped
  // (kMaxReaders); connections over the cap are closed and counted.
  int readers_ = 0;                  // guarded by mu_
  std::condition_variable readers_cv_;
  static constexpr int kMaxReaders = 64;

  // Dispatcher-thread state, reported by `health`: the job table with
  // its build time (whole ms, rounded up; 0 until the first sweep), and
  // the sweep stages — queue (received until dequeued), cells (dequeued
  // until the last cell is done) and respond (build and send).
  JobTable table_;
  std::uint64_t table_build_ms_ = 0;
  StageHistogram queue_stage_;
  StageHistogram cells_stage_;
  StageHistogram respond_stage_;

  std::atomic<std::uint64_t> executed_cells_{0};  // kill_after counter
  std::atomic<std::uint64_t> requests_served_{0};
  // Hostile-client census, reported by the `health` request kind.
  std::atomic<std::uint64_t> corrupt_frames_{0};
  std::atomic<std::uint64_t> read_timeouts_{0};
  std::atomic<std::uint64_t> refused_connections_{0};

  // Runs the cells of a sweep. Last: destruction drains and joins it
  // while every member its tasks touch is still alive.
  sim::WorkerPool pool_;
};

}  // namespace dsa::serve
