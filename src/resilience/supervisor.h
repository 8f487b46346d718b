// Supervisor: the one object that decides what happens to a cell around
// sim::ExecuteCell, for the bench drivers' BatchRunner and the serving
// daemon (src/serve/daemon.cc) alike. It composes the resilience pieces
// (docs/RESILIENCE.md) behind the runner's existing seams:
//   - process isolation -> wraps RunnerOptions::run_fn (isolate.h)
//   - circuit breaker   -> fail-fast inside the wrapped run_fn; it gates
//                          and records every attempt (breaker.h)
//   - graceful drain    -> SIGINT/SIGTERM set a process-wide flag that
//     ExecuteCell polls; in-flight cells finish, queued cells become
//     "cancelled" and the JSON reports run_status "interrupted".
// Persistence is not a supervisor piece: the cell store (`--cache DIR`,
// serve/cache.h) attaches to restore_fn/on_outcome on its own, and every
// entry it publishes is already fsynced, so a drain has nothing to flush.
#pragma once

#include <atomic>
#include <cstdint>

#include "resilience/breaker.h"
#include "resilience/isolate.h"
#include "sim/runner.h"

namespace dsa::resilience {

struct SupervisorOptions {
  // Process isolation (--isolate): run each cell in a forked child.
  bool isolate = false;
  // Per-cell wall-clock deadline / child memory cap; require isolate.
  std::uint64_t deadline_ms = 0;
  std::uint64_t mem_limit_mb = 0;
  // Circuit breaker (--breaker N): open after N consecutive failures of
  // one workload; 0 disables.
  int breaker_threshold = 0;
  int breaker_probe_after = 2;

  [[nodiscard]] bool any() const {
    return isolate || breaker_threshold > 0 || deadline_ms > 0 ||
           mem_limit_mb > 0;
  }
};

class Supervisor {
 public:
  explicit Supervisor(SupervisorOptions opts);

  // Installs the resilience seams into the runner options and the
  // SIGINT/SIGTERM drain handler (once per process; the handler sets
  // DrainFlag(), an async-signal-safe atomic store). Call from one thread
  // before any cell runs: before constructing the BatchRunner, or in
  // Daemon::Init. The existing run_fn (test seam / fault injection) keeps
  // working — it becomes the inner function the isolation wrapper
  // executes. Attaching several RunnerOptions shares one breaker.
  void Attach(sim::RunnerOptions& ro);

  // Census for WriteBenchJson, after runner.Finish().
  [[nodiscard]] sim::BenchJsonExtras Extras(
      const sim::BatchReport& report) const;

  [[nodiscard]] const CircuitBreaker& breaker() const { return breaker_; }
  [[nodiscard]] const SupervisorOptions& options() const { return opts_; }

  // The process-wide drain flag (set by SIGINT/SIGTERM once a supervisor
  // has attached, or manually by tests).
  [[nodiscard]] static std::atomic<bool>& DrainFlag();
  [[nodiscard]] static bool DrainRequested();

 private:
  SupervisorOptions opts_;
  CircuitBreaker breaker_;
};

}  // namespace dsa::resilience
