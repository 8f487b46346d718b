#include "resilience/supervisor.h"

#include <csignal>
#include <utility>

#include "sim/error.h"
#include "sim/system.h"

namespace dsa::resilience {

namespace {

std::atomic<bool> g_drain{false};

#if defined(__unix__) || defined(__APPLE__)
extern "C" void DrainSignalHandler(int /*sig*/) {
  // Async-signal-safe: one atomic store.
  g_drain.store(true, std::memory_order_relaxed);
}
#endif

}  // namespace

void InstallDrainHandler() {
#if defined(__unix__) || defined(__APPLE__)
  static bool installed = false;
  if (installed) return;
  installed = true;
  struct sigaction sa = {};
  sa.sa_handler = &DrainSignalHandler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  (void)::sigaction(SIGINT, &sa, nullptr);
  (void)::sigaction(SIGTERM, &sa, nullptr);
#endif
}

Supervisor::Supervisor(SupervisorOptions opts)
    : opts_(std::move(opts)),
      breaker_(opts_.breaker_threshold, opts_.breaker_probe_after) {}

void Supervisor::Attach(sim::RunnerOptions& ro) {
  if (opts_.install_signal_drain) InstallDrainHandler();
  ro.drain = &g_drain;

  // Wrap whatever run function the driver installed (sim::Run when none)
  // with the breaker gate and, when requested, the forked-child sandbox.
  auto inner = ro.run_fn;
  if (!inner) {
    inner = [](const sim::Workload& wl, sim::RunMode mode,
               const sim::SystemConfig& cfg) { return sim::Run(wl, mode, cfg); };
  }
  const bool isolate = opts_.isolate && IsolationAvailable();
  IsolateOptions iso;
  iso.deadline_ms = opts_.deadline_ms;
  iso.mem_limit_mb = opts_.mem_limit_mb;
  ro.run_fn = [this, inner, isolate, iso](const sim::Workload& wl,
                                          sim::RunMode mode,
                                          const sim::SystemConfig& cfg) {
    if (breaker_.enabled() && !breaker_.Allow(wl.name)) {
      throw sim::DsaError(sim::DsaErrorCode::kBreakerOpen,
                          "circuit breaker open for workload '" + wl.name +
                              "'");
    }
    try {
      sim::RunResult r =
          isolate ? RunIsolated([&] { return inner(wl, mode, cfg); }, iso,
                                wl.name + "@" + std::string(ToString(mode)))
                  : inner(wl, mode, cfg);
      breaker_.Record(wl.name, /*success=*/true);
      return r;
    } catch (...) {
      // Every failure reaches the breaker, not just sim::DsaError: an
      // exception escaping the cell any other way (bad_alloc in-process,
      // a test seam throwing std::runtime_error) used to skip Record —
      // and when the failed cell was a half-open probe, that wedged
      // probe_in_flight forever: the breaker never re-opened and every
      // sibling was skipped with no path back to closed.
      breaker_.Record(wl.name, /*success=*/false);
      throw;
    }
  };
}

sim::BenchJsonExtras Supervisor::Extras(const sim::BatchReport& report) const {
  sim::BenchJsonExtras extras;
  extras.run_status =
      (report.interrupted || DrainRequested()) ? "interrupted" : "complete";
  extras.breaker_enabled = breaker_.enabled();
  if (breaker_.enabled()) extras.breaker = breaker_.Census();
  return extras;
}

std::atomic<bool>& Supervisor::DrainFlag() { return g_drain; }

bool Supervisor::DrainRequested() {
  return g_drain.load(std::memory_order_relaxed);
}

}  // namespace dsa::resilience
