// Structured error taxonomy for the simulation harness. Everything the
// System boundary can throw is a DsaError carrying a machine-readable
// code plus the execution context a caller needs to act on it (workload,
// loop PC when the failure happened inside a takeover, interpreter step
// count) — instead of a bare accessor message escaping from Memory or the
// run loop. The BatchRunner keys its retry/watchdog policy on the code
// (only kTransient is retried; kStepLimit marks a runaway cell).
#pragma once

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>

namespace dsa::sim {

enum class DsaErrorCode : std::uint8_t {
  kStepLimit,      // run loop exceeded SystemConfig::max_steps (watchdog)
  kMemOutOfRange,  // memory access outside the workload's address space
  kTransient,      // retryable harness failure (runner backoff applies)
  kInternal,       // invariant violation inside the simulator itself
  // Process-level failures surfaced by the resilience layer
  // (src/resilience, docs/RESILIENCE.md). The first three are only raised
  // for cells executed under --isolate, where a hard crash is contained
  // in a forked child.
  kCrash,        // child died on a signal (SIGSEGV/SIGABRT/...) or bad exit
  kDeadline,     // cell exceeded its wall-clock deadline and was killed
  kOutOfMemory,  // child hit its memory cap (rlimit -> bad_alloc) or OOM
  kBreakerOpen,  // per-workload circuit breaker refused the cell
};

[[nodiscard]] constexpr std::string_view ToString(DsaErrorCode c) {
  switch (c) {
    case DsaErrorCode::kStepLimit: return "step-limit";
    case DsaErrorCode::kMemOutOfRange: return "mem-out-of-range";
    case DsaErrorCode::kTransient: return "transient";
    case DsaErrorCode::kInternal: return "internal";
    case DsaErrorCode::kCrash: return "crash";
    case DsaErrorCode::kDeadline: return "deadline";
    case DsaErrorCode::kOutOfMemory: return "oom";
    case DsaErrorCode::kBreakerOpen: return "breaker-open";
  }
  return "?";
}

// The per-cell status string the bench JSON reports for a cell poisoned by
// this error code (docs/BENCH_SCHEMA.md, schema dsa-bench-json/6).
[[nodiscard]] constexpr std::string_view CellStatusFor(DsaErrorCode c) {
  switch (c) {
    case DsaErrorCode::kCrash: return "crashed";
    case DsaErrorCode::kDeadline: return "timeout";
    case DsaErrorCode::kOutOfMemory: return "oom";
    case DsaErrorCode::kBreakerOpen: return "skipped";
    default: return "faulted";
  }
}

class DsaError : public std::runtime_error {
 public:
  struct Context {
    std::string workload;
    std::uint32_t loop_pc = 0;  // 0 = not inside a covered loop
    std::uint64_t step = 0;     // interpreter steps executed when thrown
  };

  DsaError(DsaErrorCode code, const std::string& detail, Context ctx)
      : std::runtime_error(Format(code, detail, ctx)),
        code_(code),
        ctx_(std::move(ctx)) {}
  DsaError(DsaErrorCode code, const std::string& detail)
      : DsaError(code, detail, Context{}) {}

  [[nodiscard]] DsaErrorCode code() const { return code_; }
  [[nodiscard]] const std::string& workload() const { return ctx_.workload; }
  [[nodiscard]] std::uint32_t loop_pc() const { return ctx_.loop_pc; }
  [[nodiscard]] std::uint64_t step() const { return ctx_.step; }
  // Only transient failures are worth a bounded retry; everything else is
  // deterministic and would fail identically again.
  [[nodiscard]] bool transient() const {
    return code_ == DsaErrorCode::kTransient;
  }

 private:
  static std::string Format(DsaErrorCode code, const std::string& detail,
                            const Context& ctx) {
    std::string msg = "[";
    msg += ToString(code);
    msg += "]";
    if (!ctx.workload.empty()) {
      msg += " workload=";
      msg += ctx.workload;
    }
    if (ctx.loop_pc != 0) {
      char pc[16];
      std::snprintf(pc, sizeof(pc), "0x%x", ctx.loop_pc);
      msg += " loop=";
      msg += pc;
    }
    if (ctx.step != 0) {
      msg += " step=";
      msg += std::to_string(ctx.step);
    }
    msg += ": ";
    msg += detail;
    return msg;
  }

  DsaErrorCode code_;
  Context ctx_;
};

}  // namespace dsa::sim
