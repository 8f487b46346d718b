// Process isolation for batch cells: executes one simulation in a forked
// child and ships the RunResult back over a CRC-checked, length-prefixed
// pipe, so a hard crash (SIGSEGV/SIGABRT), a runaway loop or an
// out-of-memory condition in one cell is classified into the DsaError
// taxonomy instead of killing the whole batch. Opt-in via --isolate
// (docs/RESILIENCE.md).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "sim/system.h"

namespace dsa::resilience {

struct IsolateOptions {
  // Wall-clock deadline for the child; 0 = none. On expiry the child is
  // SIGKILLed and the cell throws DsaError{kDeadline} ("timeout" status).
  std::uint64_t deadline_ms = 0;
  // Address-space cap (RLIMIT_AS) applied inside the child; 0 = none.
  // Allocation failure beyond the cap surfaces as DsaError{kOutOfMemory}.
  // Do not combine with ASan/TSan builds — the sanitizers reserve huge
  // shadow mappings that an address-space cap would break.
  std::uint64_t mem_limit_mb = 0;
};

// Runs `fn` in a forked child and returns its result. `label` names the
// cell in error messages. Throws sim::DsaError with code:
//   kCrash       — child died on a signal or exited without a result
//   kDeadline    — deadline_ms exceeded (child SIGKILLed)
//   kOutOfMemory — child reported allocation failure under its cap
// or rethrows the child's own DsaError (code + message preserved) when
// the simulation itself failed deterministically.
//
// Note: the child's structured trace (RunResult::trace) is not carried
// across the pipe — isolated runs report trace aggregates as absent.
[[nodiscard]] sim::RunResult RunIsolated(
    const std::function<sim::RunResult()>& fn, const IsolateOptions& opts,
    const std::string& label);

}  // namespace dsa::resilience
