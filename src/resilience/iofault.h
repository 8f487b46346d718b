// Deterministic host-I/O fault layer (docs/FAULTS.md): an injectable
// shim over write/fsync/rename/open, armed by `--io-faults`. It is the
// second instantiation of the fault-plan core in src/fault/fault.h: the
// same grammar, parser, formatter, fire rule and seeded payload streams
// as `--faults`, over its own kind table. The same (seed, plan)
// reproduces the same injected fault sequence byte-for-byte — which is
// what lets the serve soak gate assert that a daemon degrades *typed*
// under disk-full/flaky-filesystem conditions instead of silently
// claiming durability.
//
// Unlike the per-run FaultInjector, this layer holds one process-global
// injector behind a mutex: the cell store publishes from worker threads
// while the daemon writes response frames, and all of them must draw
// opportunities from one deterministic sequence. When no plan is
// installed the shims are a single relaxed atomic load away from the raw
// syscall.
//
// Injection sites (one opportunity per shim call, per kind):
//   IoWrite  -> enospc (ENOSPC), eio (EIO), short-write (partial write)
//   IoFsync  -> fsync-fail (EIO)
//   IoRename -> rename-fail (EIO)
//   IoOpen   -> open-fail (EMFILE)
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include <sys/types.h>

#include "fault/fault.h"

namespace dsa::resilience {

// Stable io-fault kind IDs (census arrays are indexed by value; append
// only).
enum class IoFaultKind : std::uint8_t {
  kEnospc = 0,      // write(2) fails with ENOSPC — disk full
  kEio = 1,         // write(2) fails with EIO — flaky medium
  kShortWrite = 2,  // write(2) makes partial progress (1..n-1 bytes)
  kFsyncFail = 3,   // fsync(2) fails with EIO — durability lost
  kRenameFail = 4,  // rename(2) fails with EIO — atomic publish lost
  kOpenFail = 5,    // open(2) fails with EMFILE — fd exhaustion
};
inline constexpr int kNumIoFaultKinds = 6;

using IoFaultSpec = fault::Spec<IoFaultKind>;
using IoFaultPlan = fault::Plan<IoFaultKind>;
// The installed plan and its per-kind opportunity/fired census since the
// last InstallIoFaultPlan.
using IoFaultCensus = fault::Report<IoFaultKind, kNumIoFaultKinds>;

[[nodiscard]] std::string_view ToString(IoFaultKind k);
// Parses a kind token ("enospc", "eio", "short-write", "fsync-fail",
// "rename-fail", "open-fail"); returns false on an unknown token.
[[nodiscard]] bool ParseIoFaultKind(std::string_view token, IoFaultKind& out);
// fault::ParsePlan/FormatPlan over the `--io-faults` kinds, e.g.
// "enospc@0", "fsync-fail@0+", "short-write@2+3;seed=42".
[[nodiscard]] IoFaultPlan ParseIoFaultPlan(const std::string& spec);
[[nodiscard]] std::string FormatIoFaultPlan(const IoFaultPlan& plan);

// Installs `plan` as the process-global injector and resets the census.
// An empty plan deactivates injection (same as ClearIoFaultPlan).
void InstallIoFaultPlan(const IoFaultPlan& plan);
void ClearIoFaultPlan();
[[nodiscard]] bool IoFaultsActive();
[[nodiscard]] IoFaultPlan CurrentIoFaultPlan();
[[nodiscard]] IoFaultCensus GetIoFaultCensus();

// The shims. Passthrough to the raw syscall when no plan is active; with
// a plan installed, each call registers one opportunity per kind wired
// to its site and fails (or shortens) deterministically when armed.
// Errno is set exactly as the real syscall would set it.
[[nodiscard]] ssize_t IoWrite(int fd, const void* buf, std::size_t count);
[[nodiscard]] int IoFsync(int fd);
[[nodiscard]] int IoRename(const char* from, const char* to);
[[nodiscard]] int IoOpen(const char* path, int flags, unsigned mode);

}  // namespace dsa::resilience
