// Deterministic host-I/O fault layer (docs/FAULTS.md): an injectable
// shim over write/fsync/rename/open with the same seeded plan grammar as
// the microarchitectural injector (src/fault/fault.h). A plan arms
// faults by kind + per-kind opportunity index, every fire decision is a
// pure function of {plan, opportunity index}, and the same (seed, plan)
// reproduces the same injected fault sequence byte-for-byte — which is
// what lets the serve soak gate assert that a daemon degrades *typed*
// under disk-full/flaky-filesystem conditions instead of silently
// claiming durability.
//
// Unlike the per-run FaultInjector, this injector is process-global and
// thread-safe: the cell store publishes from worker threads while the
// daemon writes response frames, and all of them must draw opportunities
// from one deterministic sequence. When no plan is installed the shims
// are a single relaxed atomic load away from the raw syscall.
//
// Injection sites (one opportunity per shim call, per kind):
//   IoWrite  -> enospc (ENOSPC), eio (EIO), short-write (partial write)
//   IoFsync  -> fsync-fail (EIO)
//   IoRename -> rename-fail (EIO)
//   IoOpen   -> open-fail (EMFILE)
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <sys/types.h>

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

[[nodiscard]] std::string_view ToString(IoFaultKind k);
// Parses a kind token ("enospc", "eio", "short-write", "fsync-fail",
// "rename-fail", "open-fail"); returns false on an unknown token.
[[nodiscard]] bool ParseIoFaultKind(std::string_view token, IoFaultKind& out);

// One armed fault: fire on opportunities [trigger, trigger + count) of
// its kind. Opportunities are counted per kind, starting at 0.
struct IoFaultSpec {
  IoFaultKind kind = IoFaultKind::kEnospc;
  std::uint64_t trigger = 0;
  std::uint64_t count = 1;  // UINT64_MAX ("+" in the grammar) = every one
};

struct IoFaultPlan {
  std::vector<IoFaultSpec> specs;
  std::uint64_t seed = 0;
  bool seed_explicit = false;  // ";seed=N" was present in the spec string

  [[nodiscard]] bool enabled() const { return !specs.empty(); }
};

// Parses the --io-faults grammar (docs/FAULTS.md) — the same shape as
// --faults:
//   plan  := entry ("," entry)* (";seed=" uint)?
//   entry := kind "@" trigger ["+" [count]]
// e.g. "enospc@0", "fsync-fail@0+", "short-write@2+3;seed=42".
// Throws std::invalid_argument with a pointed message on bad input.
[[nodiscard]] IoFaultPlan ParseIoFaultPlan(const std::string& spec);

// Inverse of ParseIoFaultPlan (canonical form; round-trips).
[[nodiscard]] std::string FormatIoFaultPlan(const IoFaultPlan& plan);

// Per-kind opportunity/fired census of the installed injector since the
// last InstallIoFaultPlan.
struct IoFaultCensus {
  std::array<std::uint64_t, kNumIoFaultKinds> opportunities{};
  std::array<std::uint64_t, kNumIoFaultKinds> fired{};

  [[nodiscard]] std::uint64_t total_fired() const {
    std::uint64_t n = 0;
    for (const std::uint64_t f : fired) n += f;
    return n;
  }
};

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
