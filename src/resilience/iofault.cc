#include "resilience/iofault.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <mutex>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define DSA_HAVE_IOFAULT_FS 1
#else
#define DSA_HAVE_IOFAULT_FS 0
#endif

namespace dsa::resilience {

namespace {

constexpr std::string_view kIoKindNames[kNumIoFaultKinds] = {
    "enospc", "eio", "short-write", "fsync-fail", "rename-fail", "open-fail",
};

[[noreturn]] void BadIoSpec(const std::string& spec, const std::string& why) {
  throw std::invalid_argument("bad --io-faults spec \"" + spec + "\": " +
                              why);
}

// Parses a base-10 uint64 and requires the whole token to be numeric.
bool ParseU64(std::string_view tok, std::uint64_t& out) {
  if (tok.empty()) return false;
  std::uint64_t v = 0;
  for (const char c : tok) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out = v;
  return true;
}

std::uint64_t SplitMix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// The process-global injector. `active` is the hot-path gate: with no
// plan installed every shim is one relaxed load plus the raw syscall.
// Everything else lives behind `mu`, because the cell store and the wire
// protocol draw opportunities from worker threads concurrently
// and the sequence must stay deterministic.
struct GlobalInjector {
  std::mutex mu;
  IoFaultPlan plan;
  std::array<std::uint64_t, kNumIoFaultKinds> opportunities{};
  std::array<std::uint64_t, kNumIoFaultKinds> fired{};
  std::array<std::uint64_t, kNumIoFaultKinds> rng{};
};

std::atomic<bool> g_active{false};

GlobalInjector& Injector() {
  static GlobalInjector g;
  return g;
}

// Registers one opportunity for `k` and decides whether an armed spec
// fires on it (caller holds mu). Same semantics as FaultInjector::Fire.
bool FireLocked(GlobalInjector& g, IoFaultKind k) {
  const int i = static_cast<int>(k);
  const std::uint64_t opportunity = g.opportunities[i]++;
  for (const IoFaultSpec& fs : g.plan.specs) {
    if (fs.kind != k || opportunity < fs.trigger) continue;
    const std::uint64_t since = opportunity - fs.trigger;
    if (fs.count == UINT64_MAX || since < fs.count) {
      ++g.fired[i];
      return true;
    }
  }
  return false;
}

std::uint64_t RandLocked(GlobalInjector& g, IoFaultKind k) {
  std::uint64_t v = SplitMix64(g.rng[static_cast<int>(k)]);
  if (v == 0) v = 1;
  return v;
}

}  // namespace

std::string_view ToString(IoFaultKind k) {
  const int i = static_cast<int>(k);
  if (i < 0 || i >= kNumIoFaultKinds) return "?";
  return kIoKindNames[i];
}

bool ParseIoFaultKind(std::string_view token, IoFaultKind& out) {
  for (int i = 0; i < kNumIoFaultKinds; ++i) {
    if (token == kIoKindNames[i]) {
      out = static_cast<IoFaultKind>(i);
      return true;
    }
  }
  return false;
}

IoFaultPlan ParseIoFaultPlan(const std::string& spec) {
  IoFaultPlan plan;
  if (spec.empty()) return plan;

  std::string entries = spec;
  const std::size_t semi = spec.find(';');
  if (semi != std::string::npos) {
    entries = spec.substr(0, semi);
    const std::string tail = spec.substr(semi + 1);
    constexpr std::string_view kSeedKey = "seed=";
    if (tail.rfind(kSeedKey, 0) != 0 ||
        !ParseU64(tail.substr(kSeedKey.size()), plan.seed)) {
      BadIoSpec(spec, "expected \";seed=<uint>\" after the entries, got \";" +
                          tail + "\"");
    }
    plan.seed_explicit = true;
  }

  std::size_t pos = 0;
  while (pos <= entries.size()) {
    std::size_t comma = entries.find(',', pos);
    if (comma == std::string::npos) comma = entries.size();
    const std::string entry = entries.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) BadIoSpec(spec, "empty entry");

    const std::size_t at = entry.find('@');
    if (at == std::string::npos) {
      BadIoSpec(spec, "entry \"" + entry + "\" misses \"@<trigger>\"");
    }
    IoFaultSpec fs;
    if (!ParseIoFaultKind(entry.substr(0, at), fs.kind)) {
      BadIoSpec(spec, "unknown io-fault kind \"" + entry.substr(0, at) +
                          "\" (want enospc|eio|short-write|fsync-fail|"
                          "rename-fail|open-fail)");
    }
    std::string rest = entry.substr(at + 1);
    const std::size_t plus = rest.find('+');
    if (plus != std::string::npos) {
      const std::string count = rest.substr(plus + 1);
      if (count.empty()) {
        fs.count = UINT64_MAX;
      } else if (!ParseU64(count, fs.count) || fs.count == 0) {
        BadIoSpec(spec, "bad repeat count \"" + count + "\" in \"" + entry +
                            "\"");
      }
      rest = rest.substr(0, plus);
    }
    if (!ParseU64(rest, fs.trigger)) {
      BadIoSpec(spec, "bad trigger \"" + rest + "\" in \"" + entry + "\"");
    }
    plan.specs.push_back(fs);
    if (comma == entries.size()) break;
  }
  return plan;
}

std::string FormatIoFaultPlan(const IoFaultPlan& plan) {
  std::string out;
  for (const IoFaultSpec& fs : plan.specs) {
    if (!out.empty()) out += ",";
    out += std::string(ToString(fs.kind)) + "@" + std::to_string(fs.trigger);
    if (fs.count == UINT64_MAX) {
      out += "+";
    } else if (fs.count != 1) {
      out += "+";
      out += std::to_string(fs.count);
    }
  }
  if (plan.seed_explicit) out += ";seed=" + std::to_string(plan.seed);
  return out;
}

void InstallIoFaultPlan(const IoFaultPlan& plan) {
  GlobalInjector& g = Injector();
  std::lock_guard<std::mutex> lock(g.mu);
  g.plan = plan;
  g.opportunities.fill(0);
  g.fired.fill(0);
  for (int k = 0; k < kNumIoFaultKinds; ++k) {
    g.rng[k] = plan.seed * 0x9e3779b97f4a7c15ull +
               0xd1b54a32d192ed03ull * static_cast<std::uint64_t>(k + 1);
  }
  g_active.store(plan.enabled(), std::memory_order_release);
}

void ClearIoFaultPlan() { InstallIoFaultPlan(IoFaultPlan{}); }

bool IoFaultsActive() {
  return g_active.load(std::memory_order_acquire);
}

IoFaultPlan CurrentIoFaultPlan() {
  GlobalInjector& g = Injector();
  std::lock_guard<std::mutex> lock(g.mu);
  return g.plan;
}

IoFaultCensus GetIoFaultCensus() {
  GlobalInjector& g = Injector();
  std::lock_guard<std::mutex> lock(g.mu);
  IoFaultCensus c;
  c.opportunities = g.opportunities;
  c.fired = g.fired;
  return c;
}

ssize_t IoWrite(int fd, const void* buf, std::size_t count) {
#if DSA_HAVE_IOFAULT_FS
  if (IoFaultsActive()) {
    // Decide under the lock, act outside it: the injected decision must
    // be a deterministic function of the opportunity sequence, but the
    // physical write must not serialize every thread in the process.
    int fail_errno = 0;
    std::size_t shortened = count;
    {
      GlobalInjector& g = Injector();
      std::lock_guard<std::mutex> lock(g.mu);
      // One opportunity per kind per write, in fixed priority order, so
      // a plan arming several write kinds stays reproducible.
      const bool enospc = FireLocked(g, IoFaultKind::kEnospc);
      const bool eio = FireLocked(g, IoFaultKind::kEio);
      const bool shortw = FireLocked(g, IoFaultKind::kShortWrite);
      if (enospc) {
        fail_errno = ENOSPC;
      } else if (eio) {
        fail_errno = EIO;
      } else if (shortw && count >= 2) {
        // A short write always makes progress (1..count-1 bytes): the
        // caller's retry loop must cope, and each retry draws the next
        // opportunity — exactly how a nearly-full disk behaves.
        shortened = 1 + static_cast<std::size_t>(
                            RandLocked(g, IoFaultKind::kShortWrite) %
                            (count - 1));
      }
    }
    if (fail_errno != 0) {
      errno = fail_errno;
      return -1;
    }
    count = shortened;
  }
  return ::write(fd, buf, count);
#else
  (void)fd;
  (void)buf;
  (void)count;
  errno = ENOSYS;
  return -1;
#endif
}

int IoFsync(int fd) {
#if DSA_HAVE_IOFAULT_FS
  if (IoFaultsActive()) {
    GlobalInjector& g = Injector();
    bool fail = false;
    {
      std::lock_guard<std::mutex> lock(g.mu);
      fail = FireLocked(g, IoFaultKind::kFsyncFail);
    }
    if (fail) {
      errno = EIO;
      return -1;
    }
  }
  return ::fsync(fd);
#else
  (void)fd;
  errno = ENOSYS;
  return -1;
#endif
}

int IoRename(const char* from, const char* to) {
#if DSA_HAVE_IOFAULT_FS
  if (IoFaultsActive()) {
    GlobalInjector& g = Injector();
    bool fail = false;
    {
      std::lock_guard<std::mutex> lock(g.mu);
      fail = FireLocked(g, IoFaultKind::kRenameFail);
    }
    if (fail) {
      errno = EIO;
      return -1;
    }
  }
  return ::rename(from, to);
#else
  (void)from;
  (void)to;
  errno = ENOSYS;
  return -1;
#endif
}

int IoOpen(const char* path, int flags, unsigned mode) {
#if DSA_HAVE_IOFAULT_FS
  if (IoFaultsActive()) {
    GlobalInjector& g = Injector();
    bool fail = false;
    {
      std::lock_guard<std::mutex> lock(g.mu);
      fail = FireLocked(g, IoFaultKind::kOpenFail);
    }
    if (fail) {
      errno = EMFILE;
      return -1;
    }
  }
  return ::open(path, flags, static_cast<mode_t>(mode));
#else
  (void)path;
  (void)flags;
  (void)mode;
  errno = ENOSYS;
  return -1;
#endif
}

}  // namespace dsa::resilience
