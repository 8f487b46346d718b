#include "resilience/iofault.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <mutex>

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
constexpr fault::KindTable kIoKinds{"--io-faults", "io-fault kind",
                                    kIoKindNames};

using IoInjector = fault::Injector<IoFaultKind, kNumIoFaultKinds>;

// The process-global injector. `g_active` is the hot-path gate: with no
// plan installed every shim is one relaxed load plus the raw syscall.
// The injector lives behind `mu`, because the cell store and the wire
// protocol draw opportunities from worker threads concurrently and the
// sequence must stay deterministic.
struct GlobalInjector {
  std::mutex mu;
  IoInjector injector{IoFaultPlan{}};
};

std::atomic<bool> g_active{false};

GlobalInjector& Global() {
  static GlobalInjector g;
  return g;
}

// Registers one opportunity for `k` and returns whether it fires. The
// decision is taken under the lock; the caller acts outside it.
bool Fires(IoFaultKind k) {
  GlobalInjector& g = Global();
  std::lock_guard<std::mutex> lock(g.mu);
  return g.injector.Fire(k);
}

}  // namespace

std::string_view ToString(IoFaultKind k) {
  return fault::KindName(kIoKinds, k);
}

bool ParseIoFaultKind(std::string_view token, IoFaultKind& out) {
  return fault::ParseKind(kIoKinds, token, out);
}

IoFaultPlan ParseIoFaultPlan(const std::string& spec) {
  return fault::ParsePlan<IoFaultKind>(kIoKinds, spec);
}

std::string FormatIoFaultPlan(const IoFaultPlan& plan) {
  return fault::FormatPlan(kIoKinds, plan);
}

void InstallIoFaultPlan(const IoFaultPlan& plan) {
  GlobalInjector& g = Global();
  std::lock_guard<std::mutex> lock(g.mu);
  g.injector = IoInjector(plan);
  g_active.store(plan.enabled(), std::memory_order_release);
}

void ClearIoFaultPlan() { InstallIoFaultPlan(IoFaultPlan{}); }

bool IoFaultsActive() {
  return g_active.load(std::memory_order_acquire);
}

IoFaultPlan CurrentIoFaultPlan() {
  GlobalInjector& g = Global();
  std::lock_guard<std::mutex> lock(g.mu);
  return g.injector.plan();
}

IoFaultCensus GetIoFaultCensus() {
  GlobalInjector& g = Global();
  std::lock_guard<std::mutex> lock(g.mu);
  return g.injector.report();
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
      GlobalInjector& g = Global();
      std::lock_guard<std::mutex> lock(g.mu);
      // One opportunity per kind per write, in fixed priority order, so
      // a plan arming several write kinds stays reproducible.
      const bool enospc = g.injector.Fire(IoFaultKind::kEnospc);
      const bool eio = g.injector.Fire(IoFaultKind::kEio);
      const bool shortw = g.injector.Fire(IoFaultKind::kShortWrite);
      if (enospc) {
        fail_errno = ENOSPC;
      } else if (eio) {
        fail_errno = EIO;
      } else if (shortw && count >= 2) {
        // A short write always makes progress (1..count-1 bytes): the
        // caller's retry loop must cope, and each retry draws the next
        // opportunity — exactly how a nearly-full disk behaves.
        shortened = 1 + static_cast<std::size_t>(
                            g.injector.Rand(IoFaultKind::kShortWrite) %
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
  if (IoFaultsActive() && Fires(IoFaultKind::kFsyncFail)) {
    errno = EIO;
    return -1;
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
  if (IoFaultsActive() && Fires(IoFaultKind::kRenameFail)) {
    errno = EIO;
    return -1;
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
  if (IoFaultsActive() && Fires(IoFaultKind::kOpenFail)) {
    errno = EMFILE;
    return -1;
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
