#include "resilience/isolate.h"

#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <new>

#include "mem/json.h"
#include "resilience/journal.h"
#include "resilience/mini_json.h"
#include "sim/error.h"

namespace dsa::resilience {

namespace {

// Pipe frame (journal.h codec): "DSAI" magic, u32 payload length, u32
// CRC-32, payload. The payload is one byte of record type ('R' result /
// 'E' error) followed by JSON. A torn or corrupted frame (child died
// mid-write) is classified as a crash.
constexpr std::string_view kMagic = "DSAI";

void SendFrame(int fd, char type, const std::string& json) {
  const std::string frame = EncodeFrame(kMagic, type, json);
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::write(fd, frame.data() + off, frame.size() - off);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // parent vanished; nothing sane left to do in the child
    }
    off += static_cast<std::size_t>(n);
  }
}

std::string ErrorJson(sim::DsaErrorCode code, const std::string& what) {
  mem::JsonBuilder w;
  w.Object().Key("code").I64(static_cast<int>(code)).Key("what").Str(what);
  return w.End().Take();
}

// Child side: run the cell, ship one frame, _exit without running any
// atexit machinery inherited from the parent.
[[noreturn]] void ChildMain(int write_fd,
                            const std::function<sim::RunResult()>& fn,
                            const IsolateOptions& opts) {
  if (opts.mem_limit_mb > 0) {
    struct rlimit lim;
    lim.rlim_cur = lim.rlim_max =
        static_cast<rlim_t>(opts.mem_limit_mb) * 1024 * 1024;
    (void)::setrlimit(RLIMIT_AS, &lim);
  }
  try {
    const sim::RunResult r = fn();
    SendFrame(write_fd, 'R', SerializeRunResult(r));
  } catch (const std::bad_alloc&) {
    SendFrame(write_fd, 'E',
              ErrorJson(sim::DsaErrorCode::kOutOfMemory,
                        "allocation failed under the child memory cap"));
  } catch (const sim::DsaError& e) {
    SendFrame(write_fd, 'E', ErrorJson(e.code(), e.what()));
  } catch (const std::exception& e) {
    SendFrame(write_fd, 'E',
              ErrorJson(sim::DsaErrorCode::kInternal, e.what()));
  } catch (...) {
    SendFrame(write_fd, 'E',
              ErrorJson(sim::DsaErrorCode::kInternal, "unknown exception"));
  }
  ::close(write_fd);
  ::_exit(0);
}

struct ChildStatus {
  bool exited = false;
  int wait_status = 0;
  bool deadline_hit = false;
};

// Parent side: drain the pipe while waiting, enforcing the deadline.
// Reading concurrently with waiting matters — a result bigger than the
// pipe buffer would otherwise deadlock the child against a parent that
// only waitpids.
ChildStatus SuperviseChild(pid_t pid, int read_fd, std::string& buffer,
                           std::uint64_t deadline_ms) {
  const auto start = std::chrono::steady_clock::now();
  ChildStatus st;
  char chunk[4096];
  bool eof = false;
  for (;;) {
    struct pollfd pfd = {read_fd, POLLIN, 0};
    const int pr = eof ? 0 : ::poll(&pfd, 1, 10);
    if (pr > 0) {
      for (;;) {
        const ssize_t n = ::read(read_fd, chunk, sizeof(chunk));
        if (n > 0) {
          buffer.append(chunk, static_cast<std::size_t>(n));
          continue;
        }
        if (n == 0) eof = true;
        if (n < 0 && errno == EINTR) continue;
        break;
      }
    }
    int status = 0;
    const pid_t w = ::waitpid(pid, &status, WNOHANG);
    if (w == pid) {
      st.exited = true;
      st.wait_status = status;
      // Drain whatever is still buffered in the pipe.
      for (;;) {
        const ssize_t n = ::read(read_fd, chunk, sizeof(chunk));
        if (n > 0) {
          buffer.append(chunk, static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        break;
      }
      return st;
    }
    if (deadline_ms > 0) {
      const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start);
      if (static_cast<std::uint64_t>(elapsed.count()) >= deadline_ms) {
        st.deadline_hit = true;
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &st.wait_status, 0);
        st.exited = true;
        return st;
      }
    }
  }
}

}  // namespace

sim::RunResult RunIsolated(const std::function<sim::RunResult()>& fn,
                           const IsolateOptions& opts,
                           const std::string& label) {
  int fds[2];
  if (::pipe(fds) != 0) {
    throw sim::DsaError(sim::DsaErrorCode::kTransient,
                        "pipe() failed for " + label + ": " +
                            std::strerror(errno));
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw sim::DsaError(sim::DsaErrorCode::kTransient,
                        "fork() failed for " + label + ": " +
                            std::strerror(errno));
  }
  if (pid == 0) {
    ::close(fds[0]);
    ChildMain(fds[1], fn, opts);  // never returns
  }
  ::close(fds[1]);
  std::string buffer;
  const ChildStatus st = SuperviseChild(pid, fds[0], buffer, opts.deadline_ms);
  ::close(fds[0]);

  if (st.deadline_hit) {
    throw sim::DsaError(sim::DsaErrorCode::kDeadline,
                        label + " exceeded its " +
                            std::to_string(opts.deadline_ms) +
                            " ms deadline and was killed");
  }
  char type = 0;
  std::string json;
  if (DecodeFrame(buffer, kMagic, type, json)) {
    if (type == 'R') {
      sim::RunResult r;
      if (ParseRunResult(json, r)) return r;
      throw sim::DsaError(sim::DsaErrorCode::kCrash,
                          label + ": child result failed to parse");
    }
    if (type == 'E') {
      JsonValue j;
      if (ParseJson(json, j) && j.is_object()) {
        const auto code = static_cast<sim::DsaErrorCode>(
            j.Find("code") != nullptr ? j.Find("code")->AsU64() : 0);
        const JsonValue* what = j.Find("what");
        // Re-throw the child's own failure with its code intact, so the
        // runner's status mapping and retry policy behave exactly as if
        // the cell had run in-process.
        throw sim::DsaError(code, what != nullptr ? what->AsString()
                                                  : "child error");
      }
    }
    throw sim::DsaError(sim::DsaErrorCode::kCrash,
                        label + ": child sent an unintelligible frame");
  }
  // No (valid) frame: the child died before reporting.
  if (WIFSIGNALED(st.wait_status)) {
    const int sig = WTERMSIG(st.wait_status);
    throw sim::DsaError(sim::DsaErrorCode::kCrash,
                        label + ": child killed by signal " +
                            std::to_string(sig) + " (" + strsignal(sig) +
                            ")");
  }
  const int code = WIFEXITED(st.wait_status) ? WEXITSTATUS(st.wait_status) : -1;
  throw sim::DsaError(sim::DsaErrorCode::kCrash,
                      label + ": child exited with status " +
                          std::to_string(code) + " without a result");
}

}  // namespace dsa::resilience
