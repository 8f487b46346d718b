// dsa_serve — the crash-tolerant simulation daemon (docs/SERVING.md).
// Binds a Unix-domain socket, answers sweep requests from the persistent
// result cache, simulates misses on a fixed worker pool under the bench
// drivers' resilience::Supervisor (fork isolation, per-workload circuit
// breaker), and drains gracefully on SIGINT/SIGTERM (exit 3). All flag
// values are parsed strictly: a typo is a usage error (exit 2), never a
// silent default.
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "serve/daemon.h"
#include "serve/flags.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: dsa_serve --socket PATH [options]\n"
               "  --socket PATH            Unix-domain socket to serve on "
               "(required)\n"
               "  --cache DIR              persistent result cache directory\n"
               "  --workers N              simulation worker threads "
               "(default 2)\n"
               "  --queue N                admission: max queued+in-flight "
               "requests (default 8)\n"
               "  --client-quota N         admission: max in-flight per "
               "client (default 4)\n"
               "  --default-deadline-ms N  deadline for requests without "
               "one (default none)\n"
               "  --isolate                fork isolation per cell\n"
               "  --cell-deadline-ms N     per-cell wall-clock deadline "
               "(needs --isolate)\n"
               "  --mem-limit-mb N         per-cell address-space cap "
               "(needs --isolate)\n"
               "  --breaker N              circuit breaker: open after N "
               "consecutive failures\n"
               "  --probe-after N          half-open probe after N skips "
               "(default 2)\n"
               "  --repeats K              executions per simulated cell "
               "(default 1)\n"
               "  --io-faults SPEC         inject host-I/O faults, e.g. "
               "\"fsync-fail@0+;seed=7\" (docs/FAULTS.md)\n"
               "  --read-deadline-ms N     per-read deadline on client "
               "connections (default 5000; 0 = none)\n"
               "  --no-scrub               skip the boot-time cache "
               "integrity scrub\n"
               "  --kill-after N           crash drill: SIGKILL self after "
               "N executed cells\n"
               "  --crash-cell SUBSTR      crash drill: abort cells whose "
               "JobKey contains SUBSTR (needs --isolate)\n");
}

}  // namespace

int main(int argc, char** argv) {
  dsa::serve::DaemonOptions opts;
  const auto value = [&](int& i, const std::string& flag) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      Usage();
      std::exit(2);
    }
    return argv[++i];
  };
  const auto u64_value = [&](int& i, const std::string& flag) {
    std::uint64_t v = 0;
    std::string err;
    if (!dsa::serve::ParseU64Text(value(i, flag), v, &err)) {
      std::fprintf(stderr, "%s %s\n", flag.c_str(), err.c_str());
      std::exit(2);
    }
    return v;
  };
  // A positive count, at most `max`.
  const auto count_value = [&](int& i, const std::string& flag,
                               long max = std::numeric_limits<int>::max()) {
    long v = 0;
    std::string err;
    if (!dsa::serve::ParseCountText(value(i, flag), v, &err)) {
      std::fprintf(stderr, "%s %s\n", flag.c_str(), err.c_str());
      std::exit(2);
    }
    if (v < 1) {
      std::fprintf(stderr, "%s expects a positive count, got %ld\n",
                   flag.c_str(), v);
      std::exit(2);
    }
    if (v > max) {
      std::fprintf(stderr, "%s must be at most %ld, got %ld\n", flag.c_str(),
                   max, v);
      std::exit(2);
    }
    return static_cast<int>(v);
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket") {
      opts.socket_path = value(i, arg);
    } else if (arg == "--cache") {
      opts.cache_dir = value(i, arg);
    } else if (arg == "--workers") {
      opts.workers = count_value(i, arg);
    } else if (arg == "--queue") {
      opts.queue_limit = count_value(i, arg);
    } else if (arg == "--client-quota") {
      opts.client_quota = count_value(i, arg);
    } else if (arg == "--default-deadline-ms") {
      opts.default_deadline_ms = u64_value(i, arg);
    } else if (arg == "--isolate") {
      opts.resilience.isolate = true;
    } else if (arg == "--cell-deadline-ms") {
      opts.resilience.deadline_ms = u64_value(i, arg);
    } else if (arg == "--mem-limit-mb") {
      opts.resilience.mem_limit_mb = u64_value(i, arg);
    } else if (arg == "--breaker") {
      opts.resilience.breaker_threshold = count_value(i, arg);
    } else if (arg == "--probe-after") {
      opts.resilience.breaker_probe_after = count_value(i, arg);
    } else if (arg == "--repeats") {
      opts.repeats = count_value(i, arg, dsa::sim::kMaxRepeats);
    } else if (arg == "--io-faults") {
      opts.io_fault_plan = value(i, arg);
    } else if (arg == "--read-deadline-ms") {
      opts.read_deadline_ms = u64_value(i, arg);
    } else if (arg == "--no-scrub") {
      opts.scrub = false;
    } else if (arg == "--kill-after") {
      opts.kill_after = u64_value(i, arg);
    } else if (arg == "--crash-cell") {
      opts.crash_cell = value(i, arg);
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      Usage();
      return 2;
    }
  }
  if (opts.socket_path.empty()) {
    Usage();
    return 2;
  }

  dsa::serve::Daemon daemon(std::move(opts));
  std::string error;
  if (!daemon.Init(&error)) {
    std::fprintf(stderr, "[dsa_serve] %s\n", error.c_str());
    return 1;
  }
  return daemon.Serve();
}
