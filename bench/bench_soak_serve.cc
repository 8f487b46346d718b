// bench_soak_serve — the kill-and-chaos drill for the dsa_serve daemon
// (docs/SERVING.md): proves that a daemon which is being SIGKILLed,
// fed hostile protocol streams and injected with host-I/O faults still
// never serves a corrupt result. One invocation
//
//   1. computes the reference truth in-process: the daemon's own sweep
//      space (serve::SweepJobs) through the BatchRunner, written as a
//      bench JSON (validate_serve.py --ref consumes the same file);
//   2. runs several chaos rounds, each spawning a real daemon process
//      (this binary, --worker-daemon) with a rotated io-fault plan,
//      firing a seeded dsa_chaos_client at it concurrently with a real
//      sweep, then killing it — alternating a self-inflicted SIGKILL
//      mid-sweep (--kill-after) with an orchestrator kill -9 — and
//      corrupting a seeded cache entry between rounds so the boot scrub
//      has real work;
//   3. runs a final clean round (no faults, no kill): the sweep must
//      complete with every cell ok, the health census must report the
//      hostile traffic, and the daemon must drain on SIGTERM (exit 3);
//   4. gates on bit-identity: every ok cell served in ANY round must
//      match the reference's cycles + output_digest exactly, and the
//      daemon process must not leak fds across the chaos barrage.
//
// Usage: bench_soak_serve [--filter SUBSTR] [--seed N] [--rounds N]
//                         [--jobs N] [--dir PATH] [--keep]
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "resilience/mini_json.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/flags.h"
#include "sim/runner.h"

namespace {

using dsa::resilience::JsonValue;

struct SoakArgs {
  bool worker_daemon = false;
  std::string filter = "BitCount";
  std::uint64_t seed = 7;
  std::uint64_t rounds = 3;
  int jobs = 2;
  std::string dir = "bench_soak_serve.tmp";
  bool keep = false;
  // Worker-daemon passthrough:
  std::string socket_path;
  std::string cache_dir;
  std::string io_faults;
  std::uint64_t kill_after = 0;
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--filter SUBSTR] [--seed N] [--rounds N] "
               "[--jobs N] [--dir PATH] [--keep]\n",
               argv0);
  std::exit(2);
}

SoakArgs ParseArgs(int argc, char** argv) {
  SoakArgs a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) Usage(argv[0]);
      return argv[++i];
    };
    auto u64 = [&](const std::string& flag) {
      std::uint64_t v = 0;
      std::string err;
      if (!dsa::serve::ParseU64Text(value(), v, &err)) {
        std::fprintf(stderr, "%s %s\n", flag.c_str(), err.c_str());
        std::exit(2);
      }
      return v;
    };
    if (arg == "--worker-daemon") {
      a.worker_daemon = true;
    } else if (arg == "--filter") {
      a.filter = value();
    } else if (arg == "--seed") {
      a.seed = u64(arg);
    } else if (arg == "--rounds") {
      a.rounds = u64(arg);
    } else if (arg == "--jobs") {
      a.jobs = static_cast<int>(u64(arg));
    } else if (arg == "--dir") {
      a.dir = value();
    } else if (arg == "--keep") {
      a.keep = true;
    } else if (arg == "--socket") {
      a.socket_path = value();
    } else if (arg == "--cache") {
      a.cache_dir = value();
    } else if (arg == "--io-faults") {
      a.io_faults = value();
    } else if (arg == "--kill-after") {
      a.kill_after = u64(arg);
    } else {
      Usage(argv[0]);
    }
  }
  return a;
}

// ---------------------------------------------------------------------------
// Worker-daemon mode: a real Daemon in a real process, so kill -9 and
// --kill-after land exactly like they would in production.

int WorkerDaemonMain(const SoakArgs& a) {
  dsa::serve::DaemonOptions opts;
  opts.socket_path = a.socket_path;
  opts.cache_dir = a.cache_dir;
  opts.workers = 2;
  opts.queue_limit = 16;
  opts.client_quota = 8;
  opts.io_fault_plan = a.io_faults;
  opts.read_deadline_ms = 1000;  // slow-loris is cut off fast in the drill
  opts.kill_after = a.kill_after;
  dsa::serve::Daemon daemon(std::move(opts));
  std::string error;
  if (!daemon.Init(&error)) {
    std::fprintf(stderr, "[soak_serve worker] %s\n", error.c_str());
    return 1;
  }
  return daemon.Serve();
}

// ---------------------------------------------------------------------------
// Orchestrator helpers.

std::string SelfPath(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

pid_t Spawn(const std::string& exe, const std::vector<std::string>& extra) {
  std::vector<std::string> args = {exe};
  args.insert(args.end(), extra.begin(), extra.end());
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    return -1;
  }
  if (pid == 0) {
    ::execv(exe.c_str(), argv.data());
    std::perror("execv");
    ::_exit(127);
  }
  return pid;
}

struct WorkerExit {
  bool signalled = false;
  int signal = 0;
  int code = -1;
};

WorkerExit WaitExit(pid_t pid) {
  WorkerExit we;
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (WIFSIGNALED(status)) {
    we.signalled = true;
    we.signal = WTERMSIG(status);
  } else if (WIFEXITED(status)) {
    we.code = WEXITSTATUS(status);
  }
  return we;
}

bool WaitForDaemon(const std::string& socket_path) {
  dsa::serve::ClientOptions po;
  po.socket_path = socket_path;
  po.client_name = "soak-orchestrator";
  po.ping = true;
  po.quiet = true;
  po.recv_timeout_ms = 5000;
  for (int i = 0; i < 250; ++i) {
    if (dsa::serve::Submit(po) == 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

// Open fds of a live process — the leak gate. -1 when unreadable.
int CountFds(pid_t pid) {
  const std::string path = "/proc/" + std::to_string(pid) + "/fd";
  DIR* d = ::opendir(path.c_str());
  if (d == nullptr) return -1;
  int n = 0;
  while (const dirent* e = ::readdir(d)) {
    if (e->d_name[0] != '.') ++n;
  }
  ::closedir(d);
  return n;
}

bool LoadJson(const std::string& path, JsonValue& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string err;
  if (!ParseJson(ss.str(), out, &err)) {
    std::fprintf(stderr, "soak_serve: %s: %s\n", path.c_str(), err.c_str());
    return false;
  }
  return true;
}

std::string Field(const JsonValue& obj, std::string_view name) {
  const JsonValue* v = obj.Find(name);
  return v != nullptr ? v->AsString() : std::string();
}

struct RefCell {
  std::uint64_t cycles = 0;
  std::string digest;
};

// The truth table: job key -> {cycles, output_digest} from the in-process
// reference sweep's bench JSON.
bool LoadReference(const std::string& path,
                   std::map<std::string, RefCell>& out) {
  JsonValue report;
  if (!LoadJson(path, report)) return false;
  const JsonValue* results = report.Find("results");
  if (results == nullptr || !results->is_array()) return false;
  for (const JsonValue& cell : results->array) {
    if (!cell.is_object() || Field(cell, "cell_status") != "ok") continue;
    RefCell rc;
    const JsonValue* cycles = cell.Find("cycles");
    if (cycles != nullptr) rc.cycles = cycles->AsU64();
    rc.digest = Field(cell, "output_digest");
    out[Field(cell, "job")] = rc;
  }
  return !out.empty();
}

// The headline gate: every ok cell the daemon served this round must be
// bit-identical (cycles + output digest) to the reference truth. A
// failed/refused cell is fine — a *wrong* cell never is.
bool CellsMatchReference(const std::string& round_json,
                         const std::map<std::string, RefCell>& ref,
                         std::uint64_t& checked) {
  JsonValue resp;
  if (!LoadJson(round_json, resp)) return true;  // no response captured
  const JsonValue* cells = resp.Find("cells");
  if (cells == nullptr || !cells->is_array()) return true;
  for (const JsonValue& cell : cells->array) {
    if (!cell.is_object() || Field(cell, "cell_status") != "ok") continue;
    const std::string job = Field(cell, "job");
    const auto it = ref.find(job);
    if (it == ref.end()) {
      std::fprintf(stderr,
                   "soak_serve: served cell \"%s\" has no reference truth\n",
                   job.c_str());
      return false;
    }
    const JsonValue* cycles = cell.Find("cycles");
    const std::string digest = Field(cell, "output_digest");
    if (cycles == nullptr || cycles->AsU64() != it->second.cycles ||
        digest != it->second.digest) {
      std::fprintf(stderr,
                   "soak_serve: CORRUPT RESULT served for \"%s\": got "
                   "cycles=%" PRIu64 " digest=%s, want cycles=%" PRIu64
                   " digest=%s\n",
                   job.c_str(), cycles != nullptr ? cycles->AsU64() : 0,
                   digest.c_str(), it->second.cycles,
                   it->second.digest.c_str());
      return false;
    }
    ++checked;
  }
  return true;
}

// Flip one byte in the middle of a seeded cache entry, so the next boot
// scrub has a real torn entry to quarantine.
void CorruptOneEntry(const std::string& cache_dir, std::uint64_t seed) {
  std::vector<std::string> entries;
  if (DIR* d = ::opendir(cache_dir.c_str())) {
    while (const dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name.size() > 5 && name.compare(name.size() - 5, 5, ".cell") == 0)
        entries.push_back(name);
    }
    ::closedir(d);
  }
  if (entries.empty()) return;
  std::sort(entries.begin(), entries.end());
  const std::string path =
      cache_dir + "/" + entries[seed % entries.size()];
  struct stat st = {};
  if (::stat(path.c_str(), &st) != 0 || st.st_size < 2) return;
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) return;
  const off_t off = st.st_size / 2;
  char b = 0;
  if (::pread(fd, &b, 1, off) == 1) {
    b = static_cast<char>(b ^ 0x5A);
    (void)::pwrite(fd, &b, 1, off);
  }
  ::close(fd);
  std::printf("soak_serve: corrupted one byte of %s for the boot scrub\n",
              path.c_str());
}

// In-process reference truth over exactly the cells the daemon serves.
bool WriteReference(const SoakArgs& a, const std::string& ref_json) {
  const std::vector<dsa::sim::BatchJob> jobs =
      dsa::serve::SweepJobs(a.filter);
  if (jobs.empty()) {
    std::fprintf(stderr, "soak_serve: filter \"%s\" matches no cells\n",
                 a.filter.c_str());
    return false;
  }
  dsa::sim::RunnerOptions ro;
  ro.jobs = a.jobs;
  ro.repeats = 2;
  dsa::sim::BatchRunner runner(ro);
  for (const dsa::sim::BatchJob& job : jobs) runner.Submit(job);
  const dsa::sim::BatchReport report = runner.Finish();
  if (!report.ok()) {
    std::fprintf(stderr, "soak_serve: reference sweep failed the oracle\n");
    return false;
  }
  if (!dsa::sim::WriteBenchJson(ref_json, "soak_serve_ref", runner, report,
                                nullptr)) {
    std::fprintf(stderr, "soak_serve: could not write %s\n",
                 ref_json.c_str());
    return false;
  }
  std::printf("soak_serve: reference truth: %zu cell(s) -> %s\n",
              jobs.size(), ref_json.c_str());
  return true;
}

// The io-fault plans the chaos rounds rotate through: finite counts, so
// the daemon degrades typed and then recovers within the same round.
std::string PlanForRound(std::uint64_t round, std::uint64_t seed) {
  static const char* const kPlans[] = {
      "fsync-fail@0+2",
      "enospc@1+2",
      "short-write@0+4",
      "rename-fail@0+1,eio@2+1",
  };
  const std::string base = kPlans[round % 4];
  return base + ";seed=" + std::to_string(seed + round);
}

int OrchestratorMain(const SoakArgs& a, const char* argv0) {
  const std::string self = SelfPath(argv0);
  // dsa_chaos_client is built next to this binary (bench/).
  std::string chaos = self;
  const std::size_t slash = chaos.rfind('/');
  chaos = (slash == std::string::npos ? std::string(".")
                                      : chaos.substr(0, slash)) +
          "/dsa_chaos_client";
  const std::string dir = a.dir;
  std::string cmd = "mkdir -p '" + dir + "'";
  if (std::system(cmd.c_str()) != 0) {
    std::fprintf(stderr, "soak_serve: cannot create %s\n", dir.c_str());
    return 1;
  }
  const std::string cache_dir = dir + "/cache";
  const std::string ref_json = dir + "/reference.json";
  const std::string socket_path = dir + "/soak.sock";

  if (!WriteReference(a, ref_json)) return 1;
  std::map<std::string, RefCell> ref;
  if (!LoadReference(ref_json, ref)) {
    std::fprintf(stderr, "soak_serve: reference JSON is unusable\n");
    return 1;
  }

  std::uint64_t identical_cells = 0;
  for (std::uint64_t round = 0; round < a.rounds; ++round) {
    const bool suicide = (round % 2) == 0;  // alternate kill mechanisms
    const std::string plan = PlanForRound(round, a.seed);
    std::vector<std::string> daemon_args = {
        "--worker-daemon", "--socket", socket_path, "--cache", cache_dir,
        "--io-faults", plan};
    if (suicide) {
      // Die on the first executed (non-cached) cell: with a warm cache a
      // higher threshold might never be reached and the round would hang
      // waiting on a suicide that cannot happen.
      daemon_args.push_back("--kill-after");
      daemon_args.push_back("1");
    }
    std::printf("soak_serve: round %" PRIu64 "/%" PRIu64
                ": io-faults \"%s\", kill=%s\n",
                round + 1, a.rounds, plan.c_str(),
                suicide ? "self (--kill-after)" : "orchestrator SIGKILL");
    const pid_t daemon_pid = Spawn(self, daemon_args);
    if (daemon_pid < 0) return 1;
    if (!WaitForDaemon(socket_path)) {
      std::fprintf(stderr, "soak_serve: daemon never came up\n");
      (void)::kill(daemon_pid, SIGKILL);
      (void)WaitExit(daemon_pid);
      return 1;
    }
    const int fds_before = CountFds(daemon_pid);

    // Hostile traffic concurrent with a real sweep: nine rounds, so the
    // client fires every one of its attacks once.
    const pid_t chaos_pid =
        Spawn(chaos, {"--socket", socket_path, "--seed",
                      std::to_string(a.seed * 1000 + round), "--rounds", "9",
                      "--slow-ms", "20"});
    dsa::serve::ClientOptions so;
    so.socket_path = socket_path;
    so.client_name = "soak-sweep";
    so.filter = a.filter;
    so.quiet = true;
    so.retries = 4;
    so.recv_timeout_ms = 60000;
    so.json_path = dir + "/round_" + std::to_string(round) + ".json";
    const int sweep_rc = dsa::serve::Submit(so);
    // A suicide round may take the daemon down mid-exchange: transport
    // failure (5) and interrupted/failed cells (1) are expected there.
    // A non-kill phase must produce a well-formed verdict (0/1).
    if (!suicide && sweep_rc != 0 && sweep_rc != 1) {
      std::fprintf(stderr, "soak_serve: sweep exit %d in a live round\n",
                   sweep_rc);
      (void)::kill(daemon_pid, SIGKILL);
      (void)WaitExit(daemon_pid);
      (void)WaitExit(chaos_pid);
      return 1;
    }
    const WorkerExit chaos_exit = WaitExit(chaos_pid);
    // The chaos client's own gate only binds while the daemon is meant
    // to stay alive; suicide rounds legitimately strand it.
    if (!suicide && (chaos_exit.signalled || chaos_exit.code != 0)) {
      std::fprintf(stderr,
                   "soak_serve: chaos client found the daemon unresponsive "
                   "(exit %d)\n",
                   chaos_exit.code);
      (void)::kill(daemon_pid, SIGKILL);
      (void)WaitExit(daemon_pid);
      return 1;
    }
    if (!suicide) {
      // fd-leak gate: the hostile barrage must not grow the fd table.
      const int fds_after = CountFds(daemon_pid);
      if (fds_before > 0 && fds_after > fds_before + 8) {
        std::fprintf(stderr,
                     "soak_serve: fd leak: %d fds before chaos, %d after\n",
                     fds_before, fds_after);
        (void)::kill(daemon_pid, SIGKILL);
        (void)WaitExit(daemon_pid);
        return 1;
      }
    }
    // kill -9 either way: in a suicide round the daemon normally already
    // died by its own SIGKILL mid-sweep, but a fully-warm cache can make
    // the drill execute zero cells — the backstop keeps the round from
    // hanging, and the observed termination signal is SIGKILL in both
    // cases.
    (void)::kill(daemon_pid, SIGKILL);
    const WorkerExit de = WaitExit(daemon_pid);
    if (!de.signalled || de.signal != SIGKILL) {
      std::fprintf(stderr,
                   "soak_serve: daemon was supposed to die on SIGKILL, got "
                   "%s %d\n",
                   de.signalled ? "signal" : "exit",
                   de.signalled ? de.signal : de.code);
      return 1;
    }
    if (!CellsMatchReference(so.json_path, ref, identical_cells)) return 1;
    // Give the NEXT boot scrub something real to quarantine.
    CorruptOneEntry(cache_dir, a.seed + round);
  }

  // Final clean round: no faults, no kill — everything must work.
  std::printf("soak_serve: final clean round\n");
  const pid_t daemon_pid =
      Spawn(self, {"--worker-daemon", "--socket", socket_path, "--cache",
                   cache_dir});
  if (daemon_pid < 0) return 1;
  if (!WaitForDaemon(socket_path)) {
    std::fprintf(stderr, "soak_serve: final daemon never came up\n");
    (void)::kill(daemon_pid, SIGKILL);
    (void)WaitExit(daemon_pid);
    return 1;
  }
  dsa::serve::ClientOptions fo;
  fo.socket_path = socket_path;
  fo.client_name = "soak-final";
  fo.filter = a.filter;
  fo.quiet = true;
  fo.retries = 2;
  fo.recv_timeout_ms = 120000;
  fo.json_path = dir + "/final.json";
  const int final_rc = dsa::serve::Submit(fo);
  if (final_rc != 0) {
    std::fprintf(stderr, "soak_serve: final clean sweep exited %d\n",
                 final_rc);
    (void)::kill(daemon_pid, SIGKILL);
    (void)WaitExit(daemon_pid);
    return 1;
  }
  if (!CellsMatchReference(fo.json_path, ref, identical_cells)) {
    (void)::kill(daemon_pid, SIGKILL);
    (void)WaitExit(daemon_pid);
    return 1;
  }
  // Health census: the scrub must have quarantined the corruption the
  // rounds planted (the cache dir carried at least one flipped entry).
  dsa::serve::ClientOptions ho = fo;
  ho.filter.clear();
  ho.health = true;
  ho.json_path = dir + "/health.json";
  if (dsa::serve::Submit(ho) != 0) {
    std::fprintf(stderr, "soak_serve: health probe failed\n");
    (void)::kill(daemon_pid, SIGKILL);
    (void)WaitExit(daemon_pid);
    return 1;
  }
  JsonValue health_resp;
  bool scrub_worked = false;
  if (LoadJson(ho.json_path, health_resp)) {
    if (const JsonValue* h = health_resp.Find("health")) {
      if (const JsonValue* scrub = h->Find("scrub")) {
        const JsonValue* q = scrub->Find("quarantined");
        scrub_worked = a.rounds == 0 || (q != nullptr && q->AsU64() > 0);
      }
    }
  }
  if (!scrub_worked) {
    std::fprintf(stderr,
                 "soak_serve: boot scrub reported no quarantined entries "
                 "despite planted corruption\n");
    (void)::kill(daemon_pid, SIGKILL);
    (void)WaitExit(daemon_pid);
    return 1;
  }
  // Graceful drain: SIGTERM -> exit 3, the daemon's documented contract.
  (void)::kill(daemon_pid, SIGTERM);
  const WorkerExit fe = WaitExit(daemon_pid);
  if (fe.signalled || fe.code != 3) {
    std::fprintf(stderr,
                 "soak_serve: drained daemon was supposed to exit 3, got "
                 "%s %d\n",
                 fe.signalled ? "signal" : "exit",
                 fe.signalled ? fe.signal : fe.code);
    return 1;
  }

  std::printf("soak_serve PASSED: %" PRIu64 " chaos round(s) + clean "
              "round, %" PRIu64 " served cell(s) bit-identical to the "
              "reference, scrub quarantined planted corruption, drain "
              "exit 3\n",
              a.rounds, identical_cells);
  if (!a.keep) {
    cmd = "rm -rf '" + dir + "'";
    (void)std::system(cmd.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const SoakArgs a = ParseArgs(argc, argv);
  if (a.worker_daemon) return WorkerDaemonMain(a);
  return OrchestratorMain(a, argv[0]);
}
