// bench_soak — the soak gate for the one cell store (serve::ResultCache):
// a sweep killed mid-run resumes bit-identically, from the CLI and from
// the dsa_serve daemon alike (docs/RESILIENCE.md, docs/SERVING.md). One
// invocation runs two drills, each in its own subdirectory of --dir, and
// exits 0 only if both pass:
//
//   cli/    kill-and-resume. A seeded randomized sweep (--steps, --seed)
//           runs in a worker process (this binary, --worker) over an
//           empty cell store and SIGKILLs itself after K store publishes,
//           K chosen from the seed. A fresh worker re-runs the sweep over
//           the same store; it must restore at least one cell, and its
//           bench JSON, stripped of host-volatile fields, must equal the
//           uninterrupted reference's byte for byte.
//   serve/  kill-and-chaos. Each of --rounds rounds spawns the shipped
//           dsa_serve with a rotated host-I/O fault plan, fires a seeded
//           dsa_chaos_client at it during a real sweep of the --filter
//           cells, kills it (its own --kill-after or a SIGKILL from here,
//           alternately) and flips one byte of a cache entry for the next
//           boot scrub. A final clean round must serve every cell ok,
//           report the quarantine in its health census and exit 3 on
//           SIGTERM. Every ok cell served in any round must match the
//           reference's cycles and output digest, and the chaos barrage
//           must not grow the daemon's fd table by more than 8.
//
// Each drill's reference is the same sweep run uninterrupted in this
// process. The kills land in real processes mid-run; dsa_serve and
// dsa_chaos_client are found next to this binary.
//
// Usage: bench_soak [--steps small|full] [--seed N] [--jobs N]
//                   [--filter SUBSTR] [--rounds N] [--dir PATH] [--keep]
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "resilience/mini_json.h"
#include "resilience/supervisor.h"
#include "serve/cache.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "workloads/workloads.h"

namespace {

namespace fs = std::filesystem;
using dsa::resilience::JsonValue;

struct SoakArgs {
  std::string steps = "small";      // cli drill
  std::uint64_t seed = 7;
  int jobs = 2;                     // reference and worker threads
  std::string filter = "BitCount";  // serve drill
  std::uint64_t rounds = 3;         // serve drill
  std::string dir = "bench_soak.tmp";
  bool keep = false;
  // --worker: one cli-drill sweep over the cell store --cache, written to
  // --json, SIGKILLing itself after --kill-after store publishes (0 =
  // never).
  bool worker = false;
  std::string json_path;
  std::string cache_dir;
  std::uint64_t kill_after = 0;
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--steps small|full] [--seed N] [--jobs N] "
               "[--filter SUBSTR] [--rounds N] [--dir PATH] [--keep]\n",
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
    if (arg == "--steps") {
      a.steps = value();
      if (a.steps != "small" && a.steps != "full") Usage(argv[0]);
    } else if (arg == "--seed") {
      a.seed = dsa::bench::ParseU64Arg(arg, value());
    } else if (arg == "--jobs") {
      const long n = dsa::bench::ParseCountArg(arg, value());
      if (n < 1 || n > INT_MAX) {
        std::fprintf(stderr, "--jobs must be in [1, %d], got %ld\n", INT_MAX,
                     n);
        std::exit(2);
      }
      a.jobs = static_cast<int>(n);
    } else if (arg == "--filter") {
      a.filter = value();
    } else if (arg == "--rounds") {
      a.rounds = dsa::bench::ParseU64Arg(arg, value());
    } else if (arg == "--dir") {
      a.dir = value();
    } else if (arg == "--keep") {
      a.keep = true;
    } else if (arg == "--worker") {
      a.worker = true;
    } else if (arg == "--json") {
      a.json_path = value();
    } else if (arg == "--cache") {
      a.cache_dir = value();
    } else if (arg == "--kill-after") {
      a.kill_after = dsa::bench::ParseU64Arg(arg, value());
    } else {
      Usage(argv[0]);
    }
  }
  return a;
}

// ---------------------------------------------------------------------------
// Child processes.

struct Exit {
  bool signalled = false;
  int signal = 0;
  int code = -1;

  [[nodiscard]] bool Is(int want) const { return !signalled && code == want; }
  [[nodiscard]] bool KilledBy(int sig) const {
    return signalled && signal == sig;
  }
  [[nodiscard]] std::string Describe() const {
    return (signalled ? "signal " : "exit ") +
           std::to_string(signalled ? signal : code);
  }
};

// A child process running `exe args...`. Unless Wait() or Stop() has
// reaped it, the destructor SIGKILLs and reaps it, so a drill that fails
// a gate can simply return.
class Child {
 public:
  Child(const fs::path& exe, std::vector<std::string> args) {
    args.insert(args.begin(), exe.string());
    std::vector<char*> argv;
    for (std::string& s : args) argv.push_back(s.data());
    argv.push_back(nullptr);
    std::fflush(nullptr);  // the child's output follows ours
    pid_ = ::fork();
    if (pid_ < 0) std::perror("fork");
    if (pid_ == 0) {
      ::execv(exe.c_str(), argv.data());
      std::perror("execv");
      ::_exit(127);
    }
  }
  ~Child() {
    if (pid_ > 0) (void)Stop(SIGKILL);
  }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }

  Exit Wait() {
    Exit e;
    int status = 0;
    if (pid_ > 0 && ::waitpid(pid_, &status, 0) == pid_) {
      if (WIFSIGNALED(status)) {
        e.signalled = true;
        e.signal = WTERMSIG(status);
      } else if (WIFEXITED(status)) {
        e.code = WEXITSTATUS(status);
      }
    }
    pid_ = -1;
    return e;
  }

  Exit Stop(int sig) {
    if (pid_ > 0) (void)::kill(pid_, sig);
    return Wait();
  }

 private:
  pid_t pid_ = -1;
};

fs::path SelfPath(const char* argv0) {
  std::error_code ec;
  fs::path self = fs::read_symlink("/proc/self/exe", ec);
  return ec ? fs::path(argv0) : self;
}

bool LoadJson(const std::string& path, JsonValue& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string err;
  if (!ParseJson(ss.str(), out, &err)) {
    std::fprintf(stderr, "soak: %s: %s\n", path.c_str(), err.c_str());
    return false;
  }
  return true;
}

// The sweep behind both references and every cli worker: `cells` through
// an in-process BatchRunner with two repeats per cell, so the determinism
// oracle compares two samples, written as a bench JSON. A worker passes
// its supervisor and cell store, whose census the JSON then carries.
// False when the JSON cannot be written or the oracle finds a violation.
bool RunSweep(const std::vector<dsa::sim::BatchJob>& cells,
              dsa::sim::RunnerOptions ro, const std::string& json_path,
              const dsa::resilience::Supervisor* sup = nullptr,
              const dsa::serve::ResultCache* cache = nullptr) {
  ro.repeats = 2;
  dsa::sim::BatchRunner runner(ro);
  for (const dsa::sim::BatchJob& cell : cells) runner.Submit(cell);
  const dsa::sim::BatchReport report = runner.Finish();
  dsa::sim::BenchJsonExtras extras;
  if (sup != nullptr) extras = sup->Extras(report);
  if (cache != nullptr) dsa::serve::ReportCache(*cache, extras);
  if (!dsa::sim::WriteBenchJson(json_path, "soak", runner, report,
                                &extras)) {
    std::fprintf(stderr, "soak: could not write %s\n", json_path.c_str());
    return false;
  }
  std::printf("soak: %zu cell(s), %" PRIu64 " restored -> %s\n",
              cells.size(), report.restored_cells, json_path.c_str());
  if (!report.ok()) {
    std::fprintf(stderr, "soak: the sweep behind %s failed the oracle\n",
                 json_path.c_str());
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// The cli drill: kill-and-resume over the cell store.

// A few size-randomized workloads across three run modes. The same
// (seed, steps) always builds the same sweep; that determinism is what
// makes the bit-identical gate meaningful.
std::vector<dsa::sim::BatchJob> CliSweep(const SoakArgs& a) {
  std::mt19937_64 rng(a.seed);
  auto pick = [&rng](int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<std::uint64_t>(
                                             hi - lo + 1));
  };
  std::vector<dsa::sim::Workload> set;
  set.push_back(dsa::workloads::MakeVecAdd(256 * pick(2, 8)));
  set.push_back(dsa::workloads::MakeBitCount(512 * pick(2, 6)));
  set.push_back(dsa::workloads::MakeShiftAdd(256 * pick(2, 8), pick(4, 16)));
  set.push_back(dsa::workloads::MakeStrCopy(500 * pick(2, 6)));
  if (a.steps == "full") {
    set.push_back(dsa::workloads::MakeRgbGray(1024 * pick(4, 16)));
    set.push_back(dsa::workloads::MakeSusanE(1024 * pick(4, 12), 48));
    set.push_back(dsa::workloads::MakeMatMul(8 * pick(3, 6)));
    set.push_back(dsa::workloads::MakeQSort(256 * pick(2, 6)));
  }
  std::vector<dsa::sim::BatchJob> cells;
  for (const dsa::sim::Workload& wl : set) {
    for (const dsa::sim::RunMode mode :
         {dsa::sim::RunMode::kScalar, dsa::sim::RunMode::kAutoVec,
          dsa::sim::RunMode::kDsa}) {
      cells.push_back(dsa::sim::BatchJob{wl, mode, {}, {}, {}});
    }
  }
  return cells;
}

// --worker: the cli sweep under the supervisor over the cell store, as a
// bench driver's --cache run executes it.
int WorkerMain(const SoakArgs& a) {
  dsa::resilience::Supervisor sup({});
  dsa::sim::RunnerOptions ro;
  ro.jobs = a.jobs;
  sup.Attach(ro);
  dsa::serve::ResultCache cache;
  std::string err;
  if (!cache.Open(a.cache_dir, &err)) {
    std::fprintf(stderr, "soak worker: %s\n", err.c_str());
    return 2;
  }
  dsa::serve::AttachCache(cache, ro);
  if (a.kill_after > 0) {
    ro.on_outcome = [inner = ro.on_outcome, &cache,
                     kill_after = a.kill_after](
                        const dsa::sim::JobOutcome& out) {
      if (inner) inner(out);
      if (cache.stats().stores >= kill_after) {
        // Every published entry was fsynced before its rename; die the
        // hard way, mid-batch, like a real OOM-kill would.
        ::raise(SIGKILL);
      }
    };
  }
  return RunSweep(CliSweep(a), ro, a.json_path, &sup, &cache) ? 0 : 1;
}

// Strips the host-volatile fields from a bench report, leaving only what
// must reproduce bit-identically across a kill/resume: per-result keys
// wall_ms/host (timing) and restored (bookkeeping), plus the top-level
// run bookkeeping (jobs, wall_ms, memo/restored/cache counters).
JsonValue Canonicalize(const JsonValue& report) {
  static const char* kTopLevel[] = {"schema",        "bench",
                                    "repeats",       "distinct_jobs",
                                    "executed_runs", "faulted_cells",
                                    "oracle",        "results"};
  JsonValue out;
  out.type = JsonValue::Type::kObject;
  for (const char* keep : kTopLevel) {
    const JsonValue* v = report.Find(keep);
    if (v == nullptr) continue;
    if (std::strcmp(keep, "results") == 0) {
      JsonValue results;
      results.type = JsonValue::Type::kArray;
      for (const JsonValue& cell : v->array) {
        JsonValue c;
        c.type = JsonValue::Type::kObject;
        for (const auto& [k, cv] : cell.object) {
          if (k == "wall_ms" || k == "host" || k == "restored") continue;
          c.object.emplace_back(k, cv);
        }
        results.array.push_back(std::move(c));
      }
      out.object.emplace_back(keep, std::move(results));
    } else {
      out.object.emplace_back(keep, *v);
    }
  }
  return out;
}

int CliDrill(const SoakArgs& a, const fs::path& self,
             const std::string& dir) {
  const std::vector<dsa::sim::BatchJob> sweep = CliSweep(a);
  const std::uint64_t kill_after = 1 + a.seed % (sweep.size() - 1);
  std::printf("soak: cli drill: steps=%s seed=%" PRIu64 " (%zu cells, kill "
              "after %" PRIu64 " store publish(es))\n",
              a.steps.c_str(), a.seed, sweep.size(), kill_after);
  const std::string ref_json = dir + "/reference.json";
  const std::string soak_json = dir + "/resumed.json";

  // 1. Reference: the uninterrupted sweep.
  dsa::sim::RunnerOptions ro;
  ro.jobs = a.jobs;
  if (!RunSweep(sweep, ro, ref_json)) return 1;

  // 2. The same sweep over an empty store, SIGKILLed mid-batch after
  //    `kill_after` publishes.
  const std::vector<std::string> worker = {
      "--worker", "--steps", a.steps, "--seed", std::to_string(a.seed),
      "--jobs", std::to_string(a.jobs), "--json", soak_json,
      "--cache", dir + "/store"};
  std::vector<std::string> kill_args = worker;
  kill_args.insert(kill_args.end(),
                   {"--kill-after", std::to_string(kill_after)});
  const Exit killed = Child(self, kill_args).Wait();
  if (!killed.KilledBy(SIGKILL)) {
    std::fprintf(stderr,
                 "soak: kill run was supposed to die on SIGKILL, got %s\n",
                 killed.Describe().c_str());
    return 1;
  }

  // 3. Resume: the same sweep over the partly filled store.
  const Exit resumed = Child(self, worker).Wait();
  if (!resumed.Is(0)) {
    std::fprintf(stderr, "soak: resume run failed (%s)\n",
                 resumed.Describe().c_str());
    return 1;
  }

  // 4. Bit-identical equivalence gate.
  JsonValue ref_report, soak_report;
  if (!LoadJson(ref_json, ref_report) || !LoadJson(soak_json, soak_report)) {
    return 1;
  }
  const JsonValue* restored = soak_report.Find("restored_cells");
  if (restored == nullptr || restored->AsU64() == 0) {
    std::fprintf(stderr,
                 "soak: resumed run restored no cells — the cell store "
                 "never answered\n");
    return 1;
  }
  const std::string canon_ref = DumpJson(Canonicalize(ref_report));
  const std::string canon_soak = DumpJson(Canonicalize(soak_report));
  if (canon_ref != canon_soak) {
    const std::string diff_ref = dir + "/reference.canonical.json";
    const std::string diff_soak = dir + "/resumed.canonical.json";
    std::ofstream(diff_ref) << canon_ref << "\n";
    std::ofstream(diff_soak) << canon_soak << "\n";
    std::fprintf(stderr,
                 "soak FAILED: resumed report diverges from the reference "
                 "(diff %s %s)\n",
                 diff_ref.c_str(), diff_soak.c_str());
    return 1;
  }
  std::printf("soak: cli drill passed: killed-and-resumed sweep is "
              "bit-identical to the uninterrupted run (%" PRIu64 " cell(s) "
              "restored, %zu canonical byte(s) compared)\n",
              restored->AsU64(), canon_ref.size());
  return 0;
}

// ---------------------------------------------------------------------------
// The serve drill: kill-and-chaos against dsa_serve.

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
  std::fprintf(stderr, "soak: dsa_serve never answered a ping\n");
  return false;
}

// Open fds of a live process — the leak gate. -1 when unreadable.
int CountFds(pid_t pid) {
  std::error_code ec;
  int n = 0;
  for (fs::directory_iterator it("/proc/" + std::to_string(pid) + "/fd", ec);
       !ec && it != fs::directory_iterator(); it.increment(ec)) {
    ++n;
  }
  return ec ? -1 : n;
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
                   "soak: served cell \"%s\" has no reference truth\n",
                   job.c_str());
      return false;
    }
    const JsonValue* cycles = cell.Find("cycles");
    const std::string digest = Field(cell, "output_digest");
    if (cycles == nullptr || cycles->AsU64() != it->second.cycles ||
        digest != it->second.digest) {
      std::fprintf(stderr,
                   "soak: CORRUPT RESULT served for \"%s\": got "
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
  std::vector<fs::path> entries;
  std::error_code ec;
  for (fs::directory_iterator it(cache_dir, ec);
       !ec && it != fs::directory_iterator(); it.increment(ec)) {
    if (it->path().extension() == ".cell") entries.push_back(it->path());
  }
  if (entries.empty()) return;
  std::sort(entries.begin(), entries.end());
  const fs::path& path = entries[seed % entries.size()];
  const std::uintmax_t size = fs::file_size(path, ec);
  if (ec || size < 2) return;
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  const auto off = static_cast<std::streamoff>(size / 2);
  char b = 0;
  if (!f.seekg(off).get(b)) return;
  f.seekp(off).put(static_cast<char>(b ^ 0x5A));
  std::printf("soak: corrupted one byte of %s for the boot scrub\n",
              path.c_str());
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

int ServeDrill(const SoakArgs& a, const fs::path& self,
               const std::string& dir) {
  const std::vector<dsa::sim::BatchJob> cells =
      dsa::serve::SweepJobs(a.filter);
  if (cells.empty()) {
    std::fprintf(stderr, "soak: filter \"%s\" matches no cells\n",
                 a.filter.c_str());
    return 1;
  }
  std::printf("soak: serve drill: filter \"%s\", %" PRIu64 " chaos "
              "round(s)\n",
              a.filter.c_str(), a.rounds);
  const std::string ref_json = dir + "/reference.json";
  dsa::sim::RunnerOptions ro;
  ro.jobs = a.jobs;
  if (!RunSweep(cells, ro, ref_json)) return 1;
  std::map<std::string, RefCell> ref;
  if (!LoadReference(ref_json, ref)) {
    std::fprintf(stderr, "soak: reference JSON is unusable\n");
    return 1;
  }

  const fs::path serve = self.parent_path() / "dsa_serve";
  const fs::path chaos = self.parent_path() / "dsa_chaos_client";
  const std::string cache_dir = dir + "/cache";
  const std::string socket_path = dir + "/soak.sock";
  // Every daemon of the drill runs with twice the default admission
  // bounds and a 1 s read deadline, which cuts the chaos client's
  // slow-loris off fast.
  const std::vector<std::string> serve_args = {
      "--socket", socket_path, "--cache", cache_dir, "--queue", "16",
      "--client-quota", "8", "--read-deadline-ms", "1000"};

  std::uint64_t identical_cells = 0;
  for (std::uint64_t round = 0; round < a.rounds; ++round) {
    const bool suicide = (round % 2) == 0;  // alternate kill mechanisms
    const std::string plan = PlanForRound(round, a.seed);
    std::vector<std::string> args = serve_args;
    args.insert(args.end(), {"--io-faults", plan});
    if (suicide) {
      // Die on the first executed (non-cached) cell: with a warm cache a
      // higher threshold might never be reached and the round would hang
      // waiting on a suicide that cannot happen.
      args.insert(args.end(), {"--kill-after", "1"});
    }
    std::printf("soak: round %" PRIu64 "/%" PRIu64
                ": io-faults \"%s\", kill=%s\n",
                round + 1, a.rounds, plan.c_str(),
                suicide ? "self (--kill-after)" : "orchestrator SIGKILL");
    Child daemon(serve, args);
    if (!WaitForDaemon(socket_path)) return 1;
    const int fds_before = CountFds(daemon.pid());

    // Hostile traffic concurrent with a real sweep: nine rounds, so the
    // client fires every one of its attacks once.
    Child chaos_client(chaos, {"--socket", socket_path, "--seed",
                               std::to_string(a.seed * 1000 + round),
                               "--rounds", "9", "--slow-ms", "20"});
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
      std::fprintf(stderr, "soak: sweep exit %d in a live round\n",
                   sweep_rc);
      return 1;
    }
    const Exit chaos_exit = chaos_client.Wait();
    // The chaos client's own gate only binds while the daemon is meant
    // to stay alive; suicide rounds legitimately strand it.
    if (!suicide && !chaos_exit.Is(0)) {
      std::fprintf(stderr,
                   "soak: chaos client found the daemon unresponsive (%s)\n",
                   chaos_exit.Describe().c_str());
      return 1;
    }
    if (!suicide) {
      // fd-leak gate: the hostile barrage must not grow the fd table.
      const int fds_after = CountFds(daemon.pid());
      if (fds_before > 0 && fds_after > fds_before + 8) {
        std::fprintf(stderr,
                     "soak: fd leak: %d fds before chaos, %d after\n",
                     fds_before, fds_after);
        return 1;
      }
    }
    // kill -9 either way: in a suicide round the daemon normally already
    // died by its own SIGKILL mid-sweep, but a fully-warm cache can make
    // the drill execute zero cells — the backstop keeps the round from
    // hanging, and the observed termination signal is SIGKILL in both
    // cases.
    const Exit de = daemon.Stop(SIGKILL);
    if (!de.KilledBy(SIGKILL)) {
      std::fprintf(stderr,
                   "soak: daemon was supposed to die on SIGKILL, got %s\n",
                   de.Describe().c_str());
      return 1;
    }
    if (!CellsMatchReference(so.json_path, ref, identical_cells)) return 1;
    // Give the NEXT boot scrub something real to quarantine.
    CorruptOneEntry(cache_dir, a.seed + round);
  }

  // Final clean round: no faults, no kill — everything must work.
  std::printf("soak: final clean round\n");
  Child daemon(serve, serve_args);
  if (!WaitForDaemon(socket_path)) return 1;
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
    std::fprintf(stderr, "soak: final clean sweep exited %d\n", final_rc);
    return 1;
  }
  if (!CellsMatchReference(fo.json_path, ref, identical_cells)) return 1;
  // Health census: the scrub must have quarantined the corruption the
  // rounds planted (the cache dir carried at least one flipped entry).
  dsa::serve::ClientOptions ho = fo;
  ho.filter.clear();
  ho.health = true;
  ho.json_path = dir + "/health.json";
  if (dsa::serve::Submit(ho) != 0) {
    std::fprintf(stderr, "soak: health probe failed\n");
    return 1;
  }
  JsonValue health_resp;
  const JsonValue* scrub = nullptr;
  if (LoadJson(ho.json_path, health_resp)) {
    if (const JsonValue* h = health_resp.Find("health")) {
      scrub = h->Find("scrub");
    }
  }
  const JsonValue* quarantined =
      scrub != nullptr ? scrub->Find("quarantined") : nullptr;
  if (scrub == nullptr ||
      (a.rounds > 0 && (quarantined == nullptr || quarantined->AsU64() == 0))) {
    std::fprintf(stderr,
                 "soak: boot scrub reported no quarantined entries "
                 "despite planted corruption\n");
    return 1;
  }
  // Graceful drain: SIGTERM -> exit 3, the daemon's documented contract.
  const Exit fe = daemon.Stop(SIGTERM);
  if (!fe.Is(3)) {
    std::fprintf(stderr,
                 "soak: drained daemon was supposed to exit 3, got %s\n",
                 fe.Describe().c_str());
    return 1;
  }
  std::printf("soak: serve drill passed: %" PRIu64 " chaos round(s) + clean "
              "round, %" PRIu64 " served cell(s) bit-identical to the "
              "reference, scrub quarantined planted corruption, drain "
              "exit 3\n",
              a.rounds, identical_cells);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const SoakArgs a = ParseArgs(argc, argv);
  if (a.worker) return WorkerMain(a);

  const fs::path self = SelfPath(argv[0]);
  const fs::path dir = a.dir;
  const fs::path drills[] = {dir / "cli", dir / "serve"};
  for (const fs::path& d : drills) {
    std::error_code ec;
    fs::remove_all(d, ec);
    if (!ec) fs::create_directories(d, ec);
    if (ec) {
      std::fprintf(stderr, "soak: cannot create %s: %s\n", d.c_str(),
                   ec.message().c_str());
      return 1;
    }
  }
  if (CliDrill(a, self, drills[0].string()) != 0 ||
      ServeDrill(a, self, drills[1].string()) != 0) {
    return 1;
  }
  std::printf("soak PASSED: both drills\n");
  if (!a.keep) {
    std::error_code ec;
    for (const fs::path& d : drills) fs::remove_all(d, ec);
    fs::remove(dir, ec);  // only if nothing else lives there
  }
  return 0;
}
