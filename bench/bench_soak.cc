// Soak driver for the resilience layer (docs/RESILIENCE.md): proves the
// cell store's resume guarantee end to end. One invocation
//
//   1. runs a seeded randomized sweep uninterrupted and keeps its bench
//      JSON as the reference,
//   2. re-runs the same sweep over a cell-store directory in a worker
//      process that SIGKILLs itself at a seeded point mid-batch (after K
//      store publishes, K chosen from the seed), leaving a partly filled
//      store behind,
//   3. re-runs the sweep over the same directory in a fresh worker, which
//      restores the stored cells and writes its bench JSON,
//   4. gates on the resumed JSON being bit-identical to the reference
//      after stripping host-volatile fields (wall clock, host MIPS,
//      store/restored bookkeeping) — every digest, cycle count, cache
//      and energy number must match exactly.
//
// The worker re-executes this same binary (--worker) so the kill lands
// in a real process mid-run, not in a simulated harness. Exits 0 only if
// the kill happened, the resume restored at least one cell, and the
// reports match bit-for-bit.
//
// Usage: bench_soak [--steps small|full] [--seed N] [--jobs N]
//                   [--dir PATH] [--keep]
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "resilience/mini_json.h"
#include "resilience/supervisor.h"
#include "serve/cache.h"
#include "workloads/workloads.h"

namespace {

using dsa::resilience::JsonValue;

struct SoakArgs {
  bool worker = false;
  std::string steps = "small";
  std::uint64_t seed = 7;
  int jobs = 2;
  std::string dir = "bench_soak.tmp";
  bool keep = false;
  // Worker-only:
  std::string json_path;
  std::string cache_dir;
  std::uint64_t kill_after = 0;  // SIGKILL self after K store publishes
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--steps small|full] [--seed N] [--jobs N] "
               "[--dir PATH] [--keep]\n",
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
    if (arg == "--worker") {
      a.worker = true;
    } else if (arg == "--steps") {
      a.steps = value();
      if (a.steps != "small" && a.steps != "full") Usage(argv[0]);
    } else if (arg == "--seed") {
      a.seed = static_cast<std::uint64_t>(
          dsa::bench::ParseCountArg(arg, value()));
    } else if (arg == "--jobs") {
      a.jobs = static_cast<int>(dsa::bench::ParseCountArg(arg, value()));
    } else if (arg == "--dir") {
      a.dir = value();
    } else if (arg == "--keep") {
      a.keep = true;
    } else if (arg == "--json") {
      a.json_path = value();
    } else if (arg == "--cache") {
      a.cache_dir = value();
    } else if (arg == "--kill-after") {
      a.kill_after = static_cast<std::uint64_t>(
          dsa::bench::ParseCountArg(arg, value()));
    } else {
      Usage(argv[0]);
    }
  }
  return a;
}

// The seeded sweep both the reference and the killed/resumed runs
// execute: a few size-randomized workloads across three run modes. The
// same (seed, steps) always builds the same sweep — that determinism is
// what makes the bit-identical gate meaningful.
std::vector<dsa::sim::Workload> BuildSweep(const SoakArgs& a) {
  std::mt19937_64 rng(a.seed);
  auto pick = [&rng](int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<std::uint64_t>(
                                             hi - lo + 1));
  };
  std::vector<dsa::sim::Workload> sweep;
  sweep.push_back(dsa::workloads::MakeVecAdd(256 * pick(2, 8)));
  sweep.push_back(dsa::workloads::MakeBitCount(512 * pick(2, 6)));
  sweep.push_back(dsa::workloads::MakeShiftAdd(256 * pick(2, 8), pick(4, 16)));
  sweep.push_back(dsa::workloads::MakeStrCopy(500 * pick(2, 6)));
  if (a.steps == "full") {
    sweep.push_back(dsa::workloads::MakeRgbGray(1024 * pick(4, 16)));
    sweep.push_back(dsa::workloads::MakeSusanE(1024 * pick(4, 12), 48));
    sweep.push_back(dsa::workloads::MakeMatMul(8 * pick(3, 6)));
    sweep.push_back(dsa::workloads::MakeQSort(256 * pick(2, 6)));
  }
  return sweep;
}

constexpr dsa::sim::RunMode kModes[] = {dsa::sim::RunMode::kScalar,
                                        dsa::sim::RunMode::kAutoVec,
                                        dsa::sim::RunMode::kDsa};

std::size_t SweepCells(const SoakArgs& a) {
  return BuildSweep(a).size() * (sizeof(kModes) / sizeof(kModes[0]));
}

// ---------------------------------------------------------------------------
// Worker: one sweep through the BatchRunner under the supervisor, backed
// by the cell store when --cache is given, with an optional self-SIGKILL
// after `kill_after` store publishes.

int WorkerMain(const SoakArgs& a) {
  dsa::resilience::SupervisorOptions so;
  dsa::resilience::Supervisor sup(so);
  std::string err;
  if (!sup.Init(&err)) {
    std::fprintf(stderr, "soak worker: %s\n", err.c_str());
    return 2;
  }

  dsa::sim::RunnerOptions ro;
  ro.jobs = a.jobs;
  ro.repeats = 2;  // give the determinism oracle two samples per cell
  sup.Attach(ro);

  dsa::serve::ResultCache cache;
  if (!a.cache_dir.empty()) {
    if (!cache.Open(a.cache_dir, &err)) {
      std::fprintf(stderr, "soak worker: %s\n", err.c_str());
      return 2;
    }
    dsa::serve::AttachCache(cache, ro);
  }
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

  dsa::sim::BatchRunner runner(ro);
  const dsa::sim::SystemConfig cfg;
  for (const dsa::sim::Workload& wl : BuildSweep(a)) {
    for (const dsa::sim::RunMode mode : kModes) {
      runner.Submit(wl, mode, cfg);
    }
  }
  const dsa::sim::BatchReport report = runner.Finish();
  dsa::sim::BenchJsonExtras extras = sup.Extras(report);
  if (cache.open()) dsa::serve::ReportCache(cache, extras);
  if (!dsa::sim::WriteBenchJson(a.json_path, "soak", runner, report,
                                &extras)) {
    std::fprintf(stderr, "soak worker: could not write %s\n",
                 a.json_path.c_str());
    return 1;
  }
  std::printf("soak worker: %" PRIu64 " distinct job(s), %" PRIu64
              " restored, cell store %s\n",
              report.distinct_jobs, report.restored_cells,
              a.cache_dir.empty() ? "off" : a.cache_dir.c_str());
  return report.ok() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Orchestrator: reference run, killed run, resumed run, canonical diff.

std::string SelfPath(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

struct WorkerExit {
  bool signalled = false;
  int signal = 0;
  int code = -1;
};

WorkerExit RunWorker(const std::string& self,
                     const std::vector<std::string>& extra) {
  std::vector<std::string> args = {self, "--worker"};
  args.insert(args.end(), extra.begin(), extra.end());
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);

  WorkerExit we;
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    return we;
  }
  if (pid == 0) {
    ::execv(self.c_str(), argv.data());
    std::perror("execv");
    ::_exit(127);
  }
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

int OrchestratorMain(const SoakArgs& a, const char* argv0) {
  const std::string self = SelfPath(argv0);
  const std::string dir = a.dir;
  std::string cmd = "mkdir -p '" + dir + "'";
  if (std::system(cmd.c_str()) != 0) {
    std::fprintf(stderr, "soak: cannot create %s\n", dir.c_str());
    return 1;
  }
  const std::string ref_json = dir + "/reference.json";
  const std::string soak_json = dir + "/resumed.json";
  const std::string store = dir + "/store";
  std::remove(soak_json.c_str());
  cmd = "rm -rf '" + store + "'";
  if (std::system(cmd.c_str()) != 0) {
    std::fprintf(stderr, "soak: cannot empty %s\n", store.c_str());
    return 1;
  }

  const std::size_t cells = SweepCells(a);
  const std::uint64_t kill_after = 1 + a.seed % (cells - 1);
  const std::string seed_s = std::to_string(a.seed);
  const std::string jobs_s = std::to_string(a.jobs);
  std::printf("soak: steps=%s seed=%" PRIu64 " (%zu cells, kill after %" PRIu64
              " store publish(es))\n",
              a.steps.c_str(), a.seed, cells, kill_after);

  // 1. Reference: the uninterrupted sweep.
  WorkerExit ref = RunWorker(self, {"--steps", a.steps, "--seed", seed_s,
                                    "--jobs", jobs_s, "--json", ref_json});
  if (ref.signalled || ref.code != 0) {
    std::fprintf(stderr, "soak: reference run failed (exit %d)\n", ref.code);
    return 1;
  }

  // 2. The same sweep, SIGKILLed mid-batch after `kill_after` publishes.
  WorkerExit killed = RunWorker(
      self, {"--steps", a.steps, "--seed", seed_s, "--jobs", jobs_s, "--json",
             soak_json, "--cache", store, "--kill-after",
             std::to_string(kill_after)});
  if (!killed.signalled || killed.signal != SIGKILL) {
    std::fprintf(stderr,
                 "soak: kill run was supposed to die on SIGKILL, got "
                 "%s %d\n",
                 killed.signalled ? "signal" : "exit",
                 killed.signalled ? killed.signal : killed.code);
    return 1;
  }

  // 3. Resume: the same sweep over the partly filled store.
  WorkerExit resumed = RunWorker(
      self, {"--steps", a.steps, "--seed", seed_s, "--jobs", jobs_s, "--json",
             soak_json, "--cache", store});
  if (resumed.signalled || resumed.code != 0) {
    std::fprintf(stderr, "soak: resume run failed (exit %d)\n", resumed.code);
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
  std::printf("soak PASSED: killed-and-resumed sweep is bit-identical to "
              "the uninterrupted run (%" PRIu64 " cell(s) restored, %zu "
              "canonical byte(s) compared)\n",
              restored->AsU64(), canon_ref.size());
  if (!a.keep) {
    cmd = "rm -rf '" + dir + "'";
    (void)std::system(cmd.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const SoakArgs a = ParseArgs(argc, argv);
  if (a.worker) return WorkerMain(a);
  return OrchestratorMain(a, argv[0]);
}
