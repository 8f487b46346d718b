// Shared reporting helpers for the benchmark harness: each bench binary
// regenerates one table or figure of the paper and prints the measured
// series next to the paper's reported values where applicable. All
// drivers run their workload×mode matrix through the parallel
// BatchRunner (sim/runner.h) and are gated by the differential-
// consistency oracle: a driver exits non-zero if any output-equivalence,
// determinism or invariant check fails, instead of silently printing a
// wrong table. Common CLI: --jobs N, --json PATH, --filter SUBSTR,
// --repeats K, --no-oracle, --reference, the cell store --cache DIR,
// plus the resilience flags --isolate, --deadline-ms, --mem-limit-mb and
// --breaker (docs/RESILIENCE.md).
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "resilience/supervisor.h"
#include "serve/cache.h"
#include "serve/flags.h"
#include "sim/report.h"
#include "sim/runner.h"
#include "sim/system.h"
#include "trace/chrome_export.h"

namespace dsa::bench {

struct BenchOptions {
  sim::RunnerOptions runner;  // --jobs, --repeats, --no-oracle
  std::string json_path;      // --json <path>; empty = no JSON emitted
  std::string filter;         // --filter <substr> on workload names
  std::string trace_path;     // --trace <path>; empty = tracing disabled
  // --faults <spec>: deterministic fault injection for DSA cells, e.g.
  // "cidp@0,bitflip@2+3;seed=7" (grammar in docs/FAULTS.md).
  fault::FaultPlan faults;
  // Resilience layer (docs/RESILIENCE.md): --isolate, --deadline-ms N,
  // --mem-limit-mb N, --breaker N.
  resilience::SupervisorOptions resilience;
  // --cache DIR: the content-addressed cell store (serve/cache.h).
  // Completed cells already stored are restored instead of executed and
  // every fresh "ok" cell is stored, so re-running a killed sweep over
  // the same directory resumes it.
  std::string cache_dir;
  // Built (and attached to `runner`) by ParseBenchArgs when a resilience
  // flag or --cache is given; FinishBench reads their census for the
  // JSON.
  std::shared_ptr<resilience::Supervisor> supervisor;
  std::shared_ptr<serve::ResultCache> cache;
  bool reference = false;     // --reference: pre-optimization sim paths
  // --interleave N (bench_throughput): load-immune A/B measurement — per
  // cell, N back-to-back fast/--reference pairs on the same binary, with
  // the median of the per-pair host-MIPS ratios reported. Host load hits
  // both arms of a pair alike, so the ratio survives the ±30% wall-clock
  // swings documented in docs/PERF.md.
  int interleave = 0;
  // --assert-ratio X: with --interleave, exit non-zero unless every cell's
  // median fast/reference ratio is >= X (the scripts/check.sh perf gate).
  double assert_ratio = 0.0;
  // Seeded loop-nest generator (workloads/gen): --gen-seed is the base
  // seed of the sweep, --gen-count the number of generated programs
  // (0 = the driver's default population).
  std::uint64_t gen_seed = 1;
  int gen_count = 0;
};

// Strict numeric flag parsing, with the daemon's rules (serve/flags.h):
// the whole token must be a decimal number, so `--jobs 4x` or `--jobs ""`
// is a usage error instead of whatever atoi() would silently make of it,
// and an out-of-range value is refused instead of saturated or wrapped.
// Prints `<flag> <reason>` and exits 2 on a bad token.
inline long ParseCountArg(const std::string& flag, const char* text) {
  long v = 0;
  std::string error;
  if (!serve::ParseCountText(text, v, &error)) {
    std::fprintf(stderr, "%s %s\n", flag.c_str(), error.c_str());
    std::exit(2);
  }
  return v;
}

// The unsigned twin for `--gen-seed`: any 64-bit seed is legal, but a
// sign or an overflowing token is refused.
inline std::uint64_t ParseU64Arg(const std::string& flag, const char* text) {
  std::uint64_t v = 0;
  std::string error;
  if (!serve::ParseU64Text(text, v, &error)) {
    std::fprintf(stderr, "%s %s\n", flag.c_str(), error.c_str());
    std::exit(2);
  }
  return v;
}

// Strict double parsing for `--assert-ratio`: whole token must be a
// finite non-negative number.
inline double ParseRatioArg(const std::string& flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !(v >= 0.0) ||
      !std::isfinite(v)) {
    std::fprintf(stderr, "%s expects a non-negative number, got \"%s\"\n",
                 flag.c_str(), text);
    std::exit(2);
  }
  return v;
}

// Largest generated-program population one sweep may request. Far above
// any useful sweep, but low enough that a typo'd count fails fast instead
// of allocating for hours.
inline constexpr long kMaxGenCount = 1'000'000;

// Parses the shared harness flags; unknown flags abort with usage so a
// typo cannot silently fall back to defaults.
inline BenchOptions ParseBenchArgs(int argc, char** argv) {
  BenchOptions o;
  bool jobs_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--jobs") {
      o.runner.jobs = static_cast<int>(ParseCountArg(arg, value()));
      jobs_given = true;
    } else if (arg == "--repeats") {
      const long n = ParseCountArg(arg, value());
      if (n < 1 || n > sim::kMaxRepeats) {
        std::fprintf(stderr, "--repeats must be in [1, %d], got %ld\n",
                     sim::kMaxRepeats, n);
        std::exit(2);
      }
      o.runner.repeats = static_cast<int>(n);
    } else if (arg == "--json") {
      o.json_path = value();
    } else if (arg == "--filter") {
      o.filter = value();
    } else if (arg == "--no-oracle") {
      o.runner.oracle = false;
    } else if (arg == "--trace") {
      o.trace_path = value();
    } else if (arg == "--faults") {
      try {
        o.faults = fault::ParseFaultPlan(value());
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(2);
      }
    } else if (arg == "--gen-seed") {
      o.gen_seed = ParseU64Arg(arg, value());
    } else if (arg == "--gen-count") {
      const long n = ParseCountArg(arg, value());
      if (n < 0 || n > kMaxGenCount) {
        std::fprintf(stderr, "--gen-count must be in [0, %ld], got %ld\n",
                     kMaxGenCount, n);
        std::exit(2);
      }
      o.gen_count = static_cast<int>(n);
    } else if (arg == "--interleave") {
      const long n = ParseCountArg(arg, value());
      if (n < 1 || n > 999) {
        std::fprintf(stderr, "--interleave must be in [1, 999], got %ld\n", n);
        std::exit(2);
      }
      o.interleave = static_cast<int>(n);
    } else if (arg == "--assert-ratio") {
      o.assert_ratio = ParseRatioArg(arg, value());
    } else if (arg == "--reference") {
      o.reference = true;
    } else if (arg == "--isolate") {
      o.resilience.isolate = true;
    } else if (arg == "--cache") {
      o.cache_dir = value();
    } else if (arg == "--deadline-ms") {
      o.resilience.deadline_ms =
          static_cast<std::uint64_t>(ParseCountArg(arg, value()));
    } else if (arg == "--mem-limit-mb") {
      o.resilience.mem_limit_mb =
          static_cast<std::uint64_t>(ParseCountArg(arg, value()));
    } else if (arg == "--breaker") {
      o.resilience.breaker_threshold =
          static_cast<int>(ParseCountArg(arg, value()));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--jobs N] [--repeats K] [--json PATH] "
                   "[--filter SUBSTR] [--trace PATH] [--faults SPEC] "
                   "[--no-oracle] [--reference] "
                   "[--interleave N] [--assert-ratio X] "
                   "[--gen-seed S] [--gen-count N] "
                   "[--cache DIR] [--isolate] "
                   "[--deadline-ms N] [--mem-limit-mb N] [--breaker N]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  if (jobs_given) {
    // Clamp to [1, hardware_concurrency]: more workers than cores only
    // adds contention, and 0/negative would silently re-enable the
    // autodetect the user just tried to override.
    int hw = static_cast<int>(std::thread::hardware_concurrency());
    if (hw <= 0) hw = 1;
    if (o.runner.jobs < 1) {
      std::fprintf(stderr, "warning: --jobs %d clamped to 1\n",
                   o.runner.jobs);
      o.runner.jobs = 1;
    } else if (o.runner.jobs > hw) {
      std::fprintf(stderr,
                   "warning: --jobs %d exceeds the %d available hardware "
                   "thread(s); clamped to %d\n",
                   o.runner.jobs, hw, hw);
      o.runner.jobs = hw;
    }
  }
  if ((o.resilience.deadline_ms > 0 || o.resilience.mem_limit_mb > 0) &&
      !o.resilience.isolate) {
    std::fprintf(stderr,
                 "--deadline-ms/--mem-limit-mb enforce limits on a forked "
                 "child; add --isolate\n");
    std::exit(2);
  }
  if ((o.resilience.isolate || !o.cache_dir.empty()) &&
      !o.trace_path.empty()) {
    // Neither the isolation pipe nor the cell store carries the
    // structured trace, so --trace would end with "no job produced a
    // trace" (or silently drop restored cells' trace blocks).
    std::fprintf(stderr, "--trace is not supported with --isolate or "
                         "--cache\n");
    std::exit(2);
  }
  const bool supervised = o.resilience.any() || !o.cache_dir.empty();
  if (o.interleave > 0 &&
      (o.reference || !o.json_path.empty() || !o.trace_path.empty() ||
       o.faults.enabled() || supervised)) {
    // The interleave loop runs its own reference arm and bypasses the
    // batch runner entirely, so the runner-side flags have nothing to
    // attach to; refuse instead of silently ignoring them.
    std::fprintf(stderr,
                 "--interleave is a standalone fast-vs-reference A/B loop; "
                 "drop --reference/--json/--trace/"
                 "--faults/--cache and the resilience flags\n");
    std::exit(2);
  }
  if (o.assert_ratio > 0.0 && o.interleave == 0) {
    std::fprintf(stderr, "--assert-ratio requires --interleave\n");
    std::exit(2);
  }
  if (o.faults.enabled() && o.runner.oracle && o.runner.repeats < 2 &&
      !o.faults.seed_explicit) {
    // With one sample per cell the determinism oracle cannot prove the
    // injector replayed identically, and an unpinned seed leaves nothing
    // to reproduce a report against. Refuse instead of emitting numbers
    // the harness cannot vouch for.
    std::fprintf(stderr,
                 "--faults with --repeats %d and no explicit seed leaves the "
                 "determinism oracle blind; pin the seed (\"...;seed=N\"), "
                 "use --repeats 2, or pass --no-oracle\n",
                 o.runner.repeats);
    std::exit(2);
  }
  if (o.runner.oracle && o.runner.repeats < 2) {
    // The determinism layer of the oracle diffs repeated executions of the
    // same job; with a single sample it silently has nothing to compare.
    std::fprintf(stderr,
                 "warning: --repeats %d leaves the determinism oracle with "
                 "<2 samples per job; only invariant and equivalence checks "
                 "will run (use --repeats 2 or --no-oracle)\n",
                 o.runner.repeats);
  }
  if (supervised) {
    // The drain handler comes with --cache too: an interrupted sweep
    // finishes its in-flight cells (and stores them) before exiting 3.
    o.supervisor = std::make_shared<resilience::Supervisor>(o.resilience);
    o.supervisor->Attach(o.runner);
  }
  if (!o.cache_dir.empty()) {
    o.cache = std::make_shared<serve::ResultCache>();
    std::string err;
    if (!o.cache->Open(o.cache_dir, &err)) {
      std::fprintf(stderr, "%s\n", err.c_str());
      std::exit(2);
    }
    serve::AttachCache(*o.cache, o.runner);
  }
  return o;
}

// The driver's base SystemConfig: defaults plus everything the shared
// flags configure (event tracing, fault injection, reference paths).
// Drivers derive their per-table config variations from this instead of
// a bare `SystemConfig cfg;`.
[[nodiscard]] inline sim::SystemConfig BaseConfig(const BenchOptions& o) {
  sim::SystemConfig cfg;
  cfg.trace.enabled = !o.trace_path.empty();
  cfg.reference_path = o.reference;
  cfg.faults = o.faults;
  return cfg;
}

[[nodiscard]] inline bool KeepWorkload(const BenchOptions& o,
                                       const std::string& name) {
  if (o.filter.empty()) return true;
  auto lower = [](std::string s) {
    for (char& c : s) c = static_cast<char>(std::tolower(c));
    return s;
  };
  return lower(name).find(lower(o.filter)) != std::string::npos;
}

// The members of `set` that --filter keeps.
[[nodiscard]] inline std::vector<sim::Workload> KeepWorkloads(
    const BenchOptions& o, std::vector<sim::Workload> set) {
  std::erase_if(set, [&o](const sim::Workload& wl) {
    return !KeepWorkload(o, wl.name);
  });
  return set;
}

// Rendering accessor used by the table loops instead of the throwing
// BatchRunner::Result(): a cell that crashed, timed out, was skipped by
// the circuit breaker or was cancelled by a graceful drain yields a
// zeroed placeholder row (with a stderr note) so the driver still
// renders its table and reaches FinishBench, which reports the failure
// in the JSON and the exit code. Without resilience flags every such
// failure still fails the run — the oracle records a run.exception
// violation for any cell with an error.
inline const sim::RunResult& ResultOrEmpty(sim::BatchRunner& runner,
                                           const std::string& key) {
  // The placeholder carries zeroed DSA stats, not an empty optional: the
  // DSA-table printers dereference r.dsa unconditionally.
  static const sim::RunResult kEmpty = [] {
    sim::RunResult r;
    r.dsa.emplace();
    return r;
  }();
  const sim::JobOutcome& out = runner.Outcome(key);
  if (out.cell_status != "ok" || out.runs.empty()) {
    std::fprintf(stderr, "note: cell %s unavailable (%s); table row zeroed\n",
                 key.c_str(), out.cell_status.c_str());
    return kEmpty;
  }
  return out.result();
}

// Oracle summary + JSON emission + exit code for a runner-based driver.
// Call after rendering the tables; returns the process exit code:
// 0 complete, 1 oracle violation or write failure, 3 interrupted by a
// graceful drain (SIGINT/SIGTERM) with partial results emitted.
inline int FinishBench(sim::BatchRunner& runner, const BenchOptions& o,
                       const char* bench_name) {
  const sim::BatchReport report = runner.Finish();
  std::printf(
      "\n[%s] %llu distinct jobs (%llu runs, %llu memoized submissions) "
      "in %.0f ms with %d worker(s)\n",
      bench_name, static_cast<unsigned long long>(report.distinct_jobs),
      static_cast<unsigned long long>(report.executed_runs),
      static_cast<unsigned long long>(report.memo_hits), report.wall_ms,
      runner.options().jobs);
  sim::BenchJsonExtras extras;
  if (o.supervisor) {
    extras = o.supervisor->Extras(report);
  } else if (report.interrupted) {
    extras.run_status = "interrupted";
  }
  if (o.cache) {
    serve::ReportCache(*o.cache, extras);
    std::printf("[%s] cell store %s: %llu cell(s) restored, %llu stored\n",
                bench_name, o.cache_dir.c_str(),
                static_cast<unsigned long long>(report.restored_cells),
                static_cast<unsigned long long>(extras.cache_stores));
  }
  if (extras.run_status == "interrupted") {
    std::fprintf(stderr,
                 "[%s] interrupted: %llu queued cell(s) cancelled by the "
                 "graceful drain; emitting partial results\n",
                 bench_name,
                 static_cast<unsigned long long>(report.cancelled_cells));
  }
  if (extras.breaker_enabled) {
    for (const auto& b : extras.breaker) {
      if (b.trips == 0 && b.skipped == 0) continue;
      std::printf("[%s] breaker %s: state=%s trips=%llu skipped=%llu\n",
                  bench_name, b.workload.c_str(), b.state.c_str(),
                  static_cast<unsigned long long>(b.trips),
                  static_cast<unsigned long long>(b.skipped));
    }
  }
  if (runner.options().oracle) {
    if (report.ok()) {
      std::printf("[%s] oracle: all equivalence/determinism/invariant "
                  "checks passed\n",
                  bench_name);
    } else {
      std::fputs(sim::oracle::FormatViolations(report.violations).c_str(),
                 stderr);
      std::fprintf(stderr, "[%s] oracle: %zu violation(s)\n", bench_name,
                   report.violations.size());
    }
  }
  if (!o.json_path.empty()) {
    if (sim::WriteBenchJson(o.json_path, bench_name, runner, report,
                            &extras)) {
      std::printf("[%s] wrote %s\n", bench_name, o.json_path.c_str());
    } else {
      std::fprintf(stderr, "[%s] could not write %s\n", bench_name,
                   o.json_path.c_str());
      return 1;
    }
  }
  if (!o.trace_path.empty()) {
    // One Chrome process per traced job; DSA jobs additionally get the
    // per-loop text profile on stdout.
    std::vector<trace::ChromeProcess> procs;
    for (const auto& [key, out] : runner.outcomes()) {
      if (out.runs.empty() || out.result().trace == nullptr) continue;
      procs.push_back(trace::ChromeProcess{key, out.result().trace.get()});
      if (out.result().dsa.has_value()) {
        std::fputs(sim::FormatTraceProfile(out.result()).c_str(), stdout);
      }
    }
    if (procs.empty()) {
      std::fprintf(stderr, "[%s] --trace given but no job produced a trace\n",
                   bench_name);
      return 1;
    }
    if (trace::WriteChromeTrace(o.trace_path, procs)) {
      std::printf("[%s] wrote %s (%zu traced job(s); open in "
                  "chrome://tracing or ui.perfetto.dev)\n",
                  bench_name, o.trace_path.c_str(), procs.size());
    } else {
      std::fprintf(stderr, "[%s] could not write %s\n", bench_name,
                   o.trace_path.c_str());
      return 1;
    }
  }
  if (!report.ok()) return 1;
  return extras.run_status == "interrupted" ? 3 : 0;
}

// Prints the Table 4 "Systems Setup" header so every bench is
// self-describing.
inline void PrintSetupHeader(const sim::SystemConfig& cfg = {}) {
  std::printf(
      "systems setup (Table 4): O3-style ARMv7 core, %u-wide, 1 GHz | "
      "L1 %u kB / L2 %u kB LRU | NEON 128-bit, 16 Q regs | DSA cache %u kB, "
      "VC %u kB, %u array maps\n\n",
      cfg.timing.superscalar_width, cfg.memory.l1.size_bytes / 1024,
      cfg.memory.l2.size_bytes / 1024, cfg.dsa.dsa_cache_bytes / 1024,
      cfg.dsa.verification_cache_bytes / 1024, cfg.dsa.array_maps);
}

// Performance improvement (%) over a baseline, the paper's reporting unit:
// +31 means 31% faster (speedup 1.31).
inline double ImprovementPct(const sim::RunResult& base,
                             const sim::RunResult& x) {
  return (sim::SpeedupOver(base, x) - 1.0) * 100.0;
}

// Energy savings (%) over a baseline.
inline double EnergySavingsPct(const sim::RunResult& base,
                               const sim::RunResult& x) {
  if (base.energy.total() <= 0) return 0;
  return (1.0 - x.energy.total() / base.energy.total()) * 100.0;
}

inline double GeoMeanSpeedup(const std::vector<double>& speedups) {
  double log_sum = 0;
  for (const double s : speedups) log_sum += std::log(s);
  return std::exp(log_sum / static_cast<double>(speedups.size()));
}

}  // namespace dsa::bench
