// perfbench — the repo benchmark (perfbench/README.md). One invocation
// measures one workload for a fixed time and prints, as the last line of
// stdout, one JSON object with the correctness verdict, the operation
// tally and the metrics: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1.
//
//   perfbench --workload cli-sweep|serve-warm|serve-cold --seed N
//             --seconds S --trace 0|1 --serve-bin PATH --work-dir DIR
//
// Every layer is timed from outside, around calls into the public API of
// src/workloads, src/sim, src/serve and src/resilience; no code under
// src/ is instrumented. Simulated results are checked against an
// in-process sim::Run reference and never scored.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core.h"
#include "resilience/journal.h"
#include "resilience/mini_json.h"
#include "serve/cache.h"
#include "serve/daemon.h"
#include "serve/proto.h"
#include "sim/runner.h"
#include "workloads/workloads.h"

extern char** environ;

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using dsa::resilience::JsonValue;
using dsa::sim::BatchJob;
using dsa::sim::JobOutcome;
using dsa::sim::RunMode;
using dsa::sim::RunResult;
using perfbench::Median;
using perfbench::Percentile;
using perfbench::Ratio;
using perfbench::Reference;
using perfbench::Tally;

// Fixed load shape (never more threads or connections than a 4-vCPU host
// has): CLI sweep workers, daemon simulation workers, client connections.
constexpr int kCliJobs = 2;
constexpr int kCliRepeats = 2;
constexpr int kGenPrograms = 12;
constexpr int kDaemonWorkers = 2;
constexpr int kWarmConnections = 2;
constexpr int kColdConnections = 1;
// Set-up is repeated and its median reported.
constexpr int kSetupReps = 21;
// Requests generated per run; a run that outlasts them wraps around.
constexpr std::size_t kSequenceLength = 100'000;
// Traced serve phases replay every kReplayEveryBlocks-th block of
// perfbench::kSweepEvery requests, so the replayed sample keeps the mix.
constexpr std::size_t kReplayEveryBlocks = 4;
// Hard timeouts: a wedged daemon fails the run instead of hanging it.
constexpr int kReadyTimeoutMs = 10'000;
constexpr int kRequestTimeoutMs = 30'000;
constexpr int kDrainTimeoutMs = 10'000;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
double MsSince(Clock::time_point t0) { return MsBetween(t0, Clock::now()); }

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string serve_bin;
  std::string work_dir;
  // A traced run splits its time between an untraced and a traced phase
  // (their difference is the tracing overhead), so every run measures for
  // --seconds in all.
  [[nodiscard]] double PhaseSeconds() const { return trace ? seconds / 2 : seconds; }
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string v = argv[++i];
    if (arg == "--workload") {
      a.workload = v;
    } else if (arg == "--seed") {
      a.seed = std::stoull(v);
      have_seed = true;
    } else if (arg == "--seconds") {
      a.seconds = std::stod(v);
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (arg == "--serve-bin") {
      a.serve_bin = v;
    } else if (arg == "--work-dir") {
      a.work_dir = v;
    } else {
      throw std::invalid_argument("unknown flag " + arg);
    }
  }
  if (a.workload != "cli-sweep" && a.workload != "serve-warm" &&
      a.workload != "serve-cold") {
    throw std::invalid_argument("--workload must be cli-sweep, serve-warm or serve-cold");
  }
  if (!have_seed || a.seconds <= 0 || a.work_dir.empty()) {
    throw std::invalid_argument("--seed, --seconds > 0 and --work-dir are required");
  }
  if (a.workload != "cli-sweep" && a.serve_bin.empty()) {
    throw std::invalid_argument("--serve-bin is required for the serve workloads");
  }
  return a;
}

// --- output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Collects the metrics of one run; each is printed as it is added, with
// its note, and the whole set becomes the result line's "metrics".
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    list_.push_back({name, value, unit});
    std::printf("  %-26s %14.6g %-6s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
  }
  // A percentile, printed with its sample count and whether at least ten
  // samples lie beyond it.
  void Add(const std::string& name, const Percentile& p) {
    char note[96];
    std::snprintf(note, sizeof(note), "p%d of %zu samples, %zu beyond%s", p.pct,
                  p.samples, p.beyond,
                  p.resolved ? "" : " (UNRESOLVED: fewer than 10 beyond)");
    Add(name, p.value, "ms", note);
  }
  void Add(const std::string& name, const Ratio& r) {
    char note[64];
    std::snprintf(note, sizeof(note), "%" PRIu64 " / %" PRIu64, r.num, r.base);
    Add(name, r.value(), "ratio", note);
  }
  [[nodiscard]] std::string Json() const {
    std::string s = "{";
    for (std::size_t i = 0; i < list_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", list_[i].value);
      if (i > 0) s += ", ";
      s += "\"" + list_[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           list_[i].unit + "\"}";
    }
    return s + "}";
  }

 private:
  std::vector<Metric> list_;
};

void PrintResult(bool correct, const Tally& tally, const Metrics& m) {
  if (!tally.first_problem.empty()) {
    std::printf("first failed operation: %s\n", tally.first_problem.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              correct ? "true" : "false", tally.attempted, tally.failed,
              m.Json().c_str());
  std::fflush(stdout);
}

// --- measured quantities --------------------------------------------------

// Host MIPS (Σ host_steps / Σ host_wall_ms) of a set of runs: over all
// of them, over neon-dsa runs only, over non-DSA-mode runs only.
struct MipsAcc {
  double steps[2] = {0, 0};  // [0] non-DSA modes, [1] neon-dsa
  double ms[2] = {0, 0};
  void Add(const RunResult& r) {
    const int k = r.mode == RunMode::kDsa ? 1 : 0;
    steps[k] += static_cast<double>(r.host_steps);
    ms[k] += r.host_wall_ms;
  }
  static double Mips(double s, double m) { return m > 0 ? s / (m * 1e3) : 0; }
  [[nodiscard]] double all() const { return Mips(steps[0] + steps[1], ms[0] + ms[1]); }
  [[nodiscard]] double dsa() const { return Mips(steps[1], ms[1]); }
  [[nodiscard]] double scalar() const { return Mips(steps[0], ms[0]); }
};

// The end-to-end view of one measured phase.
struct EndToEnd {
  std::vector<double> sweep_ms;
  std::vector<double> cell_ms;
  double cells = 0;
  double seconds = 0;  // denominator of cells_per_s
  [[nodiscard]] double cells_per_s() const { return seconds > 0 ? cells / seconds : 0; }
};

// Daemon cache counters from the `health` response.
struct CacheCounters {
  std::uint64_t hits = 0, misses = 0, stores = 0, store_failures = 0;
  CacheCounters operator-(const CacheCounters& o) const {
    return {hits - o.hits, misses - o.misses, stores - o.stores,
            store_failures - o.store_failures};
  }
};

// Every per-layer metric of one traced phase. Times and counts are sums
// over the phase, reported as means per unit of work (a sweep on
// cli-sweep, a request on the serve workloads); a layer the workload does
// not run stays 0.
struct Layers {
  double units = 0;
  double build_ms = 0;  // median over set-ups, not a sum
  // sim / cpu / engine / mem: RunResult::host_phases, dsa, l1, l2.
  double cell_setup_ms = 0, dispatch_ms = 0, observe_ms = 0, mem_ms = 0, covered_ms = 0;
  MipsAcc mips;
  std::uint64_t loop_detections = 0, takeovers = 0, l1_hits = 0, l1_misses = 0,
                l2_hits = 0;
  // runner
  double oracle_ms = 0, tail_ms = 0, executed_runs = 0;
  // serve: replayed stages, and counters from health. The daemon spreads
  // a sweep's cells over its workers, so a serial replay only accounts
  // for a request's latency when it has one cell: unattributed time is
  // taken over single-cell requests (`singles`) alone.
  double sweepjobs_ms = 0, key_ms = 0, cache_load_ms = 0, cache_store_ms = 0,
         exec_ms = 0, serialize_ms = 0, frame_ms = 0, unattributed_ms = 0;
  double singles = 0;
  double scrub_ms = 0;  // median over repeats, not a sum
  CacheCounters cache;

  // host_phases.neon_ms is the scalar interpretation of covered loops
  // (cpu.RunCovered + FinishTakeover), not NEON lanes: cpu.covered_ms.
  void AddOutcome(const JobOutcome& o) {
    if (o.runs.empty()) return;
    cell_setup_ms += o.wall_ms - o.runs[0].host_wall_ms;
    for (std::size_t i = 0; i < o.runs.size(); ++i) {
      const RunResult& r = o.runs[i];
      dispatch_ms += r.host_phases.dispatch_ms;
      observe_ms += r.host_phases.observe_ms;
      mem_ms += r.host_phases.mem_ms;
      covered_ms += r.host_phases.neon_ms;
      mips.Add(r);
      if (i > 0) continue;  // simulated counts: once per cell
      if (r.dsa) {
        loop_detections += r.dsa->stage_activations[static_cast<int>(
            dsa::engine::Stage::kLoopDetection)];
        takeovers += r.dsa->takeovers;
      }
      l1_hits += r.l1.hits;
      l1_misses += r.l1.misses;
      l2_hits += r.l2.hits;
    }
  }

  void Report(Metrics& m) const {
    const double u = units > 0 ? units : 1;
    const auto per = [u](double v) { return v / u; };
    const auto cnt = [u](std::uint64_t v) { return static_cast<double>(v) / u; };
    m.Add("workloads.build_ms", build_ms, "ms", "(median over set-ups)");
    m.Add("sim.cell_setup_ms", per(cell_setup_ms), "ms");
    m.Add("cpu.dispatch_ms", per(dispatch_ms), "ms");
    m.Add("cpu.steps", per(mips.steps[0] + mips.steps[1]), "count");
    m.Add("sim_mips", mips.all(), "MIPS");
    m.Add("sim_mips_dsa", mips.dsa(), "MIPS");
    m.Add("sim_mips_scalar", mips.scalar(), "MIPS");
    m.Add("cpu.covered_ms", per(covered_ms), "ms", "(host.phases.neon_ms)");
    m.Add("engine.observe_ms", per(observe_ms), "ms");
    m.Add("engine.loop_detections", cnt(loop_detections), "count");
    m.Add("engine.takeovers", cnt(takeovers), "count");
    m.Add("engine.takeover_ratio", Ratio{takeovers, loop_detections});
    m.Add("mem.walk_ms", per(mem_ms), "ms");
    m.Add("mem.l1_misses", cnt(l1_misses), "count");
    m.Add("mem.l2_hits", cnt(l2_hits), "count");
    m.Add("mem.l1_hit_ratio", Ratio{l1_hits, l1_hits + l1_misses});
    m.Add("runner.oracle_ms", per(oracle_ms), "ms");
    m.Add("runner.tail_ms", per(tail_ms), "ms");
    m.Add("runner.executed_runs", per(executed_runs), "count");
    m.Add("serve.sweepjobs_ms", per(sweepjobs_ms), "ms");
    m.Add("serve.key_ms", per(key_ms), "ms");
    m.Add("serve.cache_load_ms", per(cache_load_ms), "ms");
    m.Add("serve.cache_store_ms", per(cache_store_ms), "ms");
    m.Add("serve.exec_ms", per(exec_ms), "ms");
    m.Add("serve.serialize_ms", per(serialize_ms), "ms");
    m.Add("serve.frame_ms", per(frame_ms), "ms");
    m.Add("serve.unattributed_ms", singles > 0 ? unattributed_ms / singles : 0, "ms",
          "(per single-cell request)");
    m.Add("serve.scrub_ms", scrub_ms, "ms", "(median over repeats)");
    m.Add("serve.hit_ratio", Ratio{cache.hits, cache.hits + cache.misses});
    m.Add("serve.cache_hits", static_cast<double>(cache.hits), "count", "(phase total)");
    m.Add("serve.cache_misses", static_cast<double>(cache.misses), "count", "(phase total)");
    m.Add("serve.stores", static_cast<double>(cache.stores), "count", "(phase total)");
    m.Add("serve.store_failures", static_cast<double>(cache.store_failures), "count",
          "(phase total)");
  }
};

void ReportEndToEnd(Metrics& m, const EndToEnd& e, const std::vector<double>& setup_ms,
                    double rss_mb) {
  m.Add("setup_s", Median(setup_ms) / 1e3, "s",
        "(median of " + std::to_string(setup_ms.size()) + " set-ups)");
  m.Add("peak_rss_mb", rss_mb, "MB");
  m.Add("cells_per_s", e.cells_per_s(), "1/s");
  m.Add("sweep_ms_p50", perfbench::TakePercentile(e.sweep_ms, 50));
  m.Add("sweep_ms_p75", perfbench::TakePercentile(e.sweep_ms, 75));
  m.Add("cell_ms_p50", perfbench::TakePercentile(e.cell_ms, 50));
  m.Add("cell_ms_p99", perfbench::TakePercentile(e.cell_ms, 99));
}

// Tracing overhead: how much slower the traced phase moved cells than the
// untraced phase of the same run, with its two bases printed.
void PrintTraceOverhead(Metrics& m, const EndToEnd& untraced, const EndToEnd& traced) {
  const double a = untraced.cells_per_s();
  const double b = traced.cells_per_s();
  char note[96];
  std::snprintf(note, sizeof(note), "(cells_per_s untraced %.6g / traced %.6g)", a, b);
  m.Add("trace.overhead_pct", b > 0 ? (a / b - 1) * 100 : 0, "%", note);
  const double pa = perfbench::TakePercentile(untraced.cell_ms, 50).value;
  const double pb = perfbench::TakePercentile(traced.cell_ms, 50).value;
  std::printf("  cell_ms_p50 untraced %.6g ms, traced %.6g ms\n", pa, pb);
}

// The correctness reference: every job run once in-process with sim::Run,
// outside any timed region.
Reference ComputeReference(const std::vector<BatchJob>& jobs) {
  Reference ref;
  for (const BatchJob& job : jobs) {
    const RunResult r = dsa::sim::Run(job.workload, job.mode, job.config);
    ref[dsa::sim::JobKey(job)] = {r.cycles, r.output_digest};
  }
  return ref;
}

// --- cli-sweep ------------------------------------------------------------

struct CliSet {
  std::vector<BatchJob> jobs;
  double build_ms = 0;  // the workload-set factory calls alone
};

// bench_matrix's cell set plus MM 128x128 in all four modes and the seeded
// generator population in scalar and DSA modes.
CliSet BuildCliSet(std::uint64_t seed) {
  namespace wl = dsa::workloads;
  const auto t0 = Clock::now();
  const auto a3 = wl::Article3Set();
  const auto a2 = wl::Article2Set();
  const auto stream = wl::StreamingSet();
  const auto mm = wl::MakeMatMul(128);
  const auto gen = wl::gen::GeneratedSet(seed, kGenPrograms);
  CliSet set;
  set.build_ms = MsSince(t0);

  const dsa::sim::SystemConfig cfg;
  dsa::sim::SystemConfig orig_cfg;
  orig_cfg.dsa = dsa::engine::DsaConfig::Original();
  const RunMode all4[] = {RunMode::kScalar, RunMode::kAutoVec, RunMode::kHandVec,
                          RunMode::kDsa};
  std::set<std::string> seen;
  const auto add = [&](const dsa::sim::Workload& w, RunMode mode,
                       const dsa::sim::SystemConfig& c, const std::string& ctag) {
    BatchJob job{w, mode, c, ctag, ""};
    if (seen.insert(dsa::sim::JobKey(job)).second) set.jobs.push_back(std::move(job));
  };
  for (const auto& w : a3) {
    for (RunMode mode : all4) add(w, mode, cfg, "");
  }
  for (const auto& w : a2) add(w, RunMode::kDsa, orig_cfg, "orig");
  for (const auto& w : stream) {
    add(w, RunMode::kScalar, cfg, "");
    add(w, RunMode::kDsa, cfg, "");
  }
  for (RunMode mode : all4) add(mm, mode, cfg, "");
  for (const auto& w : gen) {
    add(w, RunMode::kScalar, cfg, "");
    add(w, RunMode::kDsa, cfg, "");
  }
  return set;
}

dsa::sim::RunnerOptions CliRunnerOptions() {
  dsa::sim::RunnerOptions ro;
  ro.jobs = kCliJobs;
  ro.repeats = kCliRepeats;
  ro.oracle = true;
  return ro;
}

struct CliPhase {
  EndToEnd e2e;
  Layers layers;
  bool oracle_clean = true;
};

// One Submit -> Finish sweep through a fresh BatchRunner.
void RunSweep(const std::vector<BatchJob>& jobs, const Reference& ref, bool traced,
              CliPhase& phase, Tally& tally) {
  std::mutex done_mu;
  std::vector<Clock::time_point> done;
  dsa::sim::RunnerOptions ro = CliRunnerOptions();
  if (traced) {
    done.reserve(jobs.size());
    ro.on_outcome = [&done, &done_mu](const JobOutcome&) {
      const auto now = Clock::now();
      std::lock_guard<std::mutex> lock(done_mu);
      done.push_back(now);
    };
  }
  dsa::sim::BatchRunner runner(ro);
  std::vector<std::string> keys;
  keys.reserve(jobs.size());
  const auto t0 = Clock::now();
  for (const BatchJob& job : jobs) keys.push_back(runner.Submit(job));
  for (const std::string& k : keys) (void)runner.Outcome(k);
  const auto t_outcomes = Clock::now();
  const dsa::sim::BatchReport report = runner.Finish();
  const auto t1 = Clock::now();

  const double sweep_ms = MsBetween(t0, t1);
  phase.e2e.sweep_ms.push_back(sweep_ms);
  phase.e2e.seconds += sweep_ms / 1e3;
  if (!report.ok()) {
    phase.oracle_clean = false;
    std::printf("oracle: %zu violation(s), first: %s %s\n", report.violations.size(),
                report.violations.front().job.c_str(),
                report.violations.front().detail.c_str());
  }
  for (const auto& [key, out] : runner.outcomes()) {
    const bool have = !out.runs.empty();
    const perfbench::Verdict v = perfbench::CheckCell(
        ref, key, have ? out.cell_status : "no-runs", have ? out.result().cycles : 0,
        have ? out.result().output_digest : 0);
    tally.Record(v == perfbench::Verdict::kOk, key + ": " + perfbench::ToString(v));
    phase.e2e.cell_ms.push_back(out.wall_ms);
    phase.e2e.cells += 1;
    if (traced) phase.layers.AddOutcome(out);
  }
  if (!traced) return;
  Layers& l = phase.layers;
  l.units += 1;
  l.oracle_ms += MsBetween(t_outcomes, t1);
  l.executed_runs += static_cast<double>(report.executed_runs);
  // Tail: from when fewer than `jobs` cells remain (a worker idles) until
  // the last cell completes.
  std::sort(done.begin(), done.end());
  if (done.size() >= static_cast<std::size_t>(kCliJobs)) {
    l.tail_ms += MsBetween(done[done.size() - kCliJobs], done.back());
  }
}

CliPhase RunCliPhase(const std::vector<BatchJob>& jobs, const Reference& ref,
                     double seconds, bool traced, Tally& tally) {
  CliPhase phase;
  const auto t0 = Clock::now();
  while (MsSince(t0) < seconds * 1e3) RunSweep(jobs, ref, traced, phase, tally);
  return phase;
}

int RunCliSweep(const Args& args) {
  std::printf("== cli-sweep: BatchRunner jobs=%d repeats=%d oracle on, seed %" PRIu64
              "\n", kCliJobs, kCliRepeats, args.seed);
  // Set-up: build the workload sets and generator until a runner is ready.
  std::vector<double> setup_ms;
  std::vector<double> build_ms;
  CliSet set;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    set = BuildCliSet(args.seed);
    const dsa::sim::BatchRunner ready(CliRunnerOptions());
    setup_ms.push_back(MsSince(t0));
    build_ms.push_back(set.build_ms);
  }
  std::printf("cells per sweep: %zu\n", set.jobs.size());
  const Reference ref = ComputeReference(set.jobs);

  Tally tally;
  {
    CliPhase warmup;  // one untimed sweep warms the allocator and caches
    RunSweep(set.jobs, ref, false, warmup, tally);
  }
  const CliPhase untraced = RunCliPhase(set.jobs, ref, args.PhaseSeconds(), false, tally);
  rusage ru = {};
  (void)getrusage(RUSAGE_SELF, &ru);
  const double rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  std::printf("-- untraced phase: %zu sweeps\n", untraced.e2e.sweep_ms.size());

  Metrics m;
  bool correct = untraced.oracle_clean;
  if (!args.trace) {
    ReportEndToEnd(m, untraced.e2e, setup_ms, rss_mb);
  } else {
    CliPhase traced = RunCliPhase(set.jobs, ref, args.PhaseSeconds(), true, tally);
    correct = correct && traced.oracle_clean;
    traced.layers.build_ms = Median(build_ms);
    std::printf("-- traced phase: %.0f sweeps; per-layer values are means per sweep\n",
                traced.layers.units);
    traced.layers.Report(m);
    PrintTraceOverhead(m, untraced.e2e, traced.e2e);
  }
  PrintResult(correct && tally.failed == 0, tally, m);
  return 0;
}

// --- daemon client --------------------------------------------------------

struct TransportError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// One request/response exchange on a fresh connection, bounded by
// kRequestTimeoutMs per read and write.
std::string Exchange(const std::string& socket_path, const std::string& request) {
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw TransportError(std::string("socket: ") + std::strerror(errno));
  timeval tv = {};
  tv.tv_sec = kRequestTimeoutMs / 1000;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    throw TransportError(std::string("connect: ") + std::strerror(err));
  }
  std::string body;
  char type = 0;
  const bool sent = dsa::serve::SendFrame(fd, dsa::serve::kFrameRequest, request);
  const dsa::serve::RecvStatus rs =
      sent ? dsa::serve::RecvFrame(fd, type, body) : dsa::serve::RecvStatus::kError;
  ::close(fd);
  if (rs != dsa::serve::RecvStatus::kOk || type != dsa::serve::kFrameResponse) {
    throw TransportError("no response frame (" +
                         std::string(dsa::serve::ToString(rs)) + ")");
  }
  return body;
}

std::string RequestJson(const std::string& kind, const std::string& client,
                        const std::string& filter) {
  std::string r = "{\"schema\":\"dsa-serve/1\",\"kind\":\"" + kind +
                  "\",\"client\":\"" + client + "\"";
  if (!filter.empty()) r += ",\"filter\":\"" + dsa::resilience::JsonEscape(filter) + "\"";
  return r + "}";
}

CacheCounters Health(const std::string& socket_path) {
  JsonValue resp;
  const std::string body =
      Exchange(socket_path, RequestJson("health", "perfbench-health", ""));
  if (!dsa::resilience::ParseJson(body, resp)) {
    throw std::runtime_error("health: response is not JSON");
  }
  const JsonValue* cache = resp.Find("cache");
  if (cache == nullptr) throw std::runtime_error("health: no cache block");
  const auto u = [cache](const char* k) {
    const JsonValue* v = cache->Find(k);
    return v != nullptr ? v->AsU64() : 0;
  };
  return {u("hits"), u("misses"), u("stores"), u("store_failures")};
}

// --- daemon lifecycle -----------------------------------------------------

// One spawned dsa_serve process on a private socket and cache directory.
// The destructor SIGKILLs and reaps a daemon that was not drained, so no
// exit path of the benchmark leaves one behind.
class DaemonProcess {
 public:
  DaemonProcess(const Args& args, std::string socket_path, std::string cache_dir,
                std::string log_path)
      : bin_(args.serve_bin),
        socket_(std::move(socket_path)),
        cache_(std::move(cache_dir)),
        log_(std::move(log_path)) {}
  ~DaemonProcess() {
    if (pid_ > 0) {
      (void)::kill(pid_, SIGKILL);
      (void)::waitpid(pid_, nullptr, 0);
    }
  }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  // Spawns the daemon and waits for its first answered ping; returns the
  // milliseconds between the two (boot, cache scrub and bind included).
  double Boot() {
    const std::string workers = std::to_string(kDaemonWorkers);
    std::vector<std::string> argv_s = {bin_,     "--socket",  socket_, "--cache",
                                       cache_,   "--workers", workers};
    std::vector<char*> argv;
    for (std::string& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, log_.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&fa, STDOUT_FILENO, STDERR_FILENO);
    const auto t0 = Clock::now();
    const int rc = ::posix_spawn(&pid_, bin_.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("spawn " + bin_ + ": " + std::strerror(rc));
    }
    const std::string ping = RequestJson("ping", "perfbench-ping", "");
    for (;;) {
      try {
        JsonValue resp;
        if (dsa::resilience::ParseJson(Exchange(socket_, ping), resp) &&
            resp.Find("status") != nullptr && resp.Find("status")->AsString() == "ok") {
          return MsSince(t0);
        }
      } catch (const TransportError&) {
        // not listening yet
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("dsa_serve exited during boot; see " + log_);
      }
      if (MsSince(t0) > kReadyTimeoutMs) {
        throw std::runtime_error("dsa_serve did not answer ping within " +
                                 std::to_string(kReadyTimeoutMs) + " ms");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  // Peak resident set (VmHWM) of the running daemon, in MB.
  [[nodiscard]] double PeakRssMb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    }
    throw std::runtime_error("no VmHWM for dsa_serve pid " + std::to_string(pid_));
  }

  // SIGTERM drain; the daemon must exit with code 3 within the timeout.
  void Drain() {
    (void)::kill(pid_, SIGTERM);
    const auto t0 = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) != pid_) {
      if (MsSince(t0) > kDrainTimeoutMs) {
        throw std::runtime_error("dsa_serve did not drain within " +
                                 std::to_string(kDrainTimeoutMs) + " ms");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 3) {
      throw std::runtime_error("dsa_serve drain: expected exit code 3, got status " +
                               std::to_string(status));
    }
  }

 private:
  std::string bin_, socket_, cache_, log_;
  pid_t pid_ = -1;
};

void EmptyDir(const fs::path& dir) {
  for (const auto& e : fs::directory_iterator(dir)) fs::remove_all(e.path());
}

// --- serve traffic --------------------------------------------------------

struct ServeCtx {
  bool cold = false;
  std::string socket_path;
  fs::path cache_dir;
  fs::path work_dir;
  const Reference* ref = nullptr;
  std::vector<std::string> singles;  // JobKeys that match exactly one cell
  std::vector<perfbench::Request> sequence;
  // Traced replays: warm loads from a copy of the daemon's filled cache,
  // cold loads miss in an empty directory, as the daemon's do.
  dsa::serve::ResultCache* load_cache = nullptr;
};

struct ServePhase {
  EndToEnd e2e;
  Layers layers;
};

// Re-runs, in this process and timed, the stages the daemon went through
// for one request: SweepJobs, KeyFor, ResultCache::Load, on cold also
// ExecuteCell and ResultCache::Store, then SerializeOutcome and a
// response-sized SendFrame/RecvFrame round trip. What the client waited
// beyond these is admission, queue wait, pool handoff and response build.
class Replayer {
 public:
  Replayer(const ServeCtx& ctx, int conn) : ctx_(ctx) {
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, pair_) != 0) {
      throw std::runtime_error(std::string("socketpair: ") + std::strerror(errno));
    }
    // Room for a whole response, so one thread can send it, then read it.
    const int big = 4 << 20;
    (void)::setsockopt(pair_[0], SOL_SOCKET, SO_SNDBUF, &big, sizeof(big));
    (void)::setsockopt(pair_[1], SOL_SOCKET, SO_RCVBUF, &big, sizeof(big));
    if (ctx_.cold) {
      store_dir_ = ctx_.work_dir / ("replay-store-" + std::to_string(conn));
      if (!store_.Open(store_dir_.string())) {
        throw std::runtime_error("cannot open " + store_dir_.string());
      }
    }
  }
  ~Replayer() {
    ::close(pair_[0]);
    ::close(pair_[1]);
  }
  Replayer(const Replayer&) = delete;
  Replayer& operator=(const Replayer&) = delete;

  // Adds the replayed stage times to `l` under `mu`.
  void Replay(const std::string& filter, double latency_ms, const std::string& body,
              Layers& l, std::mutex& mu) {
    const auto t_jobs = Clock::now();
    const std::vector<BatchJob> jobs = dsa::serve::SweepJobs(filter);
    const auto t_keys = Clock::now();
    std::vector<dsa::serve::CacheKey> keys;
    keys.reserve(jobs.size());
    for (const BatchJob& job : jobs) keys.push_back(dsa::serve::KeyFor(job));
    const auto t_load = Clock::now();
    std::vector<JobOutcome> outs(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      (void)ctx_.load_cache->Load(keys[i], outs[i]);
    }
    const auto t_loaded = Clock::now();
    double exec_ms = 0;
    double store_ms = 0;
    if (ctx_.cold) {
      dsa::sim::RunnerOptions ro;
      ro.repeats = 1;
      ro.run_fn = [](const dsa::sim::Workload& w, RunMode mode,
                     const dsa::sim::SystemConfig& cfg) { return dsa::sim::Run(w, mode, cfg); };
      const auto t_exec = Clock::now();
      for (std::size_t i = 0; i < jobs.size(); ++i) dsa::sim::ExecuteCell(jobs[i], ro, outs[i]);
      const auto t_store = Clock::now();
      for (std::size_t i = 0; i < jobs.size(); ++i) (void)store_.Store(keys[i], outs[i]);
      const auto t_stored = Clock::now();
      exec_ms = MsBetween(t_exec, t_store);
      store_ms = MsBetween(t_store, t_stored);
      EmptyDir(store_dir_);
    }
    const auto t_ser = Clock::now();
    std::size_t bytes = 0;
    for (const JobOutcome& o : outs) bytes += dsa::resilience::SerializeOutcome(o).size();
    const auto t_frame = Clock::now();
    char type = 0;
    std::string echo;
    if (!dsa::serve::SendFrame(pair_[0], dsa::serve::kFrameResponse, body) ||
        dsa::serve::RecvFrame(pair_[1], type, echo) != dsa::serve::RecvStatus::kOk ||
        echo.size() != body.size() || bytes == 0) {
      throw std::runtime_error("replay: frame round trip or serialization failed");
    }
    const auto t_end = Clock::now();

    const double sweepjobs = MsBetween(t_jobs, t_keys);
    const double key = MsBetween(t_keys, t_load);
    const double load = MsBetween(t_load, t_loaded);
    const double ser = MsBetween(t_ser, t_frame);
    const double frame = MsBetween(t_frame, t_end);
    std::lock_guard<std::mutex> lock(mu);
    if (ctx_.cold) {
      for (const JobOutcome& o : outs) l.AddOutcome(o);
    }
    l.units += 1;
    l.sweepjobs_ms += sweepjobs;
    l.key_ms += key;
    l.cache_load_ms += load;
    l.exec_ms += exec_ms;
    l.cache_store_ms += store_ms;
    l.serialize_ms += ser;
    l.frame_ms += frame;
    if (jobs.size() == 1) {
      l.singles += 1;
      l.unattributed_ms +=
          latency_ms - (sweepjobs + key + load + exec_ms + store_ms + ser + frame);
    }
  }

 private:
  const ServeCtx& ctx_;
  int pair_[2] = {-1, -1};
  fs::path store_dir_;
  dsa::serve::ResultCache store_;
};

// A closed loop on `conns` connections: each sends its next request only
// after the previous response arrived, for `seconds`. All connections
// draw from one seeded sequence, starting at its beginning.
ServePhase RunTraffic(const ServeCtx& ctx, int conns, double seconds, bool traced,
                      Tally& tally) {
  const CacheCounters before = Health(ctx.socket_path);
  std::atomic<std::size_t> next{0};
  std::mutex mu;  // guards phase, tally, last_end and error
  ServePhase phase;
  std::exception_ptr error;
  const auto t0 = Clock::now();
  Clock::time_point last_end = t0;

  const auto client = [&](int conn) {
    try {
      std::unique_ptr<Replayer> replayer;
      if (traced) replayer = std::make_unique<Replayer>(ctx, conn);
      const std::string name = "perfbench-" + std::to_string(conn);
      EndToEnd e2e;
      Tally local;
      Clock::time_point end = t0;
      while (MsSince(t0) < seconds * 1e3) {
        const std::size_t i = next++;
        const perfbench::Request& req = ctx.sequence[i % ctx.sequence.size()];
        const bool replay =
            replayer && (i / perfbench::kSweepEvery) % kReplayEveryBlocks == 0;
        if (ctx.cold) EmptyDir(ctx.cache_dir);  // every cell misses
        const std::string filter = req.sweep ? "" : ctx.singles[req.cell];
        const auto t = Clock::now();
        const std::string body =
            Exchange(ctx.socket_path, RequestJson("sweep", name, filter));
        end = Clock::now();
        const double ms = MsBetween(t, end);
        const perfbench::ResponseCheck rc = perfbench::CheckResponse(*ctx.ref, body);
        local.Record(rc.ok(), "request \"" + filter + "\": status " + rc.status + " " +
                                  rc.first_problem);
        (req.sweep ? e2e.sweep_ms : e2e.cell_ms).push_back(ms);
        e2e.cells += static_cast<double>(rc.cells_ok);
        if (replay) replayer->Replay(filter, ms, body, phase.layers, mu);
      }
      std::lock_guard<std::mutex> lock(mu);
      phase.e2e.sweep_ms.insert(phase.e2e.sweep_ms.end(), e2e.sweep_ms.begin(),
                                e2e.sweep_ms.end());
      phase.e2e.cell_ms.insert(phase.e2e.cell_ms.end(), e2e.cell_ms.begin(),
                               e2e.cell_ms.end());
      phase.e2e.cells += e2e.cells;
      tally.attempted += local.attempted;
      tally.failed += local.failed;
      if (tally.first_problem.empty()) tally.first_problem = local.first_problem;
      last_end = std::max(last_end, end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      if (!error) error = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
  phase.e2e.seconds = MsBetween(t0, last_end) / 1e3;
  phase.layers.cache = Health(ctx.socket_path) - before;
  return phase;
}

// Keys that address exactly one cell under the daemon's case-insensitive
// substring filter ("X@neon-dsa" also matches "X@neon-dsa/orig").
std::vector<std::string> SingleCellKeys(const std::vector<BatchJob>& jobs) {
  const auto lower = [](std::string s) {
    for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
  };
  std::vector<std::string> keys;
  for (const BatchJob& a : jobs) {
    const std::string needle = lower(dsa::sim::JobKey(a));
    int matches = 0;
    for (const BatchJob& b : jobs) {
      if (lower(dsa::sim::JobKey(b)).find(needle) != std::string::npos) ++matches;
    }
    if (matches == 1) keys.push_back(dsa::sim::JobKey(a));
  }
  return keys;
}

int RunServe(const Args& args) {
  const bool cold = args.workload == "serve-cold";
  const int conns = cold ? kColdConnections : kWarmConnections;
  std::printf("== %s: dsa_serve --workers %d, %d connection(s), closed loop, seed %" PRIu64
              "\n", args.workload.c_str(), kDaemonWorkers, conns, args.seed);
  ServeCtx ctx;
  ctx.cold = cold;
  ctx.work_dir = args.work_dir;
  ctx.cache_dir = ctx.work_dir / "cache";
  ctx.socket_path = (ctx.work_dir / "d.sock").string();
  const std::string log = (ctx.work_dir / "daemon.log").string();
  fs::create_directories(ctx.cache_dir);

  const std::vector<BatchJob> jobs = dsa::serve::SweepJobs("");
  const Reference ref = ComputeReference(jobs);
  ctx.ref = &ref;
  ctx.singles = SingleCellKeys(jobs);
  ctx.sequence = perfbench::RequestSequence(args.seed, ctx.singles.size(), kSequenceLength);
  std::printf("cells per full sweep: %zu, single-cell keys: %zu\n", jobs.size(),
              ctx.singles.size());

  if (!cold) {
    // An earlier daemon instance fills the cache with one full sweep.
    DaemonProcess fill(args, ctx.socket_path, ctx.cache_dir.string(), log);
    (void)fill.Boot();
    const perfbench::ResponseCheck rc = perfbench::CheckResponse(
        ref, Exchange(ctx.socket_path, RequestJson("sweep", "perfbench-fill", "")));
    if (!rc.ok() || rc.cells != jobs.size()) {
      throw std::runtime_error("cache fill sweep failed: status " + rc.status + " " +
                               rc.first_problem);
    }
    fill.Drain();
  }

  // Set-up: daemon spawn until the first answered ping, several times.
  std::vector<double> boot_ms;
  std::unique_ptr<DaemonProcess> daemon;
  for (int i = 0; i < kSetupReps; ++i) {
    if (daemon) daemon->Drain();
    daemon = std::make_unique<DaemonProcess>(args, ctx.socket_path,
                                             ctx.cache_dir.string(), log);
    boot_ms.push_back(daemon->Boot());
  }

  Tally tally;
  const ServePhase untraced = RunTraffic(ctx, conns, args.PhaseSeconds(), false, tally);
  std::printf("-- untraced phase: %zu requests\n",
              untraced.e2e.sweep_ms.size() + untraced.e2e.cell_ms.size());
  // serve-warm must answer every cell from its cache and simulate none.
  const auto cache_ok = [cold](const ServePhase& p) {
    return cold || (p.layers.cache.misses == 0 && p.layers.cache.stores == 0);
  };
  bool correct = cache_ok(untraced);

  Metrics m;
  if (!args.trace) {
    ReportEndToEnd(m, untraced.e2e, boot_ms, daemon->PeakRssMb());
  } else {
    // The replays load from copies, never from the daemon's own directory.
    const fs::path load_dir = ctx.work_dir / "replay-load";
    fs::create_directories(load_dir);
    if (!cold) fs::copy(ctx.cache_dir, load_dir, fs::copy_options::recursive);
    dsa::serve::ResultCache load_cache;
    if (!load_cache.Open(load_dir.string())) {
      throw std::runtime_error("cannot open " + load_dir.string());
    }
    ctx.load_cache = &load_cache;
    std::vector<double> scrub_ms;
    for (int i = 0; i < kSetupReps; ++i) {
      dsa::serve::ResultCache c;
      if (!c.Open(load_dir.string())) throw std::runtime_error("cannot reopen load dir");
      const auto t = Clock::now();
      (void)c.Scrub();
      scrub_ms.push_back(MsSince(t));
    }
    ServePhase traced = RunTraffic(ctx, conns, args.PhaseSeconds(), true, tally);
    correct = correct && cache_ok(traced);
    traced.layers.scrub_ms = Median(scrub_ms);
    std::printf("-- traced phase: %zu requests, %.0f replayed; per-layer values are "
                "means per replayed request\n",
                traced.e2e.sweep_ms.size() + traced.e2e.cell_ms.size(), traced.layers.units);
    traced.layers.Report(m);
    PrintTraceOverhead(m, untraced.e2e, traced.e2e);
  }
  daemon->Drain();
  if (!correct) std::printf("serve-warm: the daemon missed its cache or stored cells\n");
  PrintResult(correct && tally.failed == 0, tally, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  (void)::signal(SIGPIPE, SIG_IGN);  // a dead daemon is an error, not a kill
  Args args;
  try {
    args = ParseArgs(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload cli-sweep|serve-warm|"
                 "serve-cold --seed N --seconds S --trace 0|1 --work-dir DIR "
                 "[--serve-bin PATH]\n",
                 e.what());
    return 2;
  }
  int rc = 1;
  try {
    fs::create_directories(args.work_dir);
    rc = args.workload == "cli-sweep" ? RunCliSweep(args) : RunServe(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    rc = 1;
  }
  std::error_code ec;
  fs::remove_all(args.work_dir, ec);
  return rc;
}
