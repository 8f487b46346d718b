// Host-throughput driver: runs the same workload x mode matrix as
// bench_matrix (Article 3 full matrix + Article 2 Original-DSA column,
// plus the VecAdd and DispatchMicro microbenchmarks as cheap smoke
// slices) and reports how fast the simulator itself executes — millions
// of simulated instructions per host second (MIPS), per job and in
// aggregate. Tracks the interpreter hot-path work documented in
// docs/PERF.md; --reference forces the reference twin (per-step core and
// pre-optimization code paths, docs/DISPATCH.md), so the threaded core's
// throughput over its twin is a one-flag A/B. The differential oracle
// still gates the exit code, so a throughput run doubles as a
// correctness sweep.
//
// --interleave N replaces the batch run with a load-immune A/B loop: per
// cell, N back-to-back fast/--reference pairs on the same binary, median
// of the per-pair MIPS ratios reported (and gated by --assert-ratio).
// Both arms of a pair see the same host load, so the ratio is stable
// where absolute MIPS swing ±30% with machine load; it is the
// measurement the perf numbers in docs/PERF.md are quoted from, and the
// scripts/check.sh perf gates (DispatchMicro, MM 64x64) run it with
// --assert-ratio.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "workloads/workloads.h"

namespace {

using dsa::sim::Run;
using dsa::sim::RunMode;
using dsa::sim::RunResult;
using dsa::sim::SystemConfig;
using dsa::sim::Workload;

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 != 0 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int RunInterleaved(const dsa::bench::BenchOptions& opts,
                   const SystemConfig& cfg, const SystemConfig& orig_cfg,
                   const std::vector<Workload>& sweep,
                   const std::vector<Workload>& article2) {
  SystemConfig ref_cfg = cfg;
  ref_cfg.reference_path = true;
  SystemConfig ref_orig = orig_cfg;
  ref_orig.reference_path = true;

  struct Cell {
    const Workload* wl = nullptr;
    RunMode mode = RunMode::kScalar;
    const SystemConfig* fast = nullptr;
    const SystemConfig* ref = nullptr;
    std::string key;
    std::vector<double> fast_mips;
    std::vector<double> ref_mips;
    std::vector<double> ratios;
  };
  std::vector<Cell> cells;
  for (const Workload& wl : sweep) {
    if (!dsa::bench::KeepWorkload(opts, wl.name)) continue;
    for (const RunMode m : {RunMode::kScalar, RunMode::kAutoVec,
                            RunMode::kHandVec, RunMode::kDsa}) {
      Cell c;
      c.wl = &wl;
      c.mode = m;
      c.fast = &cfg;
      c.ref = &ref_cfg;
      c.key = wl.name + "@" + std::string(dsa::sim::ToString(m));
      cells.push_back(std::move(c));
    }
  }
  for (const Workload& wl : article2) {
    if (!dsa::bench::KeepWorkload(opts, wl.name)) continue;
    Cell c;
    c.wl = &wl;
    c.mode = RunMode::kDsa;
    c.fast = &orig_cfg;
    c.ref = &ref_orig;
    c.key = wl.name + "@neon-dsa/orig";
    cells.push_back(std::move(c));
  }
  if (cells.empty()) {
    std::fprintf(stderr, "[interleave] no workload matches --filter %s\n",
                 opts.filter.c_str());
    return 2;
  }

  // Round-robin over cells inside each round, fast arm immediately
  // followed by its reference twin: the two runs of a pair share whatever
  // the host is doing at that moment, which is the whole point.
  std::vector<double> agg_ratios;
  for (int round = 0; round < opts.interleave; ++round) {
    std::uint64_t fast_steps = 0;
    std::uint64_t ref_steps = 0;
    double fast_ms = 0.0;
    double ref_ms = 0.0;
    for (Cell& c : cells) {
      const RunResult f = Run(*c.wl, c.mode, *c.fast);
      const RunResult r = Run(*c.wl, c.mode, *c.ref);
      if (f.output_digest != r.output_digest || f.cycles != r.cycles) {
        // The A/B is only meaningful between bit-identical simulations;
        // a divergence here is a correctness bug, not a perf result.
        std::fprintf(stderr,
                     "[interleave] %s: fast and --reference diverged "
                     "(digest 0x%llx vs 0x%llx, cycles %llu vs %llu)\n",
                     c.key.c_str(),
                     static_cast<unsigned long long>(f.output_digest),
                     static_cast<unsigned long long>(r.output_digest),
                     static_cast<unsigned long long>(f.cycles),
                     static_cast<unsigned long long>(r.cycles));
        return 1;
      }
      c.fast_mips.push_back(f.host_mips());
      c.ref_mips.push_back(r.host_mips());
      c.ratios.push_back(r.host_mips() > 0.0 ? f.host_mips() / r.host_mips()
                                             : 0.0);
      fast_steps += f.host_steps;
      fast_ms += f.host_wall_ms;
      ref_steps += r.host_steps;
      ref_ms += r.host_wall_ms;
    }
    const double fa =
        fast_ms > 0.0
            ? static_cast<double>(fast_steps) / (1000.0 * fast_ms)
            : 0.0;
    const double ra =
        ref_ms > 0.0 ? static_cast<double>(ref_steps) / (1000.0 * ref_ms)
                     : 0.0;
    agg_ratios.push_back(ra > 0.0 ? fa / ra : 0.0);
  }

  std::printf("%-28s %10s %10s %10s\n", "job", "fast MIPS", "ref MIPS",
              "ratio");
  bool below_floor = false;
  for (Cell& c : cells) {
    const double ratio = Median(c.ratios);
    const bool bad = opts.assert_ratio > 0.0 && ratio < opts.assert_ratio;
    below_floor = below_floor || bad;
    std::printf("%-28s %10.1f %10.1f %9.2fx%s\n", c.key.c_str(),
                Median(c.fast_mips), Median(c.ref_mips), ratio,
                bad ? "  << below floor" : "");
  }
  std::printf("\n[interleave] %d pair(s)/cell, medians; aggregate "
              "fast/reference ratio %.2fx over %zu cell(s)\n",
              opts.interleave, Median(agg_ratios), cells.size());
  if (opts.assert_ratio > 0.0) {
    if (below_floor) {
      std::fprintf(stderr,
                   "[interleave] FAIL: cell(s) below the --assert-ratio "
                   "%.2f floor\n",
                   opts.assert_ratio);
      return 1;
    }
    std::printf("[interleave] assert-ratio %.2f: ok\n", opts.assert_ratio);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using dsa::sim::BatchRunner;

  const dsa::bench::BenchOptions opts = dsa::bench::ParseBenchArgs(argc, argv);
  const SystemConfig cfg = dsa::bench::BaseConfig(opts);
  SystemConfig orig_cfg = cfg;
  orig_cfg.dsa = dsa::engine::DsaConfig::Original();
  dsa::bench::PrintSetupHeader(cfg);
  std::printf("simulator path: %s\n\n",
              cfg.reference_path ? "reference (pre-optimization)" : "fast");

  // VecAdd and DispatchMicro first: the cheap microbenchmarks that
  // `--filter VecAdd` / `--filter DispatchMicro` select as the CI smoke
  // and perf-gate slices (scripts/check.sh).
  std::vector<Workload> sweep;
  sweep.push_back(dsa::workloads::MakeVecAdd());
  sweep.push_back(dsa::workloads::MakeDispatchMicro());
  for (Workload& wl : dsa::workloads::Article3Set()) {
    sweep.push_back(std::move(wl));
  }
  const std::vector<Workload> article2 = dsa::workloads::Article2Set();

  if (opts.interleave > 0) {
    return RunInterleaved(opts, cfg, orig_cfg, sweep, article2);
  }

  BatchRunner runner(opts.runner);
  std::vector<std::string> keys;
  for (const Workload& wl : sweep) {
    if (!dsa::bench::KeepWorkload(opts, wl.name)) continue;
    for (std::string& k : runner.SubmitMatrix(wl, cfg)) {
      keys.push_back(std::move(k));
    }
  }
  for (const Workload& wl : article2) {
    if (!dsa::bench::KeepWorkload(opts, wl.name)) continue;
    keys.push_back(runner.Submit(wl, dsa::sim::RunMode::kDsa, orig_cfg,
                                 "orig"));
  }
  if (keys.empty()) {
    std::fprintf(stderr, "[throughput] no workload matches --filter %s\n",
                 opts.filter.c_str());
    return 2;
  }

  std::printf("%-28s %14s %10s %10s\n", "job", "sim instrs", "wall ms",
              "MIPS");
  std::uint64_t total_steps = 0;
  double total_ms = 0.0;
  for (const std::string& key : keys) {
    const RunResult& r = dsa::bench::ResultOrEmpty(runner, key);
    total_steps += r.host_steps;
    total_ms += r.host_wall_ms;
    std::printf("%-28s %14llu %10.2f %10.1f\n", key.c_str(),
                static_cast<unsigned long long>(r.host_steps), r.host_wall_ms,
                r.host_mips());
  }
  const double aggregate =
      total_ms > 0.0 ? static_cast<double>(total_steps) / (1000.0 * total_ms)
                     : 0.0;
  std::printf("\n[throughput] aggregate %.1f MIPS "
              "(%llu simulated instrs in %.0f ms of run-loop time, "
              "%zu jobs)\n",
              aggregate, static_cast<unsigned long long>(total_steps),
              total_ms, keys.size());

  return dsa::bench::FinishBench(runner, opts, "throughput");
}
