// Full-matrix driver: regenerates the performance (Fig. 8), energy
// (Fig. 9), detection-latency (Table 2/3), loop-type (Fig. 7) and
// Extended-vs-Original (Fig. 16) views from ONE batch of runs: the whole
// matrix is submitted to the batch runner once and every table renders
// from its memo, with the oracle cross-checking all modes against the
// scalar outputs.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "workloads/workloads.h"

namespace {

using dsa::bench::KeepWorkloads;
using dsa::sim::BatchRunner;
using dsa::sim::RunMode;
using dsa::sim::RunResult;
using dsa::sim::SystemConfig;
using dsa::sim::Workload;

// A table renders through this; it answers from the batch memo.
using Getter = std::function<RunResult(const Workload&, RunMode,
                                       const SystemConfig&,
                                       const std::string& ctag)>;

void PrintPerf(const std::vector<Workload>& set, const SystemConfig& cfg,
               const Getter& get) {
  std::printf("perf — improvement over ARM original (%%)\n");
  std::printf("%-12s %12s %12s %12s\n", "benchmark", "AutoVec", "Hand-coded",
              "DSA");
  std::vector<double> ds;
  for (const Workload& wl : set) {
    const RunResult base = get(wl, RunMode::kScalar, cfg, "");
    const RunResult a = get(wl, RunMode::kAutoVec, cfg, "");
    const RunResult h = get(wl, RunMode::kHandVec, cfg, "");
    const RunResult d = get(wl, RunMode::kDsa, cfg, "");
    ds.push_back(SpeedupOver(base, d));
    std::printf("%-12s %+11.1f%% %+11.1f%% %+11.1f%%\n", wl.name.c_str(),
                dsa::bench::ImprovementPct(base, a),
                dsa::bench::ImprovementPct(base, h),
                dsa::bench::ImprovementPct(base, d));
  }
  std::printf("%-12s DSA geomean %+.1f%%\n\n", "",
              (dsa::bench::GeoMeanSpeedup(ds) - 1) * 100);
}

void PrintEnergy(const std::vector<Workload>& set, const SystemConfig& cfg,
                 const Getter& get) {
  std::printf("energy — savings over ARM original (%%)\n");
  std::printf("%-12s %12s %12s %12s\n", "benchmark", "AutoVec", "Hand-coded",
              "DSA");
  for (const Workload& wl : set) {
    const RunResult base = get(wl, RunMode::kScalar, cfg, "");
    const RunResult a = get(wl, RunMode::kAutoVec, cfg, "");
    const RunResult h = get(wl, RunMode::kHandVec, cfg, "");
    const RunResult d = get(wl, RunMode::kDsa, cfg, "");
    std::printf("%-12s %+11.1f%% %+11.1f%% %+11.1f%%\n", wl.name.c_str(),
                dsa::bench::EnergySavingsPct(base, a),
                dsa::bench::EnergySavingsPct(base, h),
                dsa::bench::EnergySavingsPct(base, d));
  }
  std::printf("\n");
}

void PrintLatency(const std::vector<Workload>& set, const SystemConfig& cfg,
                  const Getter& get) {
  std::printf("DSA detection latency (%% of total execution)\n");
  for (const Workload& wl : set) {
    const RunResult r = get(wl, RunMode::kDsa, cfg, "");
    std::printf("%-12s %6.2f%%  (%llu analysis cycles, %llu takeovers)\n",
                wl.name.c_str(), r.detection_latency_pct(),
                static_cast<unsigned long long>(r.dsa->analysis_cycles),
                static_cast<unsigned long long>(r.dsa->takeovers));
  }
  std::printf("\n");
}

void PrintLoopTypes(const std::vector<Workload>& set, const SystemConfig& cfg,
                    const Getter& get) {
  std::printf("DSA runtime loop classification\n");
  for (const Workload& wl : set) {
    const RunResult r = get(wl, RunMode::kDsa, cfg, "");
    std::printf("%-12s", wl.name.c_str());
    for (const auto& [cls, n] : r.dsa->loops_by_class) {
      std::printf("  %s x%llu", std::string(ToString(cls)).c_str(),
                  static_cast<unsigned long long>(n));
    }
    std::printf("\n");
  }
  std::printf("\n");
}

void PrintStream(const std::vector<Workload>& set, const SystemConfig& cfg,
                 const Getter& get) {
  std::printf("streaming suite — GB/s at 1 GHz (bytes/cycle)\n");
  std::printf("%-14s %10s %10s %12s\n", "kernel", "scalar", "DSA",
              "DSA impr.");
  for (const Workload& wl : set) {
    const RunResult base = get(wl, RunMode::kScalar, cfg, "");
    const RunResult d = get(wl, RunMode::kDsa, cfg, "");
    std::printf("%-14s %10.3f %10.3f %+11.1f%%\n", wl.name.c_str(),
                base.stream_gbps(), d.stream_gbps(),
                dsa::bench::ImprovementPct(base, d));
  }
  std::printf("\n");
}

void PrintFig16(const std::vector<Workload>& set, const SystemConfig& ext_cfg,
                const SystemConfig& orig_cfg, const Getter& get) {
  std::printf("Extended vs Original DSA — improvement over ARM original "
              "(%%)\n");
  std::printf("%-12s %12s %14s %14s\n", "benchmark", "NEON AutoVec",
              "Original DSA", "Extended DSA");
  for (const Workload& wl : set) {
    const RunResult base = get(wl, RunMode::kScalar, ext_cfg, "");
    const RunResult a = get(wl, RunMode::kAutoVec, ext_cfg, "");
    const RunResult o = get(wl, RunMode::kDsa, orig_cfg, "orig");
    const RunResult e = get(wl, RunMode::kDsa, ext_cfg, "");
    std::printf("%-12s %+11.1f%% %+13.1f%% %+13.1f%%\n", wl.name.c_str(),
                dsa::bench::ImprovementPct(base, a),
                dsa::bench::ImprovementPct(base, o),
                dsa::bench::ImprovementPct(base, e));
  }
  std::printf("\n");
}

void RenderAllTables(const dsa::bench::BenchOptions& opts, const Getter& get,
                     const SystemConfig& cfg, const SystemConfig& orig_cfg) {
  const std::vector<Workload> a3 =
      KeepWorkloads(opts, dsa::workloads::Article3Set());
  const std::vector<Workload> a2 =
      KeepWorkloads(opts, dsa::workloads::Article2Set());
  const std::vector<Workload> stream =
      KeepWorkloads(opts, dsa::workloads::StreamingSet());
  PrintPerf(a3, cfg, get);
  PrintEnergy(a3, cfg, get);
  PrintLatency(a3, cfg, get);
  PrintLoopTypes(a3, cfg, get);
  PrintFig16(a2, cfg, orig_cfg, get);
  PrintStream(stream, cfg, get);
}

}  // namespace

int main(int argc, char** argv) {
  const dsa::bench::BenchOptions opts = dsa::bench::ParseBenchArgs(argc, argv);
  const SystemConfig cfg = dsa::bench::BaseConfig(opts);
  SystemConfig orig_cfg = dsa::bench::BaseConfig(opts);
  orig_cfg.dsa = dsa::engine::DsaConfig::Original();
  dsa::bench::PrintSetupHeader(cfg);

  BatchRunner runner(opts.runner);
  // Submit the whole matrix up front so the workers stream through it;
  // rendering then reads every cell from the memo.
  for (const Workload& wl :
       KeepWorkloads(opts, dsa::workloads::Article3Set())) {
    runner.SubmitMatrix(wl, cfg);
  }
  for (const Workload& wl :
       KeepWorkloads(opts, dsa::workloads::Article2Set())) {
    runner.Submit(wl, RunMode::kDsa, orig_cfg, "orig");
  }
  for (const Workload& wl :
       KeepWorkloads(opts, dsa::workloads::StreamingSet())) {
    runner.Submit(wl, RunMode::kScalar, cfg);
    runner.Submit(wl, RunMode::kDsa, cfg);
  }
  const Getter memo_get = [&runner](const Workload& wl, RunMode mode,
                                    const SystemConfig& c,
                                    const std::string& ctag) {
    return dsa::bench::ResultOrEmpty(runner, runner.Submit(wl, mode, c, ctag));
  };
  RenderAllTables(opts, memo_get, cfg, orig_cfg);
  return dsa::bench::FinishBench(runner, opts, "matrix");
}
