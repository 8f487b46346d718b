// Ablation benches for the design choices DESIGN.md calls out:
//   1. CIDP on/off (prediction vs. exact-match-only dependency check)
//   2. partial vectorization on/off (ShiftAdd)
//   3. inner/outer loop fusion on/off (MM, Gaussian)
//   4. DSA cache size sweep (capacity pressure with many distinct loops)
//   5. stream prefetcher on/off (memory-bound ceiling)
//
// Every ablation varies the SystemConfig, so each cell carries a config
// tag — the runner memoizes by {workload, mode, config_tag} and would
// otherwise merge distinct configurations.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "workloads/workloads.h"

namespace {

using dsa::sim::BatchRunner;
using dsa::sim::RunMode;
using dsa::sim::RunResult;
using dsa::sim::SystemConfig;
using dsa::sim::Workload;

struct ComparePair {
  const char* title;
  const char* name_a;
  const char* name_b;
  std::string key_a;
  std::string key_b;
};

// Submits both sides of one comparison, unless --filter drops `wl`.
void SubmitCompare(BatchRunner& runner, const dsa::bench::BenchOptions& opts,
                   std::vector<ComparePair>& pairs, const char* title,
                   const Workload& wl, const SystemConfig& a,
                   const char* name_a, const SystemConfig& b,
                   const char* name_b) {
  if (!dsa::bench::KeepWorkload(opts, wl.name)) return;
  pairs.push_back(ComparePair{title, name_a, name_b,
                              runner.Submit(wl, RunMode::kDsa, a, name_a),
                              runner.Submit(wl, RunMode::kDsa, b, name_b)});
}

void PrintCompare(BatchRunner& runner, const ComparePair& p) {
  const RunResult& ra = dsa::bench::ResultOrEmpty(runner, p.key_a);
  const RunResult& rb = dsa::bench::ResultOrEmpty(runner, p.key_b);
  std::printf("%-38s %-10s: %10llu cycles | %-10s: %10llu cycles (%+.1f%%)\n",
              p.title, p.name_a, static_cast<unsigned long long>(ra.cycles),
              p.name_b, static_cast<unsigned long long>(rb.cycles),
              100.0 * (static_cast<double>(rb.cycles) / ra.cycles - 1.0));
}

}  // namespace

int main(int argc, char** argv) {
  const dsa::bench::BenchOptions opts = dsa::bench::ParseBenchArgs(argc, argv);
  dsa::bench::PrintSetupHeader();

  SystemConfig base = dsa::bench::BaseConfig(opts);
  BatchRunner runner(opts.runner);
  std::vector<ComparePair> pairs;

  {
    SystemConfig no_cidp = base;
    no_cidp.dsa.enable_cidp = false;
    SubmitCompare(runner, opts, pairs, "CIDP off (VecAdd, no dependency)",
                  dsa::workloads::MakeVecAdd(), base, "cidp", no_cidp,
                  "no-cidp");
    // On ShiftAdd the prediction is what *finds* the distance-8 dependency:
    // without it the exact-match check sees no conflict in iterations 2-3
    // and would vectorize the whole loop — fast but unsafe on real
    // hardware. The simulator stays functionally correct (scalar covered
    // execution), so this row quantifies how much performance the unsafe
    // full vectorization would claim vs. the safe partial one.
    SubmitCompare(runner, opts, pairs,
                  "CIDP off (ShiftAdd, hidden dependency)",
                  dsa::workloads::MakeShiftAdd(), base, "cidp(safe)", no_cidp,
                  "no-cidp(!)");
  }
  {
    SystemConfig no_partial = base;
    no_partial.dsa.enable_partial_vectorization = false;
    SubmitCompare(runner, opts, pairs, "partial vectorization off (ShiftAdd)",
                  dsa::workloads::MakeShiftAdd(), base, "partial", no_partial,
                  "scalar");
  }
  {
    SystemConfig no_fusion = base;
    no_fusion.dsa.enable_loop_fusion = false;
    SubmitCompare(runner, opts, pairs, "loop fusion off (MM 64x64)",
                  dsa::workloads::MakeMatMul(), base, "fused", no_fusion,
                  "per-entry");
    SubmitCompare(runner, opts, pairs, "loop fusion off (Gaussian)",
                  dsa::workloads::MakeGaussian(), base, "fused", no_fusion,
                  "per-entry");
  }

  struct SweepCell {
    std::uint32_t bytes;
    std::uint32_t entries;
    std::string key;
  };
  std::vector<SweepCell> sweep;
  if (const Workload mm = dsa::workloads::MakeMatMul();
      dsa::bench::KeepWorkload(opts, mm.name)) {
    for (const std::uint32_t bytes : {64u, 256u, 8192u}) {
      SystemConfig cfg = base;
      cfg.dsa.dsa_cache_bytes = bytes;
      sweep.push_back(SweepCell{
          bytes, cfg.dsa.dsa_cache_entries(),
          runner.Submit(mm, RunMode::kDsa, cfg,
                        "cache" + std::to_string(bytes))});
    }
  }

  // 8191 elements: 1023 full i16 chunks + 7 leftovers per entry. The
  // non-default size gets a workload tag so it cannot be memo-merged with
  // the default RGB-Gray cells.
  const Workload rgb_odd = dsa::workloads::MakeRgbGray(8191);
  const bool odd = dsa::bench::KeepWorkload(opts, rgb_odd.name);
  const std::string odd_scalar =
      odd ? runner.Submit(rgb_odd, RunMode::kScalar, base, "", "n8191") : "";
  const std::string odd_dsa =
      odd ? runner.Submit(rgb_odd, RunMode::kDsa, base, "", "n8191") : "";

  SystemConfig no_pf = base;
  no_pf.memory.next_line_prefetch = false;
  struct PfCell {
    const char* name;
    std::string scalar_key;
    std::string dsa_key;
  };
  std::vector<PfCell> pf_cells;
  if (const Workload wl = dsa::workloads::MakeRgbGray();
      dsa::bench::KeepWorkload(opts, wl.name)) {
    for (const auto& [name, cfg] :
         std::initializer_list<std::pair<const char*, SystemConfig>>{
             {"prefetch", base}, {"no-prefetch", no_pf}}) {
      pf_cells.push_back(PfCell{
          name, runner.Submit(wl, RunMode::kScalar, cfg, name),
          runner.Submit(wl, RunMode::kDsa, cfg, name)});
    }
  }

  for (const ComparePair& p : pairs) PrintCompare(runner, p);

  if (!sweep.empty()) std::printf("\nDSA cache size sweep (MM 64x64):\n");
  for (const SweepCell& cell : sweep) {
    const RunResult& r = dsa::bench::ResultOrEmpty(runner, cell.key);
    std::printf("  %5u B (%3u entries): %10llu cycles, %llu cache-hit "
                "takeovers\n",
                cell.bytes, cell.entries,
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.dsa->cache_hit_takeovers));
  }

  if (odd) {
    std::printf("\nleftover handling (RGB-Gray with a non-multiple size):\n");
    const RunResult& scalar = dsa::bench::ResultOrEmpty(runner, odd_scalar);
    const RunResult& ds = dsa::bench::ResultOrEmpty(runner, odd_dsa);
    std::printf("  scalar %llu cycles, DSA %llu cycles (x%.2f), outputs %s\n",
                static_cast<unsigned long long>(scalar.cycles),
                static_cast<unsigned long long>(ds.cycles),
                SpeedupOver(scalar, ds), ds.output_ok ? "OK" : "MISMATCH");
  }

  if (!pf_cells.empty()) std::printf("\nstream prefetch off (RGB-Gray):\n");
  for (const PfCell& cell : pf_cells) {
    const RunResult& s = dsa::bench::ResultOrEmpty(runner, cell.scalar_key);
    const RunResult& d = dsa::bench::ResultOrEmpty(runner, cell.dsa_key);
    std::printf("  %-12s scalar %10llu | DSA %10llu (x%.2f)\n", cell.name,
                static_cast<unsigned long long>(s.cycles),
                static_cast<unsigned long long>(d.cycles), SpeedupOver(s, d));
  }
  return dsa::bench::FinishBench(runner, opts, "ablations");
}
