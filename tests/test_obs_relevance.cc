// Observation-relevance classes (docs/DISPATCH.md): the engine classifies
// every pc at lowering time — inert / exit-and-observe / execute-inline —
// so the threaded core batches provably-inert retires even while cooldowns
// exist, and the way-predicted cache path batches same-line hit runs.
// These tests pin the contract that makes that legal: every simulated
// counter, not just the digest, is bit-identical to the pre-optimization
// reference path, and the Q Sort loop-detection activation count — the
// statistic most sensitive to a latch observation being wrongly skipped —
// stays at its long-standing value.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/config.h"
#include "engine/stats.h"
#include "sim/system.h"
#include "workloads/workloads.h"

namespace dsa::sim {
namespace {

// Field-by-field equality of everything a run simulates. FormatReport
// comparisons (test_reference_path.cc) cover the surfaced subset; this
// sweep also pins counters no report prints (array-map/VC/DSA-cache
// accesses, per-class entry censuses, reject reasons), which is exactly
// where a silently skipped observation would hide.
void ExpectCountersIdentical(const std::string& tag, const RunResult& a,
                             const RunResult& b) {
  EXPECT_EQ(a.output_digest, b.output_digest) << tag;
  EXPECT_EQ(a.output_ok, b.output_ok) << tag;
  EXPECT_EQ(a.cycles, b.cycles) << tag;

  EXPECT_EQ(a.cpu.retired_total, b.cpu.retired_total) << tag;
  EXPECT_EQ(a.cpu.retired_scalar, b.cpu.retired_scalar) << tag;
  EXPECT_EQ(a.cpu.retired_vector, b.cpu.retired_vector) << tag;
  EXPECT_EQ(a.cpu.mem_reads, b.cpu.mem_reads) << tag;
  EXPECT_EQ(a.cpu.mem_writes, b.cpu.mem_writes) << tag;
  EXPECT_EQ(a.cpu.branches, b.cpu.branches) << tag;
  EXPECT_EQ(a.cpu.mispredicts, b.cpu.mispredicts) << tag;
  EXPECT_EQ(a.cpu.issue_slots, b.cpu.issue_slots) << tag;
  EXPECT_EQ(a.cpu.mem_stall_cycles, b.cpu.mem_stall_cycles) << tag;
  EXPECT_EQ(a.cpu.other_stall_cycles, b.cpu.other_stall_cycles) << tag;
  EXPECT_EQ(a.cpu.neon_busy_cycles, b.cpu.neon_busy_cycles) << tag;
  EXPECT_EQ(a.cpu.dsa_overhead_cycles, b.cpu.dsa_overhead_cycles) << tag;

  EXPECT_EQ(a.l1.hits, b.l1.hits) << tag;
  EXPECT_EQ(a.l1.misses, b.l1.misses) << tag;
  EXPECT_EQ(a.l2.hits, b.l2.hits) << tag;
  EXPECT_EQ(a.l2.misses, b.l2.misses) << tag;
  EXPECT_EQ(a.dram_accesses, b.dram_accesses) << tag;

  ASSERT_EQ(a.dsa.has_value(), b.dsa.has_value()) << tag;
  if (!a.dsa.has_value()) return;
  const engine::DsaStats& x = *a.dsa;
  const engine::DsaStats& y = *b.dsa;
  EXPECT_EQ(x.loops_by_class, y.loops_by_class) << tag;
  EXPECT_EQ(x.entries_by_class, y.entries_by_class) << tag;
  EXPECT_EQ(x.rejects_by_reason, y.rejects_by_reason) << tag;
  EXPECT_EQ(x.stage_activations, y.stage_activations) << tag;
  EXPECT_EQ(x.analysis_cycles, y.analysis_cycles) << tag;
  EXPECT_EQ(x.observed_instructions, y.observed_instructions) << tag;
  EXPECT_EQ(x.takeovers, y.takeovers) << tag;
  EXPECT_EQ(x.cache_hit_takeovers, y.cache_hit_takeovers) << tag;
  EXPECT_EQ(x.fusions_formed, y.fusions_formed) << tag;
  EXPECT_EQ(x.fusion_demotions, y.fusion_demotions) << tag;
  EXPECT_EQ(x.sentinel_respeculations, y.sentinel_respeculations) << tag;
  EXPECT_EQ(x.vectorized_iterations, y.vectorized_iterations) << tag;
  EXPECT_EQ(x.scalar_covered_instrs, y.scalar_covered_instrs) << tag;
  EXPECT_EQ(x.vector_instrs_issued, y.vector_instrs_issued) << tag;
  EXPECT_EQ(x.array_map_accesses, y.array_map_accesses) << tag;
  EXPECT_EQ(x.vc_accesses, y.vc_accesses) << tag;
  EXPECT_EQ(x.dsa_cache_accesses, y.dsa_cache_accesses) << tag;
  EXPECT_EQ(x.rollbacks, y.rollbacks) << tag;
  EXPECT_EQ(x.blacklisted_loops, y.blacklisted_loops) << tag;
  EXPECT_EQ(x.cache_corruptions_detected, y.cache_corruptions_detected)
      << tag;
}

TEST(ObsRelevance, QSortLoopDetectionActivationsPinned) {
  // Q Sort is the stress case for latch relevance: thousands of cooled,
  // non-vectorizable backward branches that the fast path may batch as
  // inert but must still count exactly once per fresh-latch encounter.
  // The pin is the same on the fast threaded path and the reference path;
  // 2021 is the value every PR since the detector landed has reproduced.
  const Workload wl = workloads::MakeQSort();
  for (const bool ref : {false, true}) {
    SystemConfig cfg;
    cfg.reference_path = ref;
    const RunResult r = sim::Run(wl, RunMode::kDsa, cfg);
    ASSERT_TRUE(r.dsa.has_value());
    EXPECT_EQ(r.dsa->stage_activations[static_cast<int>(
                  engine::Stage::kLoopDetection)],
              2021u)
        << "ref=" << ref;
  }
}

TEST(ObsRelevance, EqualitySweepFastVsReferenceAllWorkloadsAllModes) {
  SystemConfig ref_cfg;
  ref_cfg.reference_path = true;
  std::vector<Workload> wls = workloads::AllNamedWorkloads();
  // The pure-ALU dispatch microloop: no memory traffic, so the relevance
  // classes and the threaded dispatch carry the whole run.
  wls.push_back(workloads::MakeDispatchMicro(20000));
  for (const Workload& wl : wls) {
    for (const RunMode m : {RunMode::kScalar, RunMode::kAutoVec,
                            RunMode::kHandVec, RunMode::kDsa}) {
      const std::string tag = wl.name + "@" + std::string(ToString(m));
      ExpectCountersIdentical(tag, sim::Run(wl, m, {}), sim::Run(wl, m, ref_cfg));
    }
  }
}

TEST(ObsRelevance, OriginalDsaConfigStaysIdentical) {
  // The Article-2 parameterization cools down and re-speculates on
  // different schedules, exercising different epoch-bump sequences.
  SystemConfig cfg;
  cfg.dsa = engine::DsaConfig::Original();
  SystemConfig ref_cfg = cfg;
  ref_cfg.reference_path = true;
  for (const Workload& wl :
       {workloads::MakeQSort(), workloads::MakeBitCount(),
        workloads::MakeStrCopy()}) {
    ExpectCountersIdentical(wl.name + " (Original DSA)",
                            sim::Run(wl, RunMode::kDsa, cfg),
                            sim::Run(wl, RunMode::kDsa, ref_cfg));
  }
}

TEST(ObsRelevance, HostPhasesArePlausibleAndBounded) {
  // host.phases is host metadata, so only its invariants are testable:
  // non-negative buckets whose sum never exceeds the wall time (they are
  // disjoint tsc spans of the run), and a non-empty dispatch bucket for a
  // run of this size.
  const RunResult r = sim::Run(workloads::MakeQSort(), RunMode::kDsa, {});
  const RunResult::HostPhases& p = r.host_phases;
  EXPECT_GE(p.dispatch_ms, 0.0);
  EXPECT_GE(p.observe_ms, 0.0);
  EXPECT_GE(p.mem_ms, 0.0);
  EXPECT_GE(p.neon_ms, 0.0);
  EXPECT_GT(p.dispatch_ms, 0.0);
  EXPECT_LE(p.dispatch_ms + p.observe_ms + p.mem_ms + p.neon_ms,
            r.host_wall_ms * 1.0001 + 1e-9);
}

}  // namespace
}  // namespace dsa::sim
