// Edge-case engine tests: structure-capacity limits, repeated executions
// (sentinel range learning, Fig. 24 dynamic-range re-validation), cache
// eviction pressure and unusual loop shapes.
#include <gtest/gtest.h>

#include "nest_programs.h"
#include "prog/assembler.h"
#include "sim/system.h"

namespace dsa::engine {
namespace {

using isa::Cond;
using isa::Opcode;
using nests::Mini;
using prog::Assembler;
using sim::RunMode;
using sim::RunResult;

RunResult RunDsa(const sim::Workload& wl, DsaConfig cfg = {}) {
  sim::SystemConfig sc;
  sc.dsa = cfg;
  return sim::Run(wl, RunMode::kDsa, sc);
}

TEST(EngineEdge, VerificationCacheOverflowRejects) {
  // A body with more memory accesses per iteration than the VC holds.
  DsaConfig cfg;
  cfg.verification_cache_bytes = 16;  // 4 entries
  Assembler as;
  as.Movi(0, 0x1000);
  as.Movi(1, 0x8000);
  as.Movi(3, 50);
  const auto loop = as.NewLabel();
  as.Bind(loop);
  for (int i = 0; i < 6; ++i) {
    as.Ldr(4, 0, 0, 4 * i);
    as.Str(4, 1, 0, 4 * i);
  }
  as.AluImm(Opcode::kAddi, 0, 0, 4);
  as.AluImm(Opcode::kAddi, 1, 1, 4);
  as.AluImm(Opcode::kSubi, 3, 3, 1);
  as.Cmpi(3, 0);
  as.B(Cond::kGt, loop);
  as.Halt();
  const RunResult r = RunDsa(Mini(as.Finish()), cfg);
  EXPECT_EQ(r.dsa->takeovers, 0u);
  EXPECT_EQ(
      r.dsa->rejects_by_reason.count(RejectReason::kVerificationCacheFull),
      1u);
}

TEST(EngineEdge, TraceOverflowRejects) {
  DsaConfig cfg;
  cfg.trace_capacity = 8;
  Assembler as;
  as.Movi(0, 0x1000);
  as.Movi(2, 0x8000);
  as.Movi(3, 50);
  const auto loop = as.NewLabel();
  as.Bind(loop);
  as.Ldr(4, 0, 4);
  for (int i = 0; i < 10; ++i) as.AluImm(Opcode::kAddi, 5, 4, i);
  as.Str(5, 2, 4);
  as.AluImm(Opcode::kSubi, 3, 3, 1);
  as.Cmpi(3, 0);
  as.B(Cond::kGt, loop);
  as.Halt();
  const RunResult r = RunDsa(Mini(as.Finish()), cfg);
  EXPECT_EQ(r.dsa->takeovers, 0u);
  EXPECT_EQ(r.dsa->rejects_by_reason.count(RejectReason::kTraceOverflow), 1u);
}

// Fig. 23: the sentinel loop's second execution speculates with the
// learned range instead of one vector.
TEST(EngineEdge, SentinelLearnsRangeAcrossExecutions) {
  Assembler as;
  as.Movi(10, 2);  // run the string copy twice
  const auto outer = as.NewLabel();
  as.Bind(outer);
  as.Movi(0, 0x1000);
  as.Movi(1, 0x10000);
  const auto loop = as.NewLabel();
  as.Bind(loop);
  as.Ldrb(4, 0, 1);
  as.Strb(4, 1, 1);
  as.Cmpi(4, 0);
  as.B(Cond::kNe, loop);
  as.AluImm(Opcode::kSubi, 10, 10, 1);
  as.Cmpi(10, 0);
  as.B(Cond::kGt, outer);
  as.Halt();
  auto init = [](mem::Memory& m) {
    for (int i = 0; i < 200; ++i) m.Write8(0x1000 + i, 7);
    m.Write8(0x1000 + 200, 0);
  };
  const RunResult r = RunDsa(Mini(as.Finish(), init));
  ASSERT_TRUE(r.dsa.has_value());
  // First execution: analysis + doubling windows. Second execution: one
  // cache-hit takeover sized by the learned range covers nearly all of it.
  EXPECT_GT(r.dsa->cache_hit_takeovers, 0u);
  EXPECT_GT(r.dsa->vectorized_iterations, 250u);
  EXPECT_TRUE(r.output_ok);
}

// Fig. 24: the same loop body, executed twice with different ranges; the
// longer range brings a cross-iteration dependency into the window, so the
// re-entry CIDP must catch it (partial vectorization instead of full).
TEST(EngineEdge, DynamicRangeRevalidationCatchesNewDependency) {
  // a[i+16] = a[i] + 1 over n elements; n=8 first (no dep inside range),
  // n=64 second (dependency at distance 16).
  Assembler as;
  as.Movi(10, 0);  // pass index
  as.Movi(9, 0xF00);
  const auto outer = as.NewLabel();
  as.Bind(outer);
  as.Movi(0, 0x1000);
  as.Movi(2, 0x1000 + 16 * 4);
  as.Movi(3, 0xF00);
  as.Ldr(3, 3, 0, 0);  // runtime range for this pass
  as.Movi(7, 1);
  const auto loop = as.NewLabel();
  as.Bind(loop);
  as.Ldr(4, 0, 4);
  as.Alu(Opcode::kAdd, 6, 4, 7);
  as.Str(6, 2, 4);
  as.AluImm(Opcode::kSubi, 3, 3, 1);
  as.Cmpi(3, 0);
  as.B(Cond::kGt, loop);
  // second pass uses a bigger range
  as.Movi(8, 64);
  as.Str(8, 9, 0, 0);
  as.AluImm(Opcode::kAddi, 10, 10, 1);
  as.Cmpi(10, 2);
  as.B(Cond::kLt, outer);
  as.Halt();
  auto init = [](mem::Memory& m) {
    m.Write32(0xF00, 8);
    for (int i = 0; i < 128; ++i) m.Write32(0x1000 + 4 * i, i);
  };
  // Golden: sequential semantics of both passes.
  auto check = [](const mem::Memory& m) {
    std::vector<std::uint32_t> a(128);
    for (int i = 0; i < 128; ++i) a[i] = i;
    for (const int n : {8, 64}) {
      for (int i = 0; i < n; ++i) a[i + 16] = a[i] + 1;
    }
    for (int i = 0; i < 128; ++i) {
      if (m.Read32(0x1000 + 4 * i) != a[i]) return false;
    }
    return true;
  };
  const RunResult r = RunDsa(Mini(as.Finish(), init, check));
  EXPECT_TRUE(r.output_ok);
  ASSERT_TRUE(r.dsa.has_value());
  // Second entry re-runs CIDP with the new range: the dependency at
  // distance 16 demotes the count loop to partial vectorization.
  EXPECT_EQ(r.dsa->entries_by_class.count(LoopClass::kPartial), 1u);
}

TEST(EngineEdge, DsaCacheEvictionStillCorrect) {
  // Three distinct loops under a 2-entry DSA cache, executed twice each.
  DsaConfig cfg;
  cfg.dsa_cache_bytes = 64;
  cfg.dsa_cache_entry_bytes = 32;  // 2 entries
  Assembler as;
  as.Movi(10, 2);
  const auto outer = as.NewLabel();
  as.Bind(outer);
  for (int l = 0; l < 3; ++l) {
    as.Movi(0, 0x1000 + l * 0x2000);
    as.Movi(2, 0x10000 + l * 0x2000);
    as.Movi(3, 40);
    const auto loop = as.NewLabel();
    as.Bind(loop);
    as.Ldr(4, 0, 4);
    as.Str(4, 2, 4);
    as.AluImm(Opcode::kSubi, 3, 3, 1);
    as.Cmpi(3, 0);
    as.B(Cond::kGt, loop);
  }
  as.AluImm(Opcode::kSubi, 10, 10, 1);
  as.Cmpi(10, 0);
  as.B(Cond::kGt, outer);
  as.Halt();
  const RunResult r = RunDsa(Mini(as.Finish()), cfg);
  ASSERT_TRUE(r.dsa.has_value());
  EXPECT_GE(r.dsa->takeovers, 6u);
  EXPECT_TRUE(r.output_ok);
}

TEST(EngineEdge, MemsetLoopVectorized) {
  // No loads: an invariant register streamed to memory.
  Assembler as;
  as.Movi(2, 0x10000);
  as.Movi(4, 0xAB);
  as.Movi(3, 100);
  const auto loop = as.NewLabel();
  as.Bind(loop);
  as.Strb(4, 2, 1);
  as.AluImm(Opcode::kSubi, 3, 3, 1);
  as.Cmpi(3, 0);
  as.B(Cond::kGt, loop);
  as.Halt();
  auto check = [](const mem::Memory& m) {
    for (int i = 0; i < 100; ++i) {
      if (m.Read8(0x10000 + i) != 0xAB) return false;
    }
    return true;
  };
  const RunResult r = RunDsa(Mini(as.Finish(), nullptr, check));
  EXPECT_TRUE(r.output_ok);
  EXPECT_EQ(r.dsa->takeovers, 1u);
}

TEST(EngineEdge, NeLatchCountLoopVectorized) {
  // while (i != n): an exact-hit latch the estimator can solve.
  Assembler as;
  as.Movi(0, 0x1000);
  as.Movi(2, 0x10000);
  as.Movi(6, 0);
  const auto loop = as.NewLabel();
  as.Bind(loop);
  as.Ldr(4, 0, 4);
  as.Str(4, 2, 4);
  as.AluImm(Opcode::kAddi, 6, 6, 1);
  as.Cmpi(6, 48);
  as.B(Cond::kNe, loop);
  as.Halt();
  const RunResult r = RunDsa(Mini(as.Finish()));
  EXPECT_EQ(r.dsa->takeovers, 1u);
  EXPECT_EQ(r.dsa->vectorized_iterations, 45u);
}

TEST(EngineEdge, DescendingStreamRejected) {
  // Pointers walking downward: |stride| == elem but negative.
  Assembler as;
  as.Movi(0, 0x1000 + 50 * 4);
  as.Movi(2, 0x10000 + 50 * 4);
  as.Movi(3, 50);
  const auto loop = as.NewLabel();
  as.Bind(loop);
  as.Ldr(4, 0, -4);
  as.Str(4, 2, -4);
  as.AluImm(Opcode::kSubi, 3, 3, 1);
  as.Cmpi(3, 0);
  as.B(Cond::kGt, loop);
  as.Halt();
  const RunResult r = RunDsa(Mini(as.Finish()));
  EXPECT_EQ(r.dsa->takeovers, 0u);
  EXPECT_EQ(r.dsa->rejects_by_reason.count(RejectReason::kNonUnitStride), 1u);
  EXPECT_TRUE(r.output_ok);
}

TEST(EngineEdge, RejectedLoopAnalyzedOnlyOnce) {
  // A non-vectorizable loop re-entered many times: the DSA cache record
  // must suppress re-analysis after the first rejection.
  Assembler as;
  as.Movi(10, 20);  // entries
  const auto outer = as.NewLabel();
  as.Bind(outer);
  as.Movi(0, 0x1000);
  as.Movi(3, 30);
  as.Movi(6, 0);
  as.Movi(1, 0x10000);
  const auto loop = as.NewLabel();
  as.Bind(loop);
  as.Ldr(4, 0, 4);
  as.Alu(Opcode::kAdd, 6, 6, 4);  // carry-around
  as.Str(6, 1, 4);
  as.AluImm(Opcode::kSubi, 3, 3, 1);
  as.Cmpi(3, 0);
  as.B(Cond::kGt, loop);
  as.AluImm(Opcode::kSubi, 10, 10, 1);
  as.Cmpi(10, 0);
  as.B(Cond::kGt, outer);
  as.Halt();
  const RunResult r = RunDsa(Mini(as.Finish()));
  // One rejection recorded, not twenty.
  EXPECT_EQ(r.dsa->rejects_by_reason.at(RejectReason::kCarryAroundScalar), 1u);
}

// Fig. 17's fusion assumption can be wrong: the fusability check looks at
// the glue instructions *observed during analysis*, so a store that only
// executes on a late outer iteration is invisible when the nest fuses.
// The fused coverage must catch the store mid-run, end the takeover and
// demote the fusion record; per-inner cache-hit takeovers resume after.
TEST(EngineEdge, FusedNestDemotedAfterGlueStore) {
  const RunResult r = RunDsa(nests::GlueStoreNest());
  ASSERT_TRUE(r.dsa.has_value());
  EXPECT_TRUE(r.output_ok);
  EXPECT_GE(r.dsa->fusions_formed, 1u);
  EXPECT_EQ(r.dsa->fusion_demotions, 1u);
  // After demotion the inner loop keeps vectorizing from its cache record:
  // one cache-hit takeover per remaining outer entry.
  EXPECT_GE(r.dsa->cache_hit_takeovers, 3u);
  EXPECT_GE(r.dsa->takeovers, 4u);
}

// Section 4.6.5's continued-execution case within ONE execution: a string
// long enough to outlive the first speculated range forces the cooldown's
// sentinel watch to re-speculate repeatedly with a doubled window.
TEST(EngineEdge, SentinelRespeculatesWithDoublingWindowMidRun) {
  Assembler as;
  as.Movi(0, 0x1000);
  as.Movi(1, 0x10000);
  const auto loop = as.NewLabel();
  as.Bind(loop);
  as.Ldrb(4, 0, 1);
  as.Strb(4, 1, 1);
  as.Cmpi(4, 0);
  as.B(Cond::kNe, loop);
  as.Halt();
  auto init = [](mem::Memory& m) {
    for (int i = 0; i < 500; ++i) m.Write8(0x1000 + i, 0x33);
    m.Write8(0x1000 + 500, 0);
  };
  auto check = [](const mem::Memory& m) {
    for (int i = 0; i < 500; ++i) {
      if (m.Read8(0x10000 + i) != 0x33) return false;
    }
    return m.Read8(0x10000 + 500) == 0;
  };
  const RunResult r = RunDsa(Mini(as.Finish(), init, check));
  ASSERT_TRUE(r.dsa.has_value());
  EXPECT_TRUE(r.output_ok);
  EXPECT_EQ(r.dsa->loops_by_class.at(LoopClass::kSentinel), 1u);
  // Initial speculation plus at least two doubled windows.
  EXPECT_GE(r.dsa->sentinel_respeculations, 2u);
  EXPECT_GE(r.dsa->takeovers, 3u);
}

TEST(EngineEdge, OriginalConfigFactoryDisablesDynamicFeatures) {
  const DsaConfig o = DsaConfig::Original();
  EXPECT_FALSE(o.enable_conditional_loops);
  EXPECT_FALSE(o.enable_sentinel_loops);
  EXPECT_FALSE(o.enable_dynamic_range_loops);
  EXPECT_FALSE(o.enable_partial_vectorization);
  const DsaConfig e = DsaConfig::Extended();
  EXPECT_TRUE(e.enable_conditional_loops);
  EXPECT_TRUE(e.enable_sentinel_loops);
}

}  // namespace
}  // namespace dsa::engine
