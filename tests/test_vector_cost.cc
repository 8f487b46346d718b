#include <gtest/gtest.h>

#include <functional>
#include <optional>

#include "cpu/cpu.h"
#include "engine/engine.h"
#include "engine/vector_cost.h"
#include "prog/assembler.h"

namespace dsa::engine {
namespace {

using isa::Opcode;

BodySummary SimpleBody(isa::VecType t = isa::VecType::kI32) {
  BodySummary b;
  b.vec_type = t;
  b.loads = {MemStream{1, false, 4, 0x100, 4, false, 0, 0},
             MemStream{2, false, 4, 0x1000, 4, false, 1, 0}};
  b.stores = {MemStream{3, true, 4, 0x2000, 4, false, 2, 0}};
  b.alu_ops = 1;
  b.body_instrs = 7;
  return b;
}

TEST(Leftover, ExactMultipleNeedsNone) {
  EXPECT_EQ(ChooseLeftover(SimpleBody(), 64), LeftoverKind::kNone);
}

TEST(Leftover, OverlappingWhenNoAlias) {
  EXPECT_EQ(ChooseLeftover(SimpleBody(), 63), LeftoverKind::kOverlapping);
}

TEST(Leftover, SingleElementsWhenStoreAliasesLoad) {
  BodySummary b = SimpleBody();
  b.stores[0].base_addr = b.loads[0].base_addr;  // in-place update
  EXPECT_EQ(ChooseLeftover(b, 63), LeftoverKind::kSingleElements);
}

TEST(Leftover, SingleElementsBelowOneVector) {
  EXPECT_EQ(ChooseLeftover(SimpleBody(), 3), LeftoverKind::kSingleElements);
}

TEST(Leftover, LargerArraysWhenPadded) {
  EXPECT_EQ(ChooseLeftover(SimpleBody(), 63, /*padded_buffers=*/true),
            LeftoverKind::kLargerArrays);
}

TEST(ChunkModel, CountsStreamsAndOps) {
  const BodySummary b = SimpleBody();
  neon::NeonTiming t;
  EXPECT_EQ(ChunkInstrs(b), 4u);  // 2 loads + 1 alu + 1 store
  EXPECT_EQ(ChunkCycles(b, t), 2 * t.mem_latency + t.alu_latency +
                                   t.mem_latency);
}

TEST(ChunkModel, InvariantLoadsBecomeFree) {
  BodySummary b = SimpleBody();
  b.loads[0].loop_invariant = true;
  EXPECT_EQ(ChunkInstrs(b), 3u);
}

// A 100-iteration count-down loop on r3 around `body`. Stream bases:
// r0 = 0x1000, r1 = 0x3000, r2 = 0x10000; live scalars r4 = 7, r7 = 3.
prog::Program CountedLoop(const std::function<void(prog::Assembler&)>& body) {
  prog::Assembler as;
  as.Movi(0, 0x1000);
  as.Movi(1, 0x3000);
  as.Movi(2, 0x10000);
  as.Movi(4, 7);
  as.Movi(7, 3);
  as.Movi(3, 100);
  const auto loop = as.NewLabel();
  as.Bind(loop);
  body(as);
  as.AluImm(Opcode::kSubi, 3, 3, 1);
  as.Cmpi(3, 0);
  as.B(isa::Cond::kGt, loop);
  as.Halt();
  return as.Finish();
}

// The engine's first takeover plan for `p`, observed retire by retire.
std::optional<TakeoverPlan> FirstPlan(const prog::Program& p) {
  mem::Memory memory(1 << 17);
  mem::Hierarchy h{mem::Hierarchy::Config{}};
  cpu::Cpu cpu(p, memory, h);
  DsaEngine engine{DsaConfig{}, cpu::TimingConfig{}};
  for (int steps = 0; !cpu.halted() && steps < 100000; ++steps) {
    const cpu::Retired r = cpu.Step();
    if (r.instr == nullptr) break;
    if (auto plan = engine.Observe(r, cpu.state())) return plan;
  }
  return std::nullopt;
}

// The chunk the simulator prices for each takeover is the DSA's NEON code
// of Section 4.7: one vld1 per non-invariant load stream, one lane op per
// ALU or multiply op, one vst1 per store stream.
TEST(ChunkModel, TakeoverPlansPriceTheEmittedChunk) {
  struct Case {
    const char* name;
    prog::Program program;
    isa::VecType vec_type;
    std::size_t loads, stores;
    std::uint32_t alu_ops, mul_ops;
    std::uint64_t chunk_instrs, chunk_cycles;
  };
  const Case cases[] = {
      // The running example, v[i] = a[i] + b[i]. Fig. 25's chunk:
      //   vld1.i32 q1, [r0]!; vld1.i32 q2, [r1]!; vadd.i32 q8, q1, q2;
      //   vst1.i32 q8, [r2]!
      {"add", CountedLoop([](prog::Assembler& as) {
         as.Ldr(5, 0, 4);
         as.Ldr(6, 1, 4);
         as.Alu(Opcode::kAdd, 8, 5, 6);
         as.Str(8, 2, 4);
       }),
       isa::VecType::kI32, 2, 1, 1, 0, 4, 1 + 1 + 1 + 1},
      // c[j] += b[j] * r4, the MM inner loop: vmla with a broadcast r4.
      {"mla", CountedLoop([](prog::Assembler& as) {
         as.Ldr(8, 0, 4);
         as.Ldr(9, 2);
         as.Mla(9, 8, 4, 9);
         as.Str(9, 2, 4);
       }),
       isa::VecType::kI32, 2, 1, 0, 1, 4, 1 + 1 + 2 + 1},
      // Halfwords shifted by a live register: one vshr.
      {"ldrh-lsr-strh", CountedLoop([](prog::Assembler& as) {
         as.Ldrh(5, 0, 2);
         as.Alu(Opcode::kLsr, 6, 5, 7);
         as.Strh(6, 2, 2);
       }),
       isa::VecType::kI16, 1, 1, 1, 0, 3, 1 + 1 + 1},
      // An immediate operand: one vadd against a broadcast constant.
      {"addi", CountedLoop([](prog::Assembler& as) {
         as.Ldr(5, 0, 4);
         as.AluImm(Opcode::kAddi, 6, 5, 1000);
         as.Str(6, 2, 4);
       }),
       isa::VecType::kI32, 1, 1, 1, 0, 3, 1 + 1 + 1},
  };
  const neon::NeonTiming t;  // alu 1, mul 2, mem 1 cycle
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::optional<TakeoverPlan> plan = FirstPlan(c.program);
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->record.cls, LoopClass::kCount);
    const BodySummary& body = plan->record.body;
    EXPECT_EQ(body.vec_type, c.vec_type);
    EXPECT_EQ(body.loads.size(), c.loads);
    EXPECT_EQ(body.stores.size(), c.stores);
    EXPECT_EQ(body.alu_ops, c.alu_ops);
    EXPECT_EQ(body.mul_ops, c.mul_ops);
    EXPECT_EQ(ChunkInstrs(body), c.chunk_instrs);
    EXPECT_EQ(ChunkCycles(body, t), c.chunk_cycles);
  }
}

TEST(CountLoopCost, ScalesWithIterations) {
  const BodySummary b = SimpleBody();
  DsaConfig cfg;
  neon::NeonTiming t;
  const RegionCost small = CostCountLoop(b, 64, cfg, t, 2);
  const RegionCost big = CostCountLoop(b, 640, cfg, t, 2);
  EXPECT_GT(big.neon_busy_cycles, small.neon_busy_cycles);
  EXPECT_GT(big.vector_instrs, small.vector_instrs);
  // Fixed overhead identical.
  EXPECT_EQ(big.overhead_cycles, small.overhead_cycles);
}

TEST(CountLoopCost, BeatsScalarForWideTypes) {
  BodySummary b = SimpleBody(isa::VecType::kI8);
  for (auto& s : b.loads) s.elem_bytes = 1;
  for (auto& s : b.stores) s.elem_bytes = 1;
  DsaConfig cfg;
  neon::NeonTiming t;
  const std::uint64_t n = 4096;
  const RegionCost c = CostCountLoop(b, n, cfg, t, 2);
  // Scalar issue alone would be ~ n*body_instrs/2.
  EXPECT_LT(c.total_cycles(), n * b.body_instrs / 2);
}

TEST(CountLoopCost, OverheadIncludesFlushAndFill) {
  const BodySummary b = SimpleBody();
  DsaConfig cfg;
  neon::NeonTiming t;
  const RegionCost c = CostCountLoop(b, 16, cfg, t, 2);
  EXPECT_GE(c.overhead_cycles, cfg.pipeline_flush_latency + t.pipeline_fill);
}

TEST(ConditionalCost, ChargesPerIterationMapping) {
  BodySummary b = SimpleBody();
  b.conditions = {CondRegion{10, 12, 1, 1},
                  CondRegion{13, 14, 0, 1}};
  b.scalar_per_iter = 4;
  DsaConfig cfg;
  neon::NeonTiming t;
  const RegionCost c = CostConditionalLoop(b, 100, cfg, t, 2);
  // 100 iterations * 4 residual instrs / width 2 = 200 cycles minimum.
  EXPECT_GE(c.scalar_addback_cycles, 200u);
  EXPECT_GT(c.array_map_accesses, 100u);
}

TEST(ConditionalCost, MoreConditionsCostMore) {
  BodySummary one = SimpleBody();
  one.conditions = {CondRegion{10, 12, 1, 1}};
  BodySummary two = one;
  two.conditions.push_back(CondRegion{13, 15, 2, 1});
  DsaConfig cfg;
  neon::NeonTiming t;
  EXPECT_GT(CostConditionalLoop(two, 64, cfg, t, 2).neon_busy_cycles,
            CostConditionalLoop(one, 64, cfg, t, 2).neon_busy_cycles);
}

TEST(SentinelCost, ChargesFullSpeculativeRangeOnEarlyExit) {
  const BodySummary b = SimpleBody();
  DsaConfig cfg;
  neon::NeonTiming t;
  // Loop stopped after 10 iterations but 64 were speculated.
  const RegionCost early = CostSentinelLoop(b, 10, 64, cfg, t, 2);
  const RegionCost exact = CostSentinelLoop(b, 64, 64, cfg, t, 2);
  EXPECT_EQ(early.neon_busy_cycles, exact.neon_busy_cycles);
  // But the per-iteration scalar stop-condition cost differs.
  EXPECT_LT(early.scalar_addback_cycles, exact.scalar_addback_cycles);
}

TEST(PartialCost, MoreWindowsMoreResync) {
  const BodySummary b = SimpleBody();
  DsaConfig cfg;
  neon::NeonTiming t;
  const RegionCost narrow = CostPartialLoop(b, 256, 8, cfg, t, 2);
  const RegionCost wide = CostPartialLoop(b, 256, 64, cfg, t, 2);
  EXPECT_GT(narrow.overhead_cycles, wide.overhead_cycles);
}

TEST(PartialCost, ZeroWindowIsEmpty) {
  const BodySummary b = SimpleBody();
  DsaConfig cfg;
  neon::NeonTiming t;
  EXPECT_EQ(CostPartialLoop(b, 100, 0, cfg, t, 2).total_cycles(), 0u);
}

TEST(RegionCost, AccumulationOperator) {
  RegionCost a;
  a.neon_busy_cycles = 5;
  a.vector_instrs = 2;
  RegionCost b;
  b.neon_busy_cycles = 7;
  b.scalar_instrs = 3;
  a += b;
  EXPECT_EQ(a.neon_busy_cycles, 12u);
  EXPECT_EQ(a.vector_instrs, 2u);
  EXPECT_EQ(a.scalar_instrs, 3u);
}

}  // namespace
}  // namespace dsa::engine
