// SIMD instruction generation tests (Section 4.7, Fig. 25): capture the
// takeover plan the engine produces for a loop, generate the NEON code,
// execute it on a fresh machine, and require bit-identical memory with the
// scalar loop's own execution.
#include <gtest/gtest.h>

#include <optional>

#include "cpu/cpu.h"
#include "engine/engine.h"
#include "engine/simd_gen.h"
#include "prog/assembler.h"

namespace dsa::engine {
namespace {

using isa::Cond;
using isa::Opcode;
using prog::Assembler;

struct Captured {
  TakeoverPlan plan;
  std::array<std::uint32_t, isa::kNumScalarRegs> regs_at_takeover{};
  std::vector<std::uint8_t> memory_after_scalar;
};

// Runs `p` (scalar) with the engine attached until the first takeover
// plan; records the register file at that point, then finishes the program
// *scalar* and snapshots memory.
std::optional<Captured> Capture(const prog::Program& p,
                                const std::function<void(mem::Memory&)>& init,
                                std::size_t mem_bytes = 1 << 17) {
  mem::Memory memory(mem_bytes);
  if (init) init(memory);
  mem::Hierarchy h{mem::Hierarchy::Config{}};
  cpu::Cpu cpu(p, memory, h);
  DsaEngine engine{DsaConfig{}, cpu::TimingConfig{}};

  std::optional<Captured> cap;
  int steps = 0;
  while (!cpu.halted() && ++steps < 1000000) {
    const cpu::Retired r = cpu.Step();
    if (r.instr == nullptr) break;
    if (!cap.has_value()) {
      const auto plan = engine.Observe(r, cpu.state());
      if (plan.has_value()) {
        Captured c;
        c.plan = *plan;
        c.regs_at_takeover = cpu.state().regs;
        cap = c;
      }
    }
  }
  if (!cap.has_value()) return std::nullopt;
  cap->memory_after_scalar = memory.raw();
  return cap;
}

// Executes the generated SIMD loop over `iterations` elements starting
// from the captured register state and initial memory; returns memory.
std::vector<std::uint8_t> RunGenerated(const SimdProgram& gen,
                                       const Captured& cap,
                                       const std::function<void(mem::Memory&)>& init,
                                       std::uint64_t iterations,
                                       std::size_t mem_bytes = 1 << 17) {
  const int count_reg = 9;  // free in the test loops below
  const prog::Program loop = gen.AsLoop(count_reg);
  mem::Memory memory(mem_bytes);
  if (init) init(memory);
  mem::Hierarchy h{mem::Hierarchy::Config{}};
  cpu::Cpu cpu(loop, memory, h);
  cpu.state().regs = cap.regs_at_takeover;
  cpu.state().regs[count_reg] = static_cast<std::uint32_t>(iterations);
  int steps = 0;
  while (!cpu.halted() && ++steps < 1000000) cpu.Step();
  return memory.raw();
}

void InitWords(mem::Memory& m) {
  std::uint32_t s = 0xA5A5A5A5u;
  for (std::uint32_t a = 0x1000; a < 0x9000; a += 4) {
    s ^= s << 13;
    s ^= s >> 17;
    s ^= s << 5;
    m.Write32(a, s % 1000);
  }
}

// The running-example loop: v[i] = a[i] + b[i] over 100 int32 elements.
prog::Program AddLoop(int n) {
  Assembler as;
  as.Movi(0, 0x1000);
  as.Movi(1, 0x3000);
  as.Movi(2, 0x10000);
  as.Movi(3, n);
  const auto loop = as.NewLabel();
  as.Bind(loop);
  as.Ldr(4, 0, 4);
  as.Ldr(5, 1, 4);
  as.Alu(Opcode::kAdd, 6, 4, 5);
  as.Str(6, 2, 4);
  as.AluImm(Opcode::kSubi, 3, 3, 1);
  as.Cmpi(3, 0);
  as.B(Cond::kGt, loop);
  as.Halt();
  return as.Finish();
}

TEST(SimdGen, AddLoopShapeMatchesFig25) {
  // 100-iteration loop; takeover after 3 analysis iterations.
  const auto cap = Capture(AddLoop(100), InitWords);
  ASSERT_TRUE(cap.has_value());
  SimdGenError err;
  const auto gen = GenerateSimd(cap->plan.record.body, cap->regs_at_takeover,
                                {11, 12}, &err);
  ASSERT_TRUE(gen.has_value()) << err.reason;
  // Fig. 25: two vector loads, one vadd, one vector store per chunk.
  ASSERT_EQ(gen->chunk.size(), 4u);
  EXPECT_EQ(gen->chunk[0].op, Opcode::kVld1);
  EXPECT_EQ(gen->chunk[1].op, Opcode::kVld1);
  EXPECT_EQ(gen->chunk[2].op, Opcode::kVadd);
  EXPECT_EQ(gen->chunk[3].op, Opcode::kVst1);
  EXPECT_TRUE(gen->setup.empty());
}

TEST(SimdGen, GeneratedCodeMatchesScalarExecution) {
  const int n = 100;
  const auto cap = Capture(AddLoop(n), InitWords);
  ASSERT_TRUE(cap.has_value());
  const auto gen = GenerateSimd(cap->plan.record.body, cap->regs_at_takeover,
                                {11, 12});
  ASSERT_TRUE(gen.has_value());
  // 96 of the remaining 97 iterations are a lane multiple; the generated
  // chunk loop covers those, so compare that region only.
  const std::uint64_t covered = 96;
  const auto vec_mem = RunGenerated(*gen, *cap, InitWords, covered);
  // Scalar output: v[3..98] must match (iterations 4..99 cover them).
  for (std::uint64_t i = 3; i < 3 + covered; ++i) {
    const std::size_t addr = 0x10000 + 4 * i;
    EXPECT_EQ(vec_mem[addr], cap->memory_after_scalar[addr]) << i;
  }
}

// Multiply-accumulate with an invariant multiplier (the MM inner loop).
TEST(SimdGen, MlaWithInvariantBroadcast) {
  Assembler as;
  as.Movi(0, 0x1000);  // B row
  as.Movi(2, 0x10000); // C row
  as.Movi(4, 7);       // a_ik
  as.Movi(3, 64);
  const auto loop = as.NewLabel();
  as.Bind(loop);
  as.Ldr(8, 0, 4);
  as.Ldr(9, 2);
  as.Mla(9, 8, 4, 9);
  as.Str(9, 2, 4);
  as.AluImm(Opcode::kSubi, 3, 3, 1);
  as.Cmpi(3, 0);
  as.B(Cond::kGt, loop);
  as.Halt();
  const auto cap = Capture(as.Finish(), InitWords);
  ASSERT_TRUE(cap.has_value());
  SimdGenError err;
  const auto gen = GenerateSimd(cap->plan.record.body, cap->regs_at_takeover,
                                {11, 12}, &err);
  ASSERT_TRUE(gen.has_value()) << err.reason;
  // The invariant multiplier becomes one vdup in the setup code.
  ASSERT_EQ(gen->setup.size(), 1u);
  EXPECT_EQ(gen->setup[0].op, Opcode::kVdup);

  const auto vec_mem = RunGenerated(*gen, *cap, InitWords, 60);
  for (std::uint64_t i = 3; i < 63; ++i) {
    const std::size_t addr = 0x10000 + 4 * i;
    EXPECT_EQ(vec_mem[addr], cap->memory_after_scalar[addr]) << i;
  }
}

// Shift amounts are baked in from the live register file.
TEST(SimdGen, RuntimeShiftBecomesImmediate) {
  Assembler as;
  as.Movi(0, 0x1000);
  as.Movi(2, 0x10000);
  as.Movi(7, 3);  // runtime shift amount
  as.Movi(3, 64);
  const auto loop = as.NewLabel();
  as.Bind(loop);
  as.Ldrh(4, 0, 2);
  as.Alu(Opcode::kLsr, 5, 4, 7);
  as.Strh(5, 2, 2);
  as.AluImm(Opcode::kSubi, 3, 3, 1);
  as.Cmpi(3, 0);
  as.B(Cond::kGt, loop);
  as.Halt();
  const auto cap = Capture(as.Finish(), InitWords);
  ASSERT_TRUE(cap.has_value());
  const auto gen = GenerateSimd(cap->plan.record.body, cap->regs_at_takeover,
                                {11, 12});
  ASSERT_TRUE(gen.has_value());
  bool found_shift = false;
  for (const auto& i : gen->chunk) {
    if (i.op == Opcode::kVshr) {
      found_shift = true;
      EXPECT_EQ(i.imm, 3);
    }
  }
  EXPECT_TRUE(found_shift);
  const auto vec_mem = RunGenerated(*gen, *cap, InitWords, 56);
  for (std::uint64_t i = 3; i < 3 + 56; ++i) {
    const std::size_t addr = 0x10000 + 2 * i;
    EXPECT_EQ(vec_mem[addr], cap->memory_after_scalar[addr]) << i;
  }
}

// Immediate ALU operands become broadcast constants.
TEST(SimdGen, ImmediateOperandBroadcast) {
  Assembler as;
  as.Movi(0, 0x1000);
  as.Movi(2, 0x10000);
  as.Movi(3, 64);
  const auto loop = as.NewLabel();
  as.Bind(loop);
  as.Ldr(4, 0, 4);
  as.AluImm(Opcode::kAddi, 5, 4, 1000);
  as.Str(5, 2, 4);
  as.AluImm(Opcode::kSubi, 3, 3, 1);
  as.Cmpi(3, 0);
  as.B(Cond::kGt, loop);
  as.Halt();
  const auto cap = Capture(as.Finish(), InitWords);
  ASSERT_TRUE(cap.has_value());
  const auto gen = GenerateSimd(cap->plan.record.body, cap->regs_at_takeover,
                                {11, 12});
  ASSERT_TRUE(gen.has_value());
  // setup: movi scratch, #1000 + vdup.
  ASSERT_EQ(gen->setup.size(), 2u);
  EXPECT_EQ(gen->setup[0].op, Opcode::kMovi);
  EXPECT_EQ(gen->setup[0].imm, 1000);
  EXPECT_EQ(gen->setup[1].op, Opcode::kVdup);
  const auto vec_mem = RunGenerated(*gen, *cap, InitWords, 60);
  for (std::uint64_t i = 3; i < 63; ++i) {
    const std::size_t addr = 0x10000 + 4 * i;
    EXPECT_EQ(vec_mem[addr], cap->memory_after_scalar[addr]) << i;
  }
}

TEST(SimdGen, ConditionalBodiesRefused) {
  BodySummary body;
  body.conditions.push_back(CondRegion{});
  SimdGenError err;
  EXPECT_FALSE(GenerateSimd(body, {}, {11}, &err).has_value());
  EXPECT_FALSE(err.reason.empty());
}

TEST(SimdGen, EmptyChunkRefused) {
  // A body whose code lowers to no vector instruction must be refused,
  // not reported as a chunk that only decrements the counter: an empty
  // body, and one that only renames a register (mov emits nothing).
  BodySummary empty;
  empty.vec_type = isa::VecType::kI32;
  BodySummary rename = empty;
  isa::Instruction mov;
  mov.op = Opcode::kMov;
  mov.rd = 5;
  mov.rm = 4;
  rename.code.push_back(mov);
  for (const BodySummary& body : {empty, rename}) {
    SimdGenError err;
    EXPECT_FALSE(GenerateSimd(body, {}, {11}, &err).has_value());
    EXPECT_EQ(err.reason, "body emits no vector instruction");
  }
}

TEST(SimdGen, AsrRefused) {
  BodySummary body;
  body.vec_type = isa::VecType::kI32;
  isa::Instruction i;
  i.op = Opcode::kAsr;
  i.rd = 5;
  i.rn = 4;
  i.rm = 7;
  body.code.push_back(i);
  SimdGenError err;
  EXPECT_FALSE(GenerateSimd(body, {}, {11}, &err).has_value());
}

TEST(SimdGen, AsLoopIsRunnableAndBounded) {
  const auto cap = Capture(AddLoop(64), InitWords);
  ASSERT_TRUE(cap.has_value());
  const auto gen = GenerateSimd(cap->plan.record.body, cap->regs_at_takeover,
                                {11, 12});
  ASSERT_TRUE(gen.has_value());
  const prog::Program p = gen->AsLoop(9);
  EXPECT_GT(p.size(), gen->chunk.size());
  EXPECT_EQ(p.at(p.size() - 1).op, Opcode::kHalt);
}

}  // namespace
}  // namespace dsa::engine
