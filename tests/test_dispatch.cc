// Threaded core vs reference twin (docs/DISPATCH.md): every batched loop
// runs on the predecoded threaded-code engine, and SystemConfig::
// reference_path swaps in the per-step twin (StepBody<kRef>, sim::Run's
// per-step loops and its own covered-region loop). Every simulated stat
// must be bit-identical across the twins; only host wall time may differ.
// This suite is the fine-grained companion to the bench oracle's
// differential gate: streaming and generated programs, faulted runs,
// fused-nest glue accounting, way-predicted memory runs under one-set
// pressure and their slow-path share, plus direct-Cpu superinstruction
// tests (fused group semantics == stepping the members one by one,
// including budget exhaustion at a group midpoint and branches into a
// group's later members). The workload x mode matrix and the
// Original-DSA config live in test_reference_path.cc.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "cpu/cpu.h"
#include "fault/fault.h"
#include "nest_programs.h"
#include "prog/assembler.h"
#include "sim/report.h"
#include "sim/system.h"
#include "workloads/gen/generator.h"
#include "workloads/streaming/streaming.h"
#include "workloads/workloads.h"

namespace dsa::sim {
namespace {

using isa::Cond;
using isa::Opcode;
using prog::Assembler;
using workloads::MakeMatMul;
using workloads::MakeVecAdd;

// ---- system-level identity -----------------------------------------------

// Runs `wl` on the fast path and on the reference twin, asserts they are
// bit-identical and returns the fast result for further checks.
RunResult ExpectTwinsIdentical(const Workload& wl, RunMode mode,
                               const SystemConfig& base_cfg = {}) {
  SystemConfig fast_cfg = base_cfg;
  fast_cfg.reference_path = false;
  SystemConfig ref_cfg = base_cfg;
  ref_cfg.reference_path = true;

  const RunResult fast = Run(wl, mode, fast_cfg);
  const RunResult ref = Run(wl, mode, ref_cfg);

  const std::string tag = wl.name + " in " + std::string(ToString(mode));
  EXPECT_EQ(fast.output_ok, ref.output_ok) << tag;
  EXPECT_EQ(fast.cycles, ref.cycles) << tag;
  EXPECT_EQ(fast.output_digest, ref.output_digest) << tag;
  // Same instruction stream => same interpreter step count, even though
  // host_steps is host metadata outside the oracle's comparison set.
  EXPECT_EQ(fast.host_steps, ref.host_steps) << tag;
  // FormatReport covers every simulated stat the report surfaces (CPU
  // counters, cache hits/misses, DRAM, DSA, energy) in one comparison.
  EXPECT_EQ(FormatReport(fast), FormatReport(ref)) << tag;
  return fast;
}

TEST(Dispatch, StreamingWorkloadsBitIdentical) {
  for (const Workload& wl : workloads::StreamingSet()) {
    ExpectTwinsIdentical(wl, RunMode::kScalar);
    ExpectTwinsIdentical(wl, RunMode::kDsa);
  }
}

TEST(Dispatch, FaultedRunsBitIdentical) {
  // The guard's rollback/blacklist recovery must take the same decisions
  // on both twins: injected divergences are detected at the same retire
  // boundaries either way.
  SystemConfig cfg;
  cfg.faults = fault::ParseFaultPlan("cidp@0+2,mem@1,lane@0;seed=7");
  for (const Workload& wl : {MakeVecAdd(257), MakeMatMul(16)}) {
    ExpectTwinsIdentical(wl, RunMode::kDsa, cfg);
  }
}

TEST(Dispatch, GeneratorSweep64SeedsBitIdentical) {
  // 64-seed sweep over the loop-nest generator's grammar classes, DSA
  // mode: the randomized companion to the hand-written programs.
  for (const Workload& wl : workloads::gen::GeneratedSet(9000, 64)) {
    ExpectTwinsIdentical(wl, RunMode::kDsa);
  }
}

TEST(Dispatch, FusedNestGlueStoreMatchesReference) {
  // The threaded covered loop stops before the glue store, the store
  // retires per-step, and the run demotes the fusion exactly once — with
  // the same glue count, retires and cycles as the reference loop.
  const RunResult r = ExpectTwinsIdentical(nests::GlueStoreNest(),
                                           RunMode::kDsa);
  ASSERT_TRUE(r.dsa.has_value());
  EXPECT_TRUE(r.output_ok);
  EXPECT_GE(r.dsa->fusions_formed, 1u);
  EXPECT_EQ(r.dsa->fusion_demotions, 1u);
}

TEST(Dispatch, FusedNestGlueLdrStraddlingInnerStartMatchesReference) {
  // A fused ldr+ldr group spans the last glue instruction and the inner
  // loop's first: glue must be counted per retire, not per group head.
  const RunResult r = ExpectTwinsIdentical(nests::LdrStraddleNest(),
                                           RunMode::kDsa);
  ASSERT_TRUE(r.dsa.has_value());
  EXPECT_TRUE(r.output_ok);
  EXPECT_GE(r.dsa->fusions_formed, 1u);
  EXPECT_EQ(r.dsa->fusion_demotions, 0u);
}

// ---- way-predicted memory runs -------------------------------------------

// Every stream below is an immediate offset from one pointer, 16 KB apart,
// so all of them share one set of the 64 KB 4-way L1 and move on to the
// next set together. Loop 1: one load before it takes run 0, so its four
// streams take runs 1, 2, 3, 0 and their last hits arrive in an order
// that differs from run order; every 4th iteration a fifth stream evicts
// the LRU way. Loop 2 has six memory instructions, so runs are shared.
// It is entered at its body: the store of C (run 0) executes after the
// load of C (run 2), so when its evictor (run 1) misses, two open runs
// sit on C's way and the lower run holds the later hit.
Workload SharedSetRuns() {
  Assembler as;
  as.Movi(1, 0x10000);
  as.Ldr(9, 1);  // mem 0, run 0
  as.Movi(6, 256);
  as.Movi(7, 0);
  const auto loop1 = as.NewLabel();
  const auto skip1 = as.NewLabel();
  as.Bind(loop1);
  as.Ldr(8, 1, 0, 0x4000);  // mem 1, run 1
  as.Alu(Opcode::kAdd, 7, 7, 8);
  as.Ldr(8, 1, 0, 0x8000);  // mem 2, run 2
  as.Alu(Opcode::kAdd, 7, 7, 8);
  as.Ldr(8, 1, 0, 0xC000);  // mem 3, run 3
  as.Alu(Opcode::kAdd, 7, 7, 8);
  as.Ldr(8, 1);  // mem 4, run 0
  as.Alu(Opcode::kAdd, 7, 7, 8);
  as.AluImm(Opcode::kAndi, 11, 6, 3);
  as.Cmpi(11, 0);
  as.B(Cond::kNe, skip1);
  as.Ldr(8, 1, 0, 0x10000);  // mem 5, run 1: the fifth stream
  as.Alu(Opcode::kAdd, 7, 7, 8);
  as.Bind(skip1);
  as.AluImm(Opcode::kAddi, 1, 1, 4);
  as.AluImm(Opcode::kSubi, 6, 6, 1);
  as.Cmpi(6, 0);
  as.B(Cond::kGt, loop1);

  as.Movi(3, 0x40000);
  as.Str(7, 3, 0, 0x20000);  // mem 6, run 2
  as.Ldr(9, 3, 0, 0x20000);  // mem 7, run 3: loop 2 starts at run 0
  as.Movi(6, 256);
  const auto body2 = as.NewLabel();
  const auto tail2 = as.NewLabel();
  const auto skip2 = as.NewLabel();
  const auto done2 = as.NewLabel();
  as.B(Cond::kAl, body2);
  as.Bind(tail2);
  as.Str(8, 3);  // mem 8, run 0: C, after its load
  as.AluImm(Opcode::kAndi, 11, 6, 3);
  as.Cmpi(11, 0);
  as.B(Cond::kNe, skip2);
  as.Ldr(9, 3, 0, 0x10000);  // mem 9, run 1: the evictor
  as.Bind(skip2);
  as.AluImm(Opcode::kAddi, 3, 3, 4);
  as.AluImm(Opcode::kSubi, 6, 6, 1);
  as.Cmpi(6, 0);
  as.B(Cond::kLe, done2);
  as.Bind(body2);
  as.Ldr(8, 3);  // mem 10, run 2: C
  as.Ldr(9, 3, 0, 0x4000);  // mem 11, run 3
  as.Alu(Opcode::kAdd, 8, 8, 9);
  as.Ldr(9, 3, 0, 0x8000);  // mem 12, run 0
  as.Alu(Opcode::kAdd, 8, 8, 9);
  as.Ldr(9, 3, 0, 0xC000);  // mem 13, run 1
  as.Alu(Opcode::kAdd, 8, 8, 9);
  as.B(Cond::kAl, tail2);
  as.Bind(done2);
  as.Halt();
  return nests::Mini(as.Finish(), [](mem::Memory& m) {
    for (std::uint32_t a = 0x10000; a < 0x60000; a += 4) {
      m.Write32(a, (a * 2654435761u) >> 7);
    }
  });
}

TEST(Dispatch, MemRunsSharingOneL1SetMatchReference) {
  // Deferred hits land with the stamp of each way's last hit, not in run
  // order, and a run shared by two streams or two runs sharing a way
  // must not lose a later stamp: every eviction here depends on it.
  const Workload wl = SharedSetRuns();
  const RunResult r = ExpectTwinsIdentical(wl, RunMode::kScalar);
  EXPECT_GT(r.l1.misses, 0u);
  ExpectTwinsIdentical(wl, RunMode::kDsa);
}

// Share of memory accesses that miss their way-predicted run when `wl`
// runs arm-original: one RunFree batch on the threaded core.
double MemRunMissShare(const Workload& wl) {
  mem::Memory memory(wl.mem_bytes);
  if (wl.init) wl.init(memory);
  mem::Hierarchy hierarchy(mem::Hierarchy::Config{});
  cpu::Cpu cpu(wl.scalar, memory, hierarchy);
  std::uint64_t steps = 0;
  cpu.RunFree(SystemConfig{}.max_steps, steps);
  EXPECT_TRUE(cpu.halted()) << wl.name;
  const std::uint64_t ops = cpu.stats().mem_reads + cpu.stats().mem_writes;
  EXPECT_GT(ops, 0u) << wl.name;
  return static_cast<double>(cpu.mem_run_misses()) / ops;
}

TEST(DispatchMemRuns, InterleavedStreamsStayOnTheirRuns) {
  // One run per stream: MM's ldr B / ldr C / str C and RGB-Gray's pixel
  // loads and stores miss their run about once per new line each. With
  // one run per batch they missed on 67% and 100% of accesses.
  for (const Workload& wl : {MakeMatMul(64), workloads::MakeRgbGray()}) {
    EXPECT_LE(MemRunMissShare(wl), 0.10) << wl.name;
  }
}

// ---- superinstruction fusion, direct Cpu ---------------------------------

// Two CPUs over the same program with separate (identically seeded)
// memories: the threaded core and a reference twin. Comparisons cover
// architectural state, every CpuStats counter, the cycle model, and
// memory contents.
struct TwinRig {
  explicit TwinRig(prog::Program p, std::size_t mem = 1 << 16)
      : program(std::move(p)),
        mem_ref(mem),
        mem_th(mem),
        hier_ref(mem::Hierarchy::Config{}),
        hier_th(mem::Hierarchy::Config{}),
        ref(program, mem_ref, hier_ref, {}, /*reference_path=*/true),
        th(program, mem_th, hier_th) {
    hier_ref.set_reference_path(true);
  }

  void Seed32(std::uint32_t addr, std::uint32_t v) {
    mem_ref.Write32(addr, v);
    mem_th.Write32(addr, v);
  }

  // Runs the threaded twin through the free-running batch loop and steps
  // the reference twin under the same budget rule (`++steps > max_steps`
  // before each step, so exhaustion leaves steps == max_steps + 1), then
  // asserts bit-identical outcomes.
  void RunFreeBoth(std::uint64_t max_steps, const std::string& tag) {
    std::uint64_t steps_ref = 0;
    std::uint64_t steps_th = 0;
    while (!ref.halted()) {
      if (++steps_ref > max_steps) break;
      ref.Step();
    }
    th.RunFree(max_steps, steps_th);
    EXPECT_EQ(steps_ref, steps_th) << tag;
    ExpectEqual(tag);
  }

  void ExpectEqual(const std::string& tag) {
    EXPECT_EQ(ref.state().halted, th.state().halted) << tag;
    EXPECT_EQ(ref.state().pc, th.state().pc) << tag;
    EXPECT_EQ(ref.state().cmp_diff, th.state().cmp_diff) << tag;
    for (int r = 0; r < isa::kNumScalarRegs; ++r) {
      EXPECT_EQ(ref.state().regs[r], th.state().regs[r])
          << tag << ": r" << r;
    }
    const cpu::CpuStats& a = ref.stats();
    const cpu::CpuStats& b = th.stats();
    EXPECT_EQ(a.retired_total, b.retired_total) << tag;
    EXPECT_EQ(a.retired_scalar, b.retired_scalar) << tag;
    EXPECT_EQ(a.retired_vector, b.retired_vector) << tag;
    EXPECT_EQ(a.mem_reads, b.mem_reads) << tag;
    EXPECT_EQ(a.mem_writes, b.mem_writes) << tag;
    EXPECT_EQ(a.branches, b.branches) << tag;
    EXPECT_EQ(a.mispredicts, b.mispredicts) << tag;
    EXPECT_EQ(a.issue_slots, b.issue_slots) << tag;
    EXPECT_EQ(a.mem_stall_cycles, b.mem_stall_cycles) << tag;
    EXPECT_EQ(a.other_stall_cycles, b.other_stall_cycles) << tag;
    EXPECT_EQ(a.neon_busy_cycles, b.neon_busy_cycles) << tag;
    EXPECT_EQ(a.dsa_overhead_cycles, b.dsa_overhead_cycles) << tag;
    EXPECT_EQ(ref.Cycles(), th.Cycles()) << tag;
    ASSERT_EQ(mem_ref.size(), mem_th.size());
    for (std::uint32_t addr = 0; addr < mem_ref.size(); ++addr) {
      if (mem_ref.Read8(addr) != mem_th.Read8(addr)) {
        ADD_FAILURE() << tag << ": memory differs at " << addr;
        break;
      }
    }
  }

  prog::Program program;
  mem::Memory mem_ref;
  mem::Memory mem_th;
  mem::Hierarchy hier_ref;
  mem::Hierarchy hier_th;
  cpu::Cpu ref;
  cpu::Cpu th;
};

// Straight-line program hitting the five ALU body-pair rules
// (lsr+and, and+add, eor+and, lsl+add, add+subi).
prog::Program AluPairProgram() {
  Assembler as;
  as.Movi(1, 0x1234);
  as.Movi(2, 3);
  as.Alu(Opcode::kLsr, 3, 1, 2);
  as.Alu(Opcode::kAnd, 3, 3, 1);
  as.Alu(Opcode::kAnd, 4, 1, 2);
  as.Alu(Opcode::kAdd, 4, 4, 1);
  as.Alu(Opcode::kEor, 5, 1, 2);
  as.Alu(Opcode::kAnd, 5, 5, 1);
  as.Alu(Opcode::kLsl, 6, 1, 2);
  as.Alu(Opcode::kAdd, 6, 6, 2);
  as.Alu(Opcode::kAdd, 7, 1, 2);
  as.AluImm(Opcode::kSubi, 7, 7, 5);
  as.Halt();
  return as.Finish();
}

TEST(DispatchFusion, AluPairsFuseAndMatchUnfusedSemantics) {
  TwinRig rig(AluPairProgram());
  EXPECT_EQ(rig.ref.fused_pairs(), 0u);
  EXPECT_EQ(rig.th.fused_pairs(), 5u);
  rig.RunFreeBoth(10000, "alu pairs");
  EXPECT_TRUE(rig.th.state().halted);
}

TEST(DispatchFusion, MemoryPairsFuseAndMatchUnfusedSemantics) {
  // ldr+ldr, ldrb+ldrb, ldrb+strb, ldrb+add, mla+str, fadd+str,
  // fmul+fadd, add+str.
  Assembler as;
  as.Movi(1, 0x100);  // src
  as.Movi(2, 0x200);  // dst
  as.Ldr(3, 1, 4);
  as.Ldr(4, 1, 4);
  as.Ldrb(5, 1, 1);
  as.Ldrb(6, 1, 1);
  as.Ldrb(7, 1, 1);
  as.Strb(7, 2, 1);
  as.Ldrb(8, 1, 1);
  as.Alu(Opcode::kAdd, 8, 8, 3);
  as.Mla(9, 3, 4, 8);
  as.Str(9, 2, 4);
  as.Alu(Opcode::kFadd, 10, 3, 4);
  as.Str(10, 2, 4);
  as.Alu(Opcode::kFmul, 11, 3, 4);
  as.Alu(Opcode::kFadd, 11, 11, 3);
  as.Alu(Opcode::kAdd, 12, 3, 4);
  as.Str(12, 2, 4);
  as.Halt();

  TwinRig rig(as.Finish());
  rig.Seed32(0x100, 0x3f800000);  // 1.0f; also nonzero byte lanes
  rig.Seed32(0x104, 0x40490fdb);  // pi
  rig.Seed32(0x108, 0xdeadbeef);
  EXPECT_EQ(rig.th.fused_pairs(), 8u);
  rig.RunFreeBoth(10000, "memory pairs");
  EXPECT_TRUE(rig.th.state().halted);
}

prog::Program LatchLoopProgram() {
  Assembler as;
  as.Movi(1, 6);
  as.Movi(2, 0);
  const Assembler::Label l0 = as.NewLabel();
  as.Bind(l0);
  as.AluImm(Opcode::kAddi, 2, 2, 3);
  as.AluImm(Opcode::kSubi, 1, 1, 1);
  as.Cmpi(1, 0);
  as.B(Cond::kNe, l0);  // latch pair: cmpi+b
  as.Movi(3, 4);
  as.Movi(4, 0);
  const Assembler::Label l1 = as.NewLabel();
  as.Bind(l1);
  as.AluImm(Opcode::kSubi, 3, 3, 1);
  as.Cmp(3, 4);
  as.B(Cond::kNe, l1);  // latch pair: cmp+b
  as.Halt();
  return as.Finish();
}

TEST(DispatchFusion, LatchPairsFuseAndLoopsMatch) {
  TwinRig rig(LatchLoopProgram());
  EXPECT_EQ(rig.th.fused_pairs(), 2u);
  rig.RunFreeBoth(10000, "latch loops");
  EXPECT_TRUE(rig.th.state().halted);
  EXPECT_EQ(rig.th.state().regs[2], 18u);  // 6 iterations of +3
  EXPECT_EQ(rig.th.state().regs[3], 0u);
}

TEST(DispatchFusion, LatchTriplesFuseAndLoopsMatch) {
  // Both induction-latch triples: subi+cmpi+b and addi+cmpi+b each fuse
  // into one three-wide superinstruction group.
  Assembler as;
  as.Movi(1, 5);
  as.Movi(2, 0);
  const Assembler::Label l0 = as.NewLabel();
  as.Bind(l0);
  as.AluImm(Opcode::kSubi, 1, 1, 1);
  as.Cmpi(1, 0);
  as.B(Cond::kNe, l0);  // triple: subi+cmpi+b
  const Assembler::Label l1 = as.NewLabel();
  as.Bind(l1);
  as.AluImm(Opcode::kAddi, 2, 2, 7);
  as.Cmpi(2, 21);
  as.B(Cond::kNe, l1);  // triple: addi+cmpi+b
  as.Halt();

  TwinRig rig(as.Finish());
  EXPECT_EQ(rig.th.fused_pairs(), 2u);
  rig.RunFreeBoth(10000, "latch triples");
  EXPECT_TRUE(rig.th.state().halted);
  EXPECT_EQ(rig.th.state().regs[1], 0u);
  EXPECT_EQ(rig.th.state().regs[2], 21u);
}

TEST(DispatchFusion, BranchIntoTripleMiddleExecutesPlainMembers) {
  // The outer latch targets the cmpi that is the *second* member of the
  // fused subi+cmpi+b triple. Only the head slot's handler id is
  // rewritten, so the jump lands on the plain cmpi handler and the twins
  // stay in lockstep.
  Assembler as;
  as.Movi(1, 4);  // inner counter
  as.Movi(2, 0);  // outer counter
  const Assembler::Label top = as.NewLabel();
  as.Bind(top);                      // pc 2: triple head
  as.AluImm(Opcode::kSubi, 1, 1, 1);
  const Assembler::Label mid = as.NewLabel();
  as.Bind(mid);                      // pc 3: triple middle
  as.Cmpi(1, 0);
  as.B(Cond::kNe, top);
  as.AluImm(Opcode::kAddi, 2, 2, 1);
  as.Cmpi(2, 3);
  as.B(Cond::kNe, mid);              // outer latch into the triple middle
  as.Halt();

  TwinRig rig(as.Finish());
  // subi+cmpi+b triple plus the outer cmpi+b latch pair.
  EXPECT_EQ(rig.th.fused_pairs(), 2u);
  rig.RunFreeBoth(10000, "branch into triple middle");
  EXPECT_TRUE(rig.th.state().halted);
  EXPECT_EQ(rig.th.state().regs[1], 0u);
  EXPECT_EQ(rig.th.state().regs[2], 3u);
}

TEST(DispatchFusion, BudgetExhaustionSweepStopsAtSamePoint) {
  // Walking the step budget across every prefix length forces budget
  // exhaustion at every position of the stream, including between the
  // members of a fused pair or triple (the leading members retire,
  // control rests on the next member's plain slot). pc, registers, stats
  // and cycles must agree with the stepped reference twin at every cut
  // point.
  for (std::uint64_t budget = 0; budget <= 40; ++budget) {
    TwinRig rig(LatchLoopProgram());
    rig.RunFreeBoth(budget, "budget=" + std::to_string(budget));
  }
  for (std::uint64_t budget = 0; budget <= 20; ++budget) {
    TwinRig rig(AluPairProgram());
    rig.RunFreeBoth(budget, "alu budget=" + std::to_string(budget));
  }
}

TEST(DispatchFusion, BranchIntoPairMiddleExecutesPlainSecondMember) {
  // The backward latch targets the str that is the second member of the
  // fused add+str pair at (4,5): only the head slot's handler id is
  // rewritten by fusion, so a branch into the middle lands on the plain
  // handler and the twins stay in lockstep.
  Assembler as;
  as.Movi(1, 0x100);  // store base
  as.Movi(2, 0);      // value
  as.Movi(3, 4);      // iteration counter
  as.Movi(4, 1);
  as.Alu(Opcode::kAdd, 2, 2, 4);  // pc 4: fused head (add+str)
  const Assembler::Label mid = as.NewLabel();
  as.Bind(mid);                   // pc 5: pair middle
  as.Str(2, 1, 4);
  as.AluImm(Opcode::kSubi, 3, 3, 1);
  as.Cmpi(3, 0);
  as.B(Cond::kNe, mid);           // latch pair branching into (4,5)'s middle
  as.Halt();

  TwinRig rig(as.Finish());
  // add+str body pair and cmpi+b latch pair.
  EXPECT_EQ(rig.th.fused_pairs(), 2u);
  rig.RunFreeBoth(10000, "branch into pair middle");
  EXPECT_TRUE(rig.th.state().halted);
  // Four stores of r2 == 1 at 0x100..0x10c.
  for (std::uint32_t a = 0x100; a < 0x110; a += 4) {
    EXPECT_EQ(rig.mem_th.Read32(a), 1u) << a;
  }
}

TEST(DispatchFusion, ReferenceCpuNeverLowersAndOnlySteps) {
  prog::Program p = AluPairProgram();
  mem::Memory m(1 << 16);
  mem::Hierarchy h(mem::Hierarchy::Config{});
  cpu::Cpu ref(p, m, h, {}, /*reference_path=*/true);
  EXPECT_EQ(ref.fused_pairs(), 0u);
  // No threaded stream to run the batched loops on.
  std::uint64_t steps = 0;
  std::uint64_t skipped = 0;
  EXPECT_THROW(ref.RunFree(100, steps), std::logic_error);
  EXPECT_THROW(ref.RunToInteresting(100, steps, skipped), std::logic_error);
  EXPECT_THROW(ref.RunCovered(2, 4, 2, 4, 4, 0), std::logic_error);
  EXPECT_EQ(ref.stats().retired_total, 0u);
}

}  // namespace
}  // namespace dsa::sim
