// Threaded core vs reference twin (docs/DISPATCH.md): every batched loop
// runs on the threaded-code engine, Step() is the one per-step core on
// every Cpu, and SystemConfig::reference_path makes the reference twin
// (map branch predictor, no threaded stream, sim::Run's per-step loops
// and its own covered-region loop). Every simulated stat must be
// bit-identical across the twins; only host wall time may differ.
// This suite is the fine-grained companion to the bench oracle's
// differential gate: streaming and generated programs, faulted runs,
// fused-nest glue accounting, way-predicted memory runs under one-set
// pressure and their slow-path share, loop chunks (their share of MM and
// RGB-Gray iterations and the programs at their boundaries: carried
// stores, int32 wrap, shared runs, straddles, max_iterations, step
// budget), direct-Cpu superinstruction tests (fused group semantics ==
// stepping the members one by one, including budget exhaustion at a
// group midpoint and branches into a group's later members), and the
// exception points of every memory opcode and every fused pair whose
// second member accesses memory (RunFree, non-reference Step() and the
// reference twin leave the same state). The workload x mode matrix and
// the Original-DSA config live in test_reference_path.cc.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
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

// ---- loop chunks ---------------------------------------------------------

TEST(DispatchChunks, CountedLoopsRunInChunks) {
  // MM's ldr B / ldr C / mla / str C body and RGB-Gray's pixel loop run
  // in chunks of up to a line of iterations, in free runs (arm-original)
  // and in DSA takeovers (neon-dsa) alike: only the iteration that opens
  // each new line and each exit iteration stay scalar.
  struct Case {
    Workload wl;
    std::uint64_t iterations;  // of the inner loop
  };
  const Case cases[] = {{MakeMatMul(64), 64 * 64 * 64},
                        {workloads::MakeRgbGray(), 32768}};
  for (const Case& c : cases) {
    for (const RunMode mode : {RunMode::kScalar, RunMode::kDsa}) {
      const RunResult r = ExpectTwinsIdentical(c.wl, mode);
      const double share =
          static_cast<double>(r.chunk_iterations) / c.iterations;
      EXPECT_GE(share, 0.85) << c.wl.name << " in " << ToString(mode);
    }
  }
}

// a[i + 1] = a[i] + 7 when `store_off` is 4: each store feeds the next
// iteration's load, so op-major order would read stale values. With a
// store 4 KB away the same body carries nothing through memory.
Workload StoreForwardLoop(std::int32_t store_off) {
  Assembler as;
  as.Movi(1, 0x10000);
  as.Movi(3, 200);
  as.Movi(5, 7);
  const auto loop = as.NewLabel();
  as.Bind(loop);
  as.Ldr(4, 1);
  as.Alu(Opcode::kAdd, 4, 4, 5);
  as.Str(4, 1, 0, store_off);
  as.AluImm(Opcode::kAddi, 1, 1, 4);
  as.AluImm(Opcode::kSubi, 3, 3, 1);
  as.Cmpi(3, 0);
  as.B(Cond::kGt, loop);
  as.Halt();
  return nests::Mini(as.Finish(),
                     [](mem::Memory& m) { m.Write32(0x10000, 1); });
}

TEST(DispatchChunks, LoopCarriedStoreRunsNoChunk) {
  // The overlap test refuses every chunk of the carried loop; the control
  // loop shows the body itself chunks.
  for (const RunMode mode : {RunMode::kScalar, RunMode::kDsa}) {
    const RunResult r = ExpectTwinsIdentical(StoreForwardLoop(4), mode);
    EXPECT_EQ(r.chunk_iterations, 0u) << ToString(mode);
  }
  const RunResult control =
      ExpectTwinsIdentical(StoreForwardLoop(0x1000), RunMode::kScalar);
  EXPECT_GT(control.chunk_iterations, 100u);
}

// Three counted loops whose latch operand wraps the int32 range: up
// through INT32_MAX against #0 (b gt: exits at the wrap), up against a
// register past the wrap (b ne: exits 6 iterations after it), and down
// through INT32_MIN against #0 (b lt: exits at the wrap). The compare
// reads the int32 cast, so a chunk may only span lanes before the wrap.
Workload Int32WrapLoops() {
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  Assembler as;
  as.Movi(7, 0x18000);  // final counter values
  const auto counted = [&](std::int32_t start, Opcode step, Cond c,
                           std::uint32_t dst, bool vs_reg) {
    as.Movi(1, start);
    as.Movi(2, static_cast<std::int32_t>(dst));
    as.Movi(9, kMin + 5);
    const auto loop = as.NewLabel();
    as.Bind(loop);
    as.Str(1, 2, 4);
    as.AluImm(step, 1, 1, 1);
    if (vs_reg) {
      as.Cmp(1, 9);
    } else {
      as.Cmpi(1, 0);
    }
    as.B(c, loop);
    as.Str(1, 7, 4);
  };
  counted(kMax - 100, Opcode::kAddi, Cond::kGt, 0x10000, false);
  counted(kMax - 60, Opcode::kAddi, Cond::kNe, 0x11000, true);
  counted(kMin + 70, Opcode::kSubi, Cond::kLt, 0x12000, false);
  as.Halt();
  return nests::Mini(as.Finish());
}

TEST(DispatchChunks, LatchCounterCrossingInt32MaxMatchesReference) {
  const RunResult r = ExpectTwinsIdentical(Int32WrapLoops(), RunMode::kScalar);
  EXPECT_EQ(r.cpu.branches, 101u + 66u + 71u);  // one latch per iteration
  EXPECT_GT(r.chunk_iterations, 100u);
  ExpectTwinsIdentical(Int32WrapLoops(), RunMode::kDsa);
}

// Loop 1 has five memory ops: the load and the store of A share run 0,
// and A, B, C, D sit 16 KB apart in one L1 set. Its trip count ends on a
// line boundary, so every line but the last is last touched inside a
// chunk, and the chunk's deferred-hit numbers decide the set's LRU order
// (A, via the store, is most recent). A fifth line per set then evicts
// each set's LRU way and A is read back: a wrong number would evict A.
// Loop 2 adds an unaligned stream whose every 16th load straddles two
// lines, one iteration after the aligned streams open new lines: the
// chunk attempted there would start on the straddling load, and no chunk
// may hold one.
Workload SharedRunAndStraddleLoops() {
  Assembler as;
  as.Movi(1, 0x10000);
  as.Movi(3, 16 * 8);
  const auto loop1 = as.NewLabel();
  as.Bind(loop1);
  as.Ldr(8, 1);  // A, run 0
  as.Ldr(9, 1, 0, 0x4000);  // B, run 1
  as.Alu(Opcode::kAdd, 8, 8, 9);
  as.Ldr(9, 1, 0, 0x8000);  // C, run 2
  as.Alu(Opcode::kAdd, 8, 8, 9);
  as.Ldr(9, 1, 0, 0xC000);  // D, run 3
  as.Alu(Opcode::kAdd, 8, 8, 9);
  as.Str(8, 1, 4);  // A, run 0
  as.AluImm(Opcode::kSubi, 3, 3, 1);
  as.Cmpi(3, 0);
  as.B(Cond::kGt, loop1);
  // Line-stride walks (no plan: one lane per line): evict, then re-read.
  for (const std::int32_t base : {0x20000, 0x10000}) {
    as.Movi(4, base);
    as.Movi(3, 8);
    const auto walk = as.NewLabel();
    as.Bind(walk);
    as.Ldr(9, 4, 64);
    as.AluImm(Opcode::kSubi, 3, 3, 1);
    as.Cmpi(3, 0);
    as.B(Cond::kGt, walk);
  }
  as.Movi(1, 0x30000);
  as.Movi(4, 0x34000 + 58);
  as.Movi(2, 0x38000);
  as.Movi(3, 100);
  const auto loop2 = as.NewLabel();
  as.Bind(loop2);
  as.Ldr(8, 1, 4);
  as.Ldr(9, 4, 4);  // line offset 58 + 4i: straddles at 62
  as.Alu(Opcode::kAdd, 8, 8, 9);
  as.Str(8, 2, 4);
  as.AluImm(Opcode::kSubi, 3, 3, 1);
  as.Cmpi(3, 0);
  as.B(Cond::kGt, loop2);
  as.Halt();
  return nests::Mini(as.Finish(), [](mem::Memory& m) {
    for (std::uint32_t a = 0x10000; a < 0x40000; a += 4) {
      m.Write32(a, (a * 2654435761u) >> 9);
    }
  });
}

TEST(DispatchChunks, SharedRunAndStraddlingStreamMatchReference) {
  for (const RunMode mode : {RunMode::kScalar, RunMode::kDsa}) {
    const RunResult r = ExpectTwinsIdentical(SharedRunAndStraddleLoops(), mode);
    EXPECT_GT(r.l1.misses, 0u) << ToString(mode);
    if (mode == RunMode::kScalar) {
      EXPECT_GT(r.chunk_iterations, 150u);
    }
  }
}

// ---- superinstruction fusion, direct Cpu ---------------------------------

// Asserts that two Cpus over separate memories left the same state:
// architectural state (vector registers included), every CpuStats
// counter, the cycle model, both cache levels and memory contents.
void ExpectSameState(cpu::Cpu& a, cpu::Cpu& b, const std::string& tag) {
  const cpu::CpuState& x = a.state();
  const cpu::CpuState& y = b.state();
  EXPECT_EQ(x.halted, y.halted) << tag;
  EXPECT_EQ(x.pc, y.pc) << tag;
  EXPECT_EQ(x.cmp_diff, y.cmp_diff) << tag;
  for (int r = 0; r < isa::kNumScalarRegs; ++r) {
    EXPECT_EQ(x.regs[r], y.regs[r]) << tag << ": r" << r;
  }
  for (int q = 0; q < isa::kNumVecRegs; ++q) {
    EXPECT_EQ(x.vregs.q(q).bytes, y.vregs.q(q).bytes) << tag << ": q" << q;
  }
  const cpu::CpuStats& s = a.stats();
  const cpu::CpuStats& t = b.stats();
  EXPECT_EQ(s.retired_total, t.retired_total) << tag;
  EXPECT_EQ(s.retired_scalar, t.retired_scalar) << tag;
  EXPECT_EQ(s.retired_vector, t.retired_vector) << tag;
  EXPECT_EQ(s.mem_reads, t.mem_reads) << tag;
  EXPECT_EQ(s.mem_writes, t.mem_writes) << tag;
  EXPECT_EQ(s.branches, t.branches) << tag;
  EXPECT_EQ(s.mispredicts, t.mispredicts) << tag;
  EXPECT_EQ(s.issue_slots, t.issue_slots) << tag;
  EXPECT_EQ(s.mem_stall_cycles, t.mem_stall_cycles) << tag;
  EXPECT_EQ(s.other_stall_cycles, t.other_stall_cycles) << tag;
  EXPECT_EQ(s.neon_busy_cycles, t.neon_busy_cycles) << tag;
  EXPECT_EQ(s.dsa_overhead_cycles, t.dsa_overhead_cycles) << tag;
  EXPECT_EQ(a.Cycles(), b.Cycles()) << tag;
  for (const bool l1 : {true, false}) {
    const char* level = l1 ? ": L1" : ": L2";
    const mem::Cache& c = l1 ? a.hierarchy().l1() : a.hierarchy().l2();
    const mem::Cache& d = l1 ? b.hierarchy().l1() : b.hierarchy().l2();
    EXPECT_EQ(c.stats().hits, d.stats().hits) << tag << level;
    EXPECT_EQ(c.stats().misses, d.stats().misses) << tag << level;
  }
  EXPECT_EQ(a.hierarchy().dram_accesses(), b.hierarchy().dram_accesses())
      << tag;
  EXPECT_TRUE(a.memory().raw() == b.memory().raw())
      << tag << ": memory differs";
}

// Two CPUs over the same program with separate (identically seeded)
// memories: the threaded core and a reference twin.
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

  // Covers the plain loop [start, latch] from the current state, at most
  // `max_iterations` latch retires: the threaded twin through RunCovered,
  // the reference twin by stepping under the rules of sim::Run's per-step
  // covered loop and then removing the covered retires' issue, non-memory
  // stall and branch cost the way RunCovered does. Asserts bit-identical
  // outcomes.
  void RunCoveredBoth(std::uint32_t start, std::uint32_t latch,
                      std::uint64_t max_iterations, const std::string& tag) {
    const cpu::CpuStats before = ref.stats();
    std::uint64_t iterations = 0;
    while (!ref.halted()) {
      const std::uint32_t pc = ref.state().pc;
      if (pc < start || pc > latch) break;
      const cpu::Retired r = ref.Step();
      if (r.pc != latch) continue;
      ++iterations;
      if (!r.branch_taken) break;
      if (max_iterations != 0 && iterations >= max_iterations) break;
    }
    cpu::CpuStats& s = ref.stats();
    const std::uint64_t retired = s.retired_total - before.retired_total;
    s.issue_slots = before.issue_slots;
    s.other_stall_cycles = before.other_stall_cycles;
    s.retired_total = before.retired_total;
    s.retired_scalar = before.retired_scalar;
    s.branches = before.branches;
    s.mispredicts = before.mispredicts;
    const cpu::Cpu::CoveredOutcome d =
        th.RunCovered(start, latch, start, latch, latch, max_iterations);
    EXPECT_EQ(iterations, d.iterations) << tag;
    EXPECT_EQ(retired, d.retired) << tag;
    ExpectEqual(tag);
  }

  void ExpectEqual(const std::string& tag) { ExpectSameState(ref, th, tag); }

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

// A chunkable copy loop, dst[i] = src[i] + 3, whose trip counts come
// from a table: 1, 1, 12, 20. The two one-iteration entries leave the
// latch's predictor counter at 0, so the first chunk starts on a weak
// counter and must advance it once per lane.
constexpr std::uint32_t kChunkCopyHead = 6;
constexpr std::uint32_t kChunkCopyLatch = 11;
// Steps up to the fourth entry's first taken latch (pc at the head).
constexpr std::uint64_t kChunkCopyFourthEntry = 5 + 10 + 10 + 76 + 7;

prog::Program ChunkCopyProgram() {
  Assembler as;
  as.Movi(5, 0x100);  // trip table
  as.Movi(1, 0x400);  // src
  as.Movi(2, 0x800);  // dst
  as.Movi(6, 4);      // entries
  as.Movi(7, 3);
  const auto outer = as.NewLabel();
  as.Bind(outer);
  as.Ldr(3, 5, 4);
  const auto inner = as.NewLabel();
  as.Bind(inner);  // pc 6
  as.Ldr(8, 1, 4);
  as.Alu(Opcode::kAdd, 8, 8, 7);
  as.Str(8, 2, 4);
  as.AluImm(Opcode::kSubi, 3, 3, 1);
  as.Cmpi(3, 0);
  as.B(Cond::kGt, inner);  // pc 11
  as.AluImm(Opcode::kSubi, 6, 6, 1);
  as.Cmpi(6, 0);
  as.B(Cond::kGt, outer);
  as.Halt();
  return as.Finish();
}

void SeedChunkCopy(TwinRig& rig) {
  const std::uint32_t trips[] = {1, 1, 12, 20};
  for (std::uint32_t i = 0; i < 4; ++i) rig.Seed32(0x100 + 4 * i, trips[i]);
  for (std::uint32_t i = 0; i < 40; ++i) {
    rig.Seed32(0x400 + 4 * i, i * 2654435761u);
  }
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
  // A chunkable copy loop (226 steps in all): a budget that dies inside a
  // chunk's span must shorten the chunk, not overrun or skip it.
  std::uint64_t chunked = 0;
  for (std::uint64_t budget = 0; budget <= 230; ++budget) {
    TwinRig rig(ChunkCopyProgram());
    SeedChunkCopy(rig);
    rig.RunFreeBoth(budget, "chunk budget=" + std::to_string(budget));
    chunked = rig.th.chunk_iterations();
    if (budget == 230) {
      EXPECT_TRUE(rig.th.halted());
    }
  }
  EXPECT_GT(chunked, 20u);
}

TEST(DispatchChunks, CoveredRunStopsAtMaxIterationsMidLine) {
  // The speculated range of a sentinel takeover (max_iterations) runs out
  // at every point of the loop's second line: the chunk stays short of the
  // limit, and the covered run ends after exactly max_iterations latch
  // retires, with the pc at the loop head. The program then runs to its
  // end on both twins. (No sentinel loop qualifies for a chunk plan: its
  // compare reads a register the body loads. So the covered run is
  // driven directly with the limit such a takeover would carry.)
  std::uint64_t chunked = 0;
  for (std::uint64_t max_it = 1; max_it <= 24; ++max_it) {
    const std::string tag = "max_iterations=" + std::to_string(max_it);
    TwinRig rig(ChunkCopyProgram());
    SeedChunkCopy(rig);
    // Into the fourth entry (20 iterations), one done: src then sits at
    // the last word of a line, so limits from 3 on land mid-line.
    rig.RunFreeBoth(kChunkCopyFourthEntry, tag + " prologue");
    EXPECT_EQ(rig.th.state().pc, kChunkCopyHead) << tag;
    rig.RunCoveredBoth(kChunkCopyHead, kChunkCopyLatch, max_it, tag);
    chunked += rig.th.chunk_iterations();
    rig.RunFreeBoth(10000, tag + " tail");
    EXPECT_TRUE(rig.th.halted()) << tag;
  }
  EXPECT_GT(chunked, 0u);
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

// ---- exception points ----------------------------------------------------

// One program on three Cpus over private 64 KiB memories: the threaded
// core (RunFree, fused), a non-reference Cpu driven through Step(), and
// the reference twin. The program ends in an access past the end of
// memory; every path must throw std::out_of_range at the same retire
// and publish the same state.
constexpr std::size_t kFaultMem = 1 << 16;

struct FaultSide {
  FaultSide(const prog::Program& p, bool reference)
      : memory(kFaultMem),
        hierarchy(mem::Hierarchy::Config{}),
        cpu(p, memory, hierarchy, {}, reference) {
    hierarchy.set_reference_path(reference);
    for (std::uint32_t a = 0x100; a < 0x200; a += 4) {
      memory.Write32(a, a * 2654435761u);
    }
    for (std::uint32_t a = kFaultMem - 64; a < kFaultMem; a += 4) {
      memory.Write32(a, a * 40503u + 11);
    }
  }

  // Steps under sim::Run's per-step budget rule until the fault; returns
  // the step count, the faulting step included.
  std::uint64_t StepToFault(const std::string& tag) {
    std::uint64_t steps = 0;
    try {
      while (!cpu.halted() && ++steps <= 10000) cpu.Step();
      ADD_FAILURE() << tag << ": no out_of_range";
    } catch (const std::out_of_range&) {
    }
    return steps;
  }

  mem::Memory memory;
  mem::Hierarchy hierarchy;
  cpu::Cpu cpu;
};

// Prologue shared by every faulting program: a three-iteration loop with
// loads, a store, a vld1 and a fused subi+cmpi+b latch, so registers,
// vregs, the predictor, both caches and memory hold non-trivial state
// when the fault hits. It ends on a movi, which heads no fused group.
void FaultPrologue(Assembler& as) {
  as.Movi(5, 0x100);
  as.Movi(6, 3);
  const Assembler::Label loop = as.NewLabel();
  as.Bind(loop);
  as.Ldr(7, 5, 4);
  as.Str(7, 5, 0, 0x80);
  as.Vld1(isa::VecType::kI32, 1, 5, /*writeback=*/false);
  as.AluImm(Opcode::kSubi, 6, 6, 1);
  as.Cmpi(6, 0);
  as.B(Cond::kNe, loop);
  as.Cmpi(7, 9);
  as.Movi(2, 0x3f800000);  // 1.0f
  as.Movi(3, 0x40000000);  // 2.0f
  as.Movi(4, 5);
}

struct FaultCase {
  const char* name;
  std::uint32_t base;  // r1 at the faulting sequence
  std::uint32_t fused;  // fused groups the faulting sequence forms
  void (*emit)(Assembler& as);
};

TEST(DispatchFaults, EveryMemoryOpFaultsAtTheSamePointOnAllPaths) {
  using isa::VecType;
  // Plain accesses straddle the end of memory; each fused pair's head
  // stays in range and its second member faults. Post-increments must
  // not apply on a fault.
  const FaultCase cases[] = {
      {"ldr", kFaultMem - 3, 0, [](Assembler& as) { as.Ldr(8, 1, 4); }},
      {"ldrh", kFaultMem - 1, 0, [](Assembler& as) { as.Ldrh(8, 1, 2); }},
      {"ldrb", kFaultMem, 0, [](Assembler& as) { as.Ldrb(8, 1, 1); }},
      {"str", kFaultMem - 2, 0, [](Assembler& as) { as.Str(4, 1, 4); }},
      {"strh", kFaultMem - 1, 0, [](Assembler& as) { as.Strh(4, 1, 2); }},
      {"strb", kFaultMem, 0, [](Assembler& as) { as.Strb(4, 1, 1); }},
      {"vld1", kFaultMem - 8, 0,
       [](Assembler& as) { as.Vld1(VecType::kI32, 2, 1); }},
      {"vst1", kFaultMem - 15, 0,
       [](Assembler& as) { as.Vst1(VecType::kI32, 1, 1); }},
      {"vld lane", kFaultMem - 2, 0,
       [](Assembler& as) { as.VldLane(VecType::kI32, 1, 2, 1); }},
      {"vst lane", kFaultMem - 1, 0,
       [](Assembler& as) { as.VstLane(VecType::kI16, 1, 3, 1); }},
      {"ldr+ldr", kFaultMem - 4, 1,
       [](Assembler& as) {
         as.Ldr(8, 1);
         as.Ldr(9, 1, 4, 4);
       }},
      {"ldrb+ldrb", kFaultMem - 1, 1,
       [](Assembler& as) {
         as.Ldrb(8, 1);
         as.Ldrb(9, 1, 1, 1);
       }},
      {"ldrb+strb", kFaultMem - 1, 1,
       [](Assembler& as) {
         as.Ldrb(8, 1);
         as.Strb(8, 1, 1, 1);
       }},
      {"mla+str", kFaultMem - 2, 1,
       [](Assembler& as) {
         as.Mla(8, 2, 4, 3);
         as.Str(8, 1, 4);
       }},
      {"fadd+str", kFaultMem - 2, 1,
       [](Assembler& as) {
         as.Alu(Opcode::kFadd, 8, 2, 3);
         as.Str(8, 1, 4);
       }},
      {"add+str", kFaultMem - 2, 1,
       [](Assembler& as) {
         as.Alu(Opcode::kAdd, 8, 2, 4);
         as.Str(8, 1, 4);
       }},
  };
  for (const FaultCase& c : cases) {
    const std::string tag = c.name;
    Assembler as;
    FaultPrologue(as);
    as.Movi(1, static_cast<std::int32_t>(c.base));
    c.emit(as);
    as.Halt();
    const prog::Program program = as.Finish();

    FaultSide threaded(program, /*reference=*/false);
    FaultSide stepped(program, /*reference=*/false);
    FaultSide ref(program, /*reference=*/true);
    // The prologue's latch triple, plus the group under test.
    EXPECT_EQ(threaded.cpu.fused_pairs(), 1u + c.fused) << tag;

    std::uint64_t steps = 0;
    EXPECT_THROW(threaded.cpu.RunFree(10000, steps), std::out_of_range)
        << tag;
    const std::uint64_t stepped_steps = stepped.StepToFault(tag);
    const std::uint64_t ref_steps = ref.StepToFault(tag);
    EXPECT_EQ(steps, ref_steps) << tag;
    EXPECT_EQ(stepped_steps, ref_steps) << tag;
    // The faulting instruction is the last before the halt.
    EXPECT_EQ(ref.cpu.state().pc, program.size() - 2) << tag;
    EXPECT_EQ(ref.cpu.state().regs[1], c.base) << tag;
    ExpectSameState(threaded.cpu, ref.cpu, tag + " threaded vs reference");
    ExpectSameState(stepped.cpu, ref.cpu, tag + " Step() vs reference");
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
