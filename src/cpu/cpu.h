// Scalar CPU model: functional interpreter for the mini ISA plus a
// cycle-approximate timing model shaped after the paper's gem5 O3CPU setup
// (2-wide superscalar, 1 GHz, 64 kB L1 / 512 kB L2 LRU, NEON as a separate
// pipeline). Timing is trace-level: each retired instruction charges issue
// bandwidth and stall cycles; the DSA observes the retired stream exactly as
// in Figure 31 of the dissertation (analysis hooked at fetch/retire).
// Two interpreter cores execute it (docs/DISPATCH.md): the threaded core
// (dispatch.cc) runs every batched loop, the per-step core (Step())
// runs single observed retires, tracker windows, traced and reference
// runs, on every Cpu alike.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "isa/instruction.h"
#include "mem/cache.h"
#include "mem/memory.h"
#include "neon/vector_unit.h"
#include "prog/program.h"

namespace dsa::cpu {

// Architectural state shared by the scalar core and the NEON engine; the
// DSA reads it to re-evaluate ranges and the speculation guard
// checkpoints it at takeover.
struct CpuState {
  std::array<std::uint32_t, isa::kNumScalarRegs> regs{};
  neon::VectorRegFile vregs;
  std::int64_t cmp_diff = 0;  // result of last cmp (lhs - rhs), drives conds
  std::uint32_t pc = 0;
  bool halted = false;

  [[nodiscard]] bool CondHolds(isa::Cond c) const;
};

// What the DSA sees for every retired instruction (the paper's trace).
struct Retired {
  std::uint32_t pc = 0;
  const isa::Instruction* instr = nullptr;
  bool has_mem = false;
  std::uint32_t mem_addr = 0;
  std::uint32_t mem_bytes = 0;
  bool mem_is_write = false;
  bool branch_taken = false;
  std::uint32_t next_pc = 0;
};

struct TimingConfig {
  std::uint32_t superscalar_width = 2;
  std::uint32_t branch_mispredict_penalty = 8;
  std::uint32_t int_mul_extra = 2;
  std::uint32_t int_div_extra = 10;
  std::uint32_t fp_extra = 2;
  std::uint32_t fp_div_extra = 12;
  neon::NeonTiming neon;
};

struct CpuStats {
  std::uint64_t retired_total = 0;
  std::uint64_t retired_scalar = 0;
  std::uint64_t retired_vector = 0;
  std::uint64_t mem_reads = 0;
  std::uint64_t mem_writes = 0;
  std::uint64_t branches = 0;
  std::uint64_t mispredicts = 0;
  std::uint64_t issue_slots = 0;  // consumed issue bandwidth
  // Stalls split by cause: memory stalls persist under DSA covered
  // execution (the same cache lines move either way); other stalls
  // (mul/div/fp latency, branch mispredicts) are replaced by vector cost.
  std::uint64_t mem_stall_cycles = 0;
  std::uint64_t other_stall_cycles = 0;
  std::uint64_t neon_busy_cycles = 0;

  // Cycles charged by DSA activity (pipeline flush on vector takeover etc.).
  std::uint64_t dsa_overhead_cycles = 0;
};

class Cpu {
 public:
  // Two interpreter cores (docs/DISPATCH.md): the batched loops below run
  // on the threaded-code engine, which the constructor lowers from the
  // program, and Step() is the per-step core (one switch over the
  // program's Instruction, Memory's checked accessors). `reference_path`
  // makes this a reference twin: it selects the unordered_map branch
  // predictor, builds no threaded stream and is driven through Step()
  // only; the batched loops throw std::logic_error on it. Simulated
  // results are bit-identical either way (tests/test_reference_path.cc,
  // tests/test_dispatch.cc).
  Cpu(const prog::Program& program, mem::Memory& memory,
      mem::Hierarchy& hierarchy, const TimingConfig& cfg = {},
      bool reference_path = false);

  // Executes one instruction; returns the retire record. No-op when halted.
  Retired Step();

  // Batched stepping (the fast-loop interface used by sim::Run when no
  // per-retire consumer is attached): executes instructions back to back
  // without materializing Retired records. State and stats mutations are
  // identical to an equivalent sequence of Step() calls. `steps` counts
  // loop iterations against `max_steps` exactly like the per-step run loop
  // (on budget exhaustion the method returns with steps == max_steps + 1
  // and the instruction NOT executed; the caller throws).
  void RunFree(std::uint64_t max_steps, std::uint64_t& steps);

  // DSA-idle batch: executes instructions without observation until one
  // matches the engine's interest filter — the observation-relevance
  // class of its pc (ObsClass below; every latch candidate until the
  // engine fills the classes). The matching instruction is executed with
  // full observation and its retire record returned; `skipped` counts the
  // unobserved instructions executed before it (the caller credits them
  // via DsaEngine::ObserveSkipped). Returns a null-instr record when the
  // CPU halts or the step budget runs out first.
  Retired RunToInteresting(std::uint64_t max_steps, std::uint64_t& steps,
                           std::uint64_t& skipped);

  // Outcome of a covered-region run (DSA takeover, Scenario 2).
  struct CoveredOutcome {
    std::uint64_t iterations = 0;
    std::uint64_t retired = 0;
    std::uint64_t glue_instrs = 0;  // fused nests: scalar glue around the
                                    // vectorized inner loop
    bool fused_glue_store = false;  // fusion assumption violated mid-run
  };

  // Executes the covered region of a takeover: the remaining loop
  // iterations run functionally on the interpreter while their issue
  // bandwidth and non-memory stalls are removed from the timing (the
  // engine retro-charges them as vector execution in FinishTakeover).
  // Covered instructions are not counted against the run loop's step
  // budget, matching the per-step reference loop. The inner loop
  // [inner_start, inner_latch] lies within the coverage region; for a
  // fused nest (the two ranges differ) the run also counts the glue —
  // retires outside the inner loop — and ends at the first glue store,
  // which still retires and sets fused_glue_store.
  CoveredOutcome RunCovered(std::uint32_t coverage_start,
                            std::uint32_t coverage_latch,
                            std::uint32_t inner_start,
                            std::uint32_t inner_latch,
                            std::uint32_t count_latch,
                            std::uint64_t max_iterations);

  [[nodiscard]] bool halted() const { return state_.halted; }
  [[nodiscard]] CpuState& state() { return state_; }
  [[nodiscard]] const CpuState& state() const { return state_; }
  [[nodiscard]] const CpuStats& stats() const { return stats_; }
  [[nodiscard]] CpuStats& stats() { return stats_; }
  [[nodiscard]] const prog::Program& program() const { return program_; }
  [[nodiscard]] mem::Memory& memory() { return memory_; }
  [[nodiscard]] const mem::Memory& memory() const { return memory_; }
  [[nodiscard]] mem::Hierarchy& hierarchy() { return hierarchy_; }
  [[nodiscard]] const TimingConfig& timing() const { return cfg_; }

  // Total cycle count under the 2-wide issue model:
  // ceil(issue_slots / width) + stalls + NEON busy + DSA overhead.
  [[nodiscard]] std::uint64_t Cycles() const;

  // Charges extra cycles (used by the DSA executor and leftover handling).
  void AddStall(std::uint64_t cycles) { stats_.other_stall_cycles += cycles; }
  void AddNeonBusy(std::uint64_t cycles) { stats_.neon_busy_cycles += cycles; }
  void AddDsaOverhead(std::uint64_t cycles) {
    stats_.dsa_overhead_cycles += cycles;
  }
  void CountVectorRetired(std::uint64_t n) {
    stats_.retired_vector += n;
    stats_.retired_total += n;
  }

  // Retired instruction steps, host-side throughput metric: not a
  // simulated stat and never compared by the oracle. It counts every
  // retired step whether it ran one dispatch at a time or inside a loop
  // chunk (RunChunk), so it equals the reference twin's count
  // (ExpectTwinsIdentical in tests/test_dispatch.cc pins that).
  [[nodiscard]] std::uint64_t host_steps() const { return host_steps_; }

  // Superinstruction pairs the lowering pass fused for this program
  // (0 on a reference Cpu, which never lowers). Test/introspection only.
  [[nodiscard]] std::uint32_t fused_pairs() const { return fused_pairs_; }

  // Threaded-core memory accesses that missed their way-predicted run
  // (MemRunSlow calls). Test/introspection only: never compared by the
  // oracle and never emitted in a report.
  [[nodiscard]] std::uint64_t mem_run_misses() const {
    return mem_run_misses_;
  }

  // Loop iterations the threaded core ran inside loop chunks (RunChunk).
  // Test/introspection only: never compared by the oracle and never
  // emitted in a report.
  [[nodiscard]] std::uint64_t chunk_iterations() const {
    return chunk_iterations_;
  }

  // Observation-relevance class of a pc, written by
  // DsaEngine::FillObserveClasses and read by the threaded skip loop
  // (docs/DISPATCH.md): kInert retires run unobserved and are credited via
  // ObserveSkipped; kExit ends the batch *before* executing, so the engine
  // observes the retire per-step; kLatchExec executes the latch inline and
  // materializes the retire for the engine only when the branch is taken.
  // Lowering defaults every latch candidate to kExit, so a Cpu whose
  // classes were never filled behaves exactly like the pre-relevance skip
  // loop. No-op on a reference Cpu (no threaded stream to annotate).
  enum class ObsClass : std::uint8_t { kInert, kExit, kLatchExec };
  void SetObserveClass(std::uint32_t pc, ObsClass c) {
    if (pc >= tslots_.size()) return;
    std::uint8_t f = static_cast<std::uint8_t>(
        tslots_[pc].flags & ~(kSlotObsExit | kSlotObsExecExit));
    if (c == ObsClass::kExit) {
      f |= kSlotObsExit;
    } else if (c == ObsClass::kLatchExec) {
      f |= kSlotObsExecExit;
    }
    tslots_[pc].flags = f;
  }
  // Latch candidate: a kB with a backward target, the only opcode an idle
  // engine can react to; FillObserveClasses and the lowering key on it.
  [[nodiscard]] bool latch_candidate(std::uint32_t pc) const {
    return pc < program_.size() &&
           program_.code()[pc].op == isa::Opcode::kB && static_taken(pc);
  }

 private:
  // Static branch rule for the instruction at `pc` < program_.size():
  // a backward (or self) target is taken. It picks the latch candidates
  // and is both predictors' answer for a branch never trained.
  [[nodiscard]] bool static_taken(std::uint32_t pc) const {
    return static_cast<std::uint32_t>(program_.code()[pc].imm) <= pc;
  }

  // Per-batch stat deltas accumulated in registers by the hot loops and
  // flushed once at scope exit (BatchScope). Keeping these out of stats_
  // while a loop runs matters: interpreter memory writes go through byte
  // pointers, which forces the compiler to re-load and re-store every
  // member counter on each step, while locals are provably unaliased.
  struct StepAccum {
    std::uint64_t steps = 0;  // feeds retired_total/issue_slots/host_steps
    std::uint64_t vec = 0;    // of which vector
    std::uint64_t mem_stall = 0;
    std::uint64_t other_stall = 0;
    std::uint64_t mem_reads = 0;
    std::uint64_t mem_writes = 0;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
  };

  // Flush-on-exit guard owning the live pc and the accumulated deltas of
  // a stepping scope. The destructor publishes both, so observable state
  // (state_.pc, stats_) is exact wherever control leaves the loop —
  // including via an exception from an out-of-range memory access.
  struct BatchScope {
    explicit BatchScope(Cpu& c) : cpu(c), pc(c.state_.pc) {}
    BatchScope(const BatchScope&) = delete;
    BatchScope& operator=(const BatchScope&) = delete;
    ~BatchScope() {
      cpu.FlushAccum(a);
      cpu.state_.pc = pc;
    }
    Cpu& cpu;
    StepAccum a;
    std::uint32_t pc;
  };

  void FlushAccum(const StepAccum& a);

  // Loop-invariant table pointers hoisted out of the threaded loops. The
  // interpreter's byte-wise memory writes may alias any object under the
  // strict-aliasing rules, so without the hoist the compiler re-loads the
  // vectors' data pointers on every step — a dependent load in front of
  // the opcode dispatch.
  struct StepCtx {
    const isa::Instruction* code;  // program_.code().data()
    std::uint8_t* ptab;            // predict_.data()
    std::uint32_t psize;           // program_.size()
    std::uint8_t* mbase;           // memory_.data()
    std::size_t msize;             // memory_.size()
  };
  [[nodiscard]] StepCtx MakeCtx() {
    return {program_.code().data(), predict_.data(),
            static_cast<std::uint32_t>(program_.size()), memory_.data(),
            memory_.size()};
  }

  // ---- threaded-code dispatch engine (src/cpu/dispatch.cc) -------------
  //
  // Lowered form of one instruction: every field a handler reads, packed
  // so a slot covers the whole step without touching the Instruction.
  // `extra` is the per-op stall the handler charges (mul/div/fp extras,
  // NEON latency-1 for vector ops, the mispredict penalty for kB, the
  // lane byte width for kVldLane/kVstLane) resolved at lowering time.
  struct POp {
    std::int32_t imm = 0;
    std::int32_t post_inc = 0;
    std::uint32_t extra = 0;
    std::uint8_t rd = 0;
    std::uint8_t rn = 0;
    std::uint8_t rm = 0;
    std::uint8_t ra = 0;
    std::uint8_t cond = 0;   // isa::Cond
    std::uint8_t vt = 0;     // isa::VecType
    std::uint8_t op = 0;     // isa::Opcode (generic lane-op handler)
    std::uint8_t flags = 0;  // kPopStaticTaken | memory run << kPopRunShift
  };
  static constexpr std::uint8_t kPopStaticTaken = 1;
  static constexpr std::uint8_t kPopRunShift = 1;  // bits 1-2: MemRuns slot

  // One dispatch slot per pc: `h` is the handler id the fused stream
  // dispatches through (a superinstruction id when this pc heads a fused
  // pair), `hp` the always-unfused handler id (the skip loop and branches
  // into the middle of a pair use it), `a` the operands at this pc and
  // `b` the second member's operands when `h` is fused. `chunk` is set on
  // a latch slot only: its loop's ChunkPlan index + 1, 0 for none.
  struct TSlot {
    std::uint8_t h = 0;
    std::uint8_t hp = 0;
    std::uint8_t flags = 0;  // kSlot* observation-relevance bits below
    std::uint8_t chunk = 0;
    POp a;
    POp b;
  };
  // Slot flags. kSlotLatch and kSlotStore are immutable predecode facts
  // (latch candidate; opcode that sets Retired::mem_is_write — the covered
  // loop's glue-store test); the two observation bits are the *mutable*
  // relevance class (ObsClass) the skip loop dispatches on, rewritten
  // whenever the engine's cooldown/blacklist state changes
  // (SetObserveClass). Neither observation bit set means kInert.
  static constexpr std::uint8_t kSlotLatch = 1;
  static constexpr std::uint8_t kSlotObsExit = 2;      // ObsClass::kExit
  static constexpr std::uint8_t kSlotObsExecExit = 4;  // ObsClass::kLatchExec
  static constexpr std::uint8_t kSlotStore = 8;

  // The three batched-loop shapes share one threaded body template.
  enum class TKind { kFree, kSkip, kCovered };
  // kInterestExec: a kLatchExec latch was executed inline and taken — the
  // materialized retire record is already filled; the caller must NOT step.
  // kGlueStore: a fused nest reached a store in its glue; the store is NOT
  // executed — the caller retires it per-step and ends the coverage.
  enum class TExit {
    kHalt, kBudget, kInterest, kInterestExec, kRegion, kGlueStore
  };

  // Parameters of one threaded batch; unused fields ignored per TKind.
  struct TRun {
    std::uint64_t max_steps = 0;       // kFree/kSkip budget
    std::uint32_t cov_start = 0;       // kCovered region + latch logic
    std::uint32_t cov_latch = 0;
    std::uint32_t count_latch = 0;
    std::uint64_t max_iterations = 0;
    std::uint32_t inner_start = 0;     // kCovered fused-nest glue rule
    std::uint32_t inner_latch = 0;
    bool nest = false;
  };

  void BuildThreaded();  // lowering + superinstruction selection

  // `cov` receives the iteration and glue counts of a kCovered batch
  // (nullptr for the other kinds).
  template <TKind K>
  TExit ThreadedBody(BatchScope& b, const StepCtx& ctx, const TRun& p,
                     std::uint64_t& steps, std::uint64_t& skipped,
                     CoveredOutcome* cov, Retired* obs);

  // The batched loops need the threaded stream a reference Cpu never
  // builds; they refuse to run on one.
  void RequireThreaded() const;

  // Removes the scalar cost of a covered run from the stats (issue slots,
  // non-memory stalls, retires, branch counters).
  void RewindCoveredStats(const CpuStats& before, CoveredOutcome& d);

  // Simple 2-bit saturating-counter branch predictor, indexed by pc.
  bool PredictTaken(std::uint32_t pc);
  void TrainPredictor(std::uint32_t pc, bool taken);

  std::uint32_t MemAccessLatency(std::uint32_t addr, std::uint32_t bytes);

  // ---- way-predicted memory runs (threaded core only) ------------------
  //
  // Each static memory instruction owns one of kMemRuns batch-local runs:
  // its index among the program's memory instructions in pc order, mod
  // kMemRuns, lowered into POp::flags (kPopRunShift). A loop body with at
  // most kMemRuns memory instructions therefore keeps one open resident
  // L1 line per stream. A hit on the slot's open line is deferred: it
  // gets the number `++pend` and the run records it as `last`. A resident
  // hit on another line re-targets that slot only (its old way is stamped
  // first); anything that may walk, fill, evict or prefetch closes every
  // run first. Closing stamps each run's way with its last hit's number
  // and commits `pend` hits (Cache::StampDeferred / CommitDeferred), the
  // exact state of the same hits made one Access() at a time. Every
  // batch exit closes the runs, including exception unwind.
  static constexpr std::uint32_t kMemRuns = 4;
  static constexpr std::uint64_t kNoRunLine = ~std::uint64_t{0};
  struct MemRuns {
    std::uint64_t line[kMemRuns] = {kNoRunLine, kNoRunLine, kNoRunLine,
                                    kNoRunLine};
    std::uint64_t last[kMemRuns] = {};  // 0: no deferred hit on this run
    mem::Cache::Way* way[kMemRuns] = {};
    std::uint64_t pend = 0;  // deferred hits not yet credited to the cache
  };

  // Stamps and commits every run's deferred hits and drops their lines.
  void CloseMemRuns(MemRuns& m);

  // Run-miss slow path for an access by run `slot`: a resident
  // single-line access re-targets that run with the hit deferred (0
  // stall, exactly like the per-step core's hit-latency clamp); anything
  // else closes every run, takes the full hierarchy access and re-probes
  // so the slot's *next* access can hit inline.
  std::uint32_t MemRunSlow(std::uint32_t addr, std::uint32_t bytes,
                           std::uint64_t line, std::uint32_t slot,
                           MemRuns& m);

  // ---- loop chunks (threaded core only, src/cpu/chunk.cc) --------------
  //
  // A backward conditional latch whose body [head, latch) is straight-line
  // scalar code (loads, stores, integer ALU ops, nops and one
  // compare) gets a ChunkPlan at lowering time, its index + 1 in the latch
  // slot's TSlot::chunk. Every register the body touches is invariant
  // (never written), affine (written only by `addi`/`subi r, r, #k` and
  // post-increments: a fixed step per iteration) or a temporary (written
  // before it is read in every iteration), so iteration i's state at the
  // head is a closed form of the state at the head of iteration 0. At a
  // taken latch the free and covered loops call RunChunk, which runs the
  // next N <= kChunkLanes iterations op-major when run-time tests prove
  // that equal to N scalar iterations (docs/DISPATCH.md, "Loop chunks").
  static constexpr std::uint32_t kChunkLanes = 32;
  static constexpr std::uint32_t kChunkMaxMem = 8;  // memory ops per body
  static constexpr std::uint8_t kChunkRamp = 0xFF;  // ChunkOp::op pseudo-op

  // One lane loop: a body op on its temporaries' lanes, or (kChunkRamp)
  // the lanes of an invariant or affine register read as data,
  // regs[rd] + imm + lane * step.
  struct ChunkOp {
    std::uint8_t op = 0;  // isa::Opcode or kChunkRamp
    std::uint8_t rd = 0;
    std::uint8_t rn = 0;
    std::uint8_t rm = 0;
    std::uint8_t ra = 0;
    std::uint8_t mem = 0;   // loads/stores: index into ChunkPlan::mem
    std::int32_t imm = 0;   // ALU immediate; ramp: offset from regs[rd]
    std::int32_t step = 0;  // ramp: per-lane step
  };
  // One memory op's address stream: lane i accesses
  // regs[base] + disp + i * stride.
  struct ChunkMem {
    std::uint8_t base = 0;
    std::uint8_t bytes = 0;
    std::uint8_t run = 0;  // MemRuns slot (POp::flags)
    bool store = false;
    std::uint32_t disp = 0;   // imm + the base's in-iteration offset
    std::int32_t stride = 0;  // the base's step per iteration
  };
  // Compare operand: regs[reg] + off + i * step in iteration i (an
  // invariant has step 0; `imm` operands read no register).
  struct ChunkCmpOperand {
    std::uint8_t reg = 0;
    bool is_imm = false;
    std::uint32_t off = 0;
    std::int32_t step = 0;
    std::int32_t imm = 0;
  };
  struct ChunkPlan {
    std::uint32_t latch = 0;
    std::uint32_t len = 0;  // retires per iteration, latch included
    std::uint32_t loads = 0;
    std::uint32_t stores = 0;
    std::uint64_t stall = 0;    // summed per-op stall of one iteration
    std::uint32_t penalty = 0;  // latch mispredict penalty
    std::uint8_t cond = 0;      // latch isa::Cond
    ChunkCmpOperand lhs;
    ChunkCmpOperand rhs;
    // Number (1-based) of each run slot's last access in one iteration.
    std::uint8_t last[kMemRuns] = {};
    std::vector<ChunkMem> mem;   // body order
    std::vector<ChunkOp> ops;    // body order
    std::vector<std::uint8_t> temps;  // take lane N-1 on exit
    std::vector<std::pair<std::uint8_t, std::int32_t>> affine;  // reg, step
  };
  // Stat deltas of one chunk for the batch accumulator.
  struct ChunkDelta {
    std::uint64_t steps = 0;
    std::uint64_t mem_reads = 0;
    std::uint64_t mem_writes = 0;
    std::uint64_t other_stall = 0;
    std::uint64_t mispredicts = 0;
  };

  void BuildChunkPlans();  // lowering: one plan per qualifying latch
  [[nodiscard]] bool PlanChunk(std::uint32_t latch, ChunkPlan& plan) const;

  // Runs the next N iterations of plan `index`'s loop from its head, with
  // the registers in state_.regs: N is the largest count up to
  // kChunkLanes whose latches are all taken, whose accesses all stay in
  // their runs' open L1 lines and in memory, that fits `step_room`
  // retires and `iter_room` iterations, and it needs no store to overlap
  // another op's access from a different iteration. Returns N, 0 when N
  // < 2 (then nothing changed). On success state_.regs, state_.cmp_diff,
  // the latch's predictor counter and the runs hold the exact state of N
  // scalar iterations, and `d` their stat deltas.
  std::uint32_t RunChunk(std::uint32_t index, std::uint64_t step_room,
                         std::uint64_t iter_room, MemRuns& m, ChunkDelta& d);

  const prog::Program& program_;
  mem::Memory& memory_;
  mem::Hierarchy& hierarchy_;
  TimingConfig cfg_;
  CpuState state_;
  CpuStats stats_;
  bool reference_path_;
  std::uint64_t host_steps_ = 0;
  // L1 geometry hoisted at construction for the threaded memory fast path
  // (members so MemRunSlow sees them; the hot loop re-hoists into locals).
  mem::Cache* l1_ = nullptr;
  std::uint32_t l1_shift_ = 0;
  std::uint32_t l1_mask_ = 0;
  std::uint32_t l1_hit_ = 0;
  // Threaded-code stream: one slot per pc (empty on a reference Cpu).
  std::vector<TSlot> tslots_;
  std::uint32_t fused_pairs_ = 0;
  std::uint64_t mem_run_misses_ = 0;
  std::vector<ChunkPlan> chunk_plans_;
  std::uint64_t chunk_iterations_ = 0;
  // Fast-path predictor: one counter per PC, kUntrained until the first
  // branch retires there (preserving the static-fallback semantics of the
  // map-based predictor exactly).
  static constexpr std::uint8_t kUntrained = 0xFF;
  std::vector<std::uint8_t> predict_;
  std::unordered_map<std::uint32_t, std::uint8_t> predictor_;  // reference
};

}  // namespace dsa::cpu
