// Threaded-code dispatch engine (docs/DISPATCH.md).
//
// BuildThreaded() lowers the program once into one TSlot per pc: a handler
// id plus a packed operand record (POp) holding every field the handler
// reads, with per-op stall costs resolved at lowering time. The three
// batched run loops (free / DSA-idle skip / covered takeover) share one
// computed-goto body, ThreadedBody<TKind>, which dispatches indirectly
// through a per-instantiation label table — no central switch, one
// indirect jump per handler, and the architectural hot state (register
// file, cmp flags, pc, stat accumulators) lives in provably unaliased
// locals for the whole batch.
//
// A superinstruction pass fuses the hottest retire sequences from the
// tracer profiles (induction latch triples subi/addi+cmpi+b first, then
// compare+branch latch pairs, then loop-body pairs) into single
// handlers. Fusion only rewrites the *head* slot's fused handler id: the
// tail slots keep their plain handlers, so branches into the middle of a
// fused group, the per-instruction skip loop and a fused nest's glue
// (which dispatch through TSlot::hp) execute the group unfused.
//
// At a taken latch whose loop holds a chunk plan (chunk.cc), the free and
// covered loops may run the loop's next iterations op-major in one
// RunChunk call instead of dispatching them (DSA_CHUNK, after
// DSA_C_LATCH in the five latch handlers).
//
// Bit-identity contract: every simulated stat and architectural effect is
// identical to stepping the same instructions through Step() under
// sim::Run's per-step loops — same check order at the loop head
// (free/skip: halted, budget, out-of-range, interest; covered: halted,
// region peek, out-of-range), same budget semantics (a pair straddling
// budget exhaustion retires only its head), same predictor update
// sequence, same fused-nest glue count, same exception points with exact
// state published by the BatchScope on unwind. tests/test_dispatch.cc,
// tests/test_reference_path.cc and the differential oracle gate this
// against the reference twin for every workload family.

#include "cpu/cpu.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace dsa::cpu {

using isa::Cond;
using isa::Instruction;
using isa::Opcode;
using isa::VecType;

namespace {

float AsFloat(std::uint32_t v) {
  float f;
  std::memcpy(&f, &v, 4);
  return f;
}

std::uint32_t AsBits(float f) {
  std::uint32_t v;
  std::memcpy(&v, &f, 4);
  return v;
}

// CpuState::CondHolds against a batch-local cmp_diff.
inline bool CondDiff(std::uint8_t c, std::int64_t diff) {
  switch (static_cast<Cond>(c)) {
    case Cond::kAl: return true;
    case Cond::kEq: return diff == 0;
    case Cond::kNe: return diff != 0;
    case Cond::kLt: return diff < 0;
    case Cond::kGe: return diff >= 0;
    case Cond::kGt: return diff > 0;
    case Cond::kLe: return diff <= 0;
  }
  return false;
}

// One X-macro list drives the handler-id enum and every instantiation's
// label table, so the two can never fall out of order. Plain handlers
// first (one per opcode group), then the superinstructions.
#define DSA_HANDLERS(X)                                                   \
  X(Ldr) X(Ldrh) X(Ldrb) X(Str) X(Strh) X(Strb)                           \
  X(Mov) X(Movi) X(Add) X(Addi) X(Sub) X(Subi) X(Rsb)                     \
  X(Mul) X(Mla) X(Sdiv)                                                   \
  X(And) X(Andi) X(Orr) X(Eor) X(Bic) X(Lsl) X(Lsr) X(Asr)                \
  X(Min) X(Max)                                                           \
  X(Fadd) X(Fsub) X(Fmul) X(Fdiv)                                         \
  X(Cmp) X(Cmpi) X(B) X(Bl) X(Ret) X(Nop) X(Halt)                         \
  X(Vld1) X(Vst1) X(VldLane) X(VstLane) X(Vdup) X(Vshift) X(Vbsl)         \
  X(VmovTo) X(VmovFrom) X(VLane) X(Bad)                                   \
  X(FCmpB) X(FCmpiB)                                                      \
  X(FSubiCmpi) X(FAddiCmpi)                                               \
  X(FLdrLdr) X(FLdrbLdrb) X(FLdrbStrb) X(FLdrbAdd)                        \
  X(FMlaStr) X(FFaddStr) X(FAddStr) X(FFmulFadd)                          \
  X(FLsrAnd) X(FAndAdd) X(FEorAnd) X(FLslAdd) X(FAddSubi)                 \
  X(FSubiCmpiB) X(FAddiCmpiB)

enum HId : std::uint8_t {
#define DSA_H_ID(name) kH##name,
  DSA_HANDLERS(DSA_H_ID)
#undef DSA_H_ID
  kHCount
};

std::uint8_t PlainHandler(Opcode op) {
  switch (op) {
    case Opcode::kLdr: return kHLdr;
    case Opcode::kLdrh: return kHLdrh;
    case Opcode::kLdrb: return kHLdrb;
    case Opcode::kStr: return kHStr;
    case Opcode::kStrh: return kHStrh;
    case Opcode::kStrb: return kHStrb;
    case Opcode::kMov: return kHMov;
    case Opcode::kMovi: return kHMovi;
    case Opcode::kAdd: return kHAdd;
    case Opcode::kAddi: return kHAddi;
    case Opcode::kSub: return kHSub;
    case Opcode::kSubi: return kHSubi;
    case Opcode::kRsb: return kHRsb;
    case Opcode::kMul: return kHMul;
    case Opcode::kMla: return kHMla;
    case Opcode::kSdiv: return kHSdiv;
    case Opcode::kAnd: return kHAnd;
    case Opcode::kAndi: return kHAndi;
    case Opcode::kOrr: return kHOrr;
    case Opcode::kEor: return kHEor;
    case Opcode::kBic: return kHBic;
    case Opcode::kLsl: return kHLsl;
    case Opcode::kLsr: return kHLsr;
    case Opcode::kAsr: return kHAsr;
    case Opcode::kMin: return kHMin;
    case Opcode::kMax: return kHMax;
    case Opcode::kFadd: return kHFadd;
    case Opcode::kFsub: return kHFsub;
    case Opcode::kFmul: return kHFmul;
    case Opcode::kFdiv: return kHFdiv;
    case Opcode::kCmp: return kHCmp;
    case Opcode::kCmpi: return kHCmpi;
    case Opcode::kB: return kHB;
    case Opcode::kBl: return kHBl;
    case Opcode::kRet: return kHRet;
    case Opcode::kNop: return kHNop;
    case Opcode::kHalt: return kHHalt;
    case Opcode::kVld1: return kHVld1;
    case Opcode::kVst1: return kHVst1;
    case Opcode::kVldLane: return kHVldLane;
    case Opcode::kVstLane: return kHVstLane;
    case Opcode::kVdup: return kHVdup;
    case Opcode::kVshl:
    case Opcode::kVshr: return kHVshift;
    case Opcode::kVbsl: return kHVbsl;
    case Opcode::kVmovToScalar: return kHVmovTo;
    case Opcode::kVmovFromScalar: return kHVmovFrom;
    default: return isa::IsVector(op) ? kHVLane : kHBad;
  }
}

struct PairRule {
  Opcode head;
  Opcode second;
  std::uint8_t id;
};

// Selection policy (docs/DISPATCH.md): latch patterns are fused first —
// the compare feeding a loop latch is the hottest retire pair in every
// tracer profile, and it must not be claimed as the *second* member of an
// ALU-pair below. Widest first: the full induction latch triple
// (subi/addi + cmpi + b, executed once per iteration of every counted
// loop), then the compare+branch pairs. Heads and middles are always
// unconditional fall-through opcodes, so a fused group never starts at a
// branch and never straddles a covered region's latch.
struct TripleRule {
  Opcode head;
  Opcode second;
  Opcode third;
  std::uint8_t id;
};

constexpr TripleRule kLatchTriples[] = {
    {Opcode::kSubi, Opcode::kCmpi, Opcode::kB, kHFSubiCmpiB},
    {Opcode::kAddi, Opcode::kCmpi, Opcode::kB, kHFAddiCmpiB},
};

constexpr PairRule kLatchPairs[] = {
    {Opcode::kCmp, Opcode::kB, kHFCmpB},
    {Opcode::kCmpi, Opcode::kB, kHFCmpiB},
};

// Remaining pairs, applied greedily left-to-right over the slots both
// passes have not consumed yet: induction/compare chains, paired streaming
// loads, load-store byte copies, multiply/fp-accumulate into store, and
// the shift/mask ALU chains of the bit-twiddling workloads.
constexpr PairRule kBodyPairs[] = {
    {Opcode::kSubi, Opcode::kCmpi, kHFSubiCmpi},
    {Opcode::kAddi, Opcode::kCmpi, kHFAddiCmpi},
    {Opcode::kLdr, Opcode::kLdr, kHFLdrLdr},
    {Opcode::kLdrb, Opcode::kLdrb, kHFLdrbLdrb},
    {Opcode::kLdrb, Opcode::kStrb, kHFLdrbStrb},
    {Opcode::kLdrb, Opcode::kAdd, kHFLdrbAdd},
    {Opcode::kMla, Opcode::kStr, kHFMlaStr},
    {Opcode::kFadd, Opcode::kStr, kHFFaddStr},
    {Opcode::kAdd, Opcode::kStr, kHFAddStr},
    {Opcode::kFmul, Opcode::kFadd, kHFFmulFadd},
    {Opcode::kLsr, Opcode::kAnd, kHFLsrAnd},
    {Opcode::kAnd, Opcode::kAdd, kHFAndAdd},
    {Opcode::kEor, Opcode::kAnd, kHFEorAnd},
    {Opcode::kLsl, Opcode::kAdd, kHFLslAdd},
    {Opcode::kAdd, Opcode::kSubi, kHFAddSubi},
};

}  // namespace

void Cpu::BuildThreaded() {
  const std::vector<Instruction>& code = program_.code();
  const std::size_t n = code.size();
  tslots_.assign(n, TSlot{});
  fused_pairs_ = 0;

  std::uint32_t mem_index = 0;  // memory instructions so far, pc order
  for (std::uint32_t pc = 0; pc < n; ++pc) {
    const Instruction& ins = code[pc];
    TSlot& s = tslots_[pc];
    s.h = s.hp = PlainHandler(ins.op);
    // Latch candidates default to the observe-exit class: a Cpu whose
    // observation classes are never filled (direct RunToInteresting
    // callers, tests) batches exactly like the pre-relevance skip loop.
    // DsaEngine::FillObserveClasses rewrites the two obs bits at run time.
    if (latch_candidate(pc)) s.flags |= kSlotLatch | kSlotObsExit;
    if (isa::IsStore(ins.op)) s.flags |= kSlotStore;

    POp& p = s.a;
    p.imm = ins.imm;
    p.post_inc = ins.post_inc;
    p.rd = static_cast<std::uint8_t>(ins.rd);
    p.rn = static_cast<std::uint8_t>(ins.rn);
    p.rm = static_cast<std::uint8_t>(ins.rm);
    p.ra = static_cast<std::uint8_t>(ins.ra);
    p.cond = static_cast<std::uint8_t>(ins.cond);
    p.vt = static_cast<std::uint8_t>(ins.vt);
    p.op = static_cast<std::uint8_t>(ins.op);
    if (static_taken(pc)) p.flags |= kPopStaticTaken;
    // Way-predicted run slot (cpu.h MemRuns): consecutive memory
    // instructions get distinct runs, so any loop body with at most
    // kMemRuns of them keeps one run per stream. A fused pair's second
    // member carries its own slot into `b` with the rest of its operands.
    if (isa::IsMemAccess(ins.op)) {
      p.flags |= static_cast<std::uint8_t>((mem_index++ % kMemRuns)
                                           << kPopRunShift);
    }
    // Per-op stall resolved once here so handlers just add `extra`.
    switch (ins.op) {
      case Opcode::kMul:
      case Opcode::kMla: p.extra = cfg_.int_mul_extra; break;
      case Opcode::kSdiv: p.extra = cfg_.int_div_extra; break;
      case Opcode::kFadd:
      case Opcode::kFsub:
      case Opcode::kFmul: p.extra = cfg_.fp_extra; break;
      case Opcode::kFdiv: p.extra = cfg_.fp_div_extra; break;
      case Opcode::kB: p.extra = cfg_.branch_mispredict_penalty; break;
      case Opcode::kVldLane:
      case Opcode::kVstLane:
        // Access width, not a stall (lane moves charge no extra).
        p.extra = static_cast<std::uint32_t>(isa::LaneBytes(ins.vt));
        break;
      default:
        if (isa::IsVector(ins.op)) p.extra = cfg_.neon.LatencyOf(ins.op) - 1;
        break;
    }
  }

  // Loop chunk plans read the lowered operands (run slots, stalls).
  BuildChunkPlans();

  if (n < 2) return;
  std::vector<std::uint8_t> consumed(n, 0);
  const auto fuse_pass = [&](const PairRule* rules, std::size_t count) {
    for (std::size_t pc = 0; pc + 1 < n; ++pc) {
      if (consumed[pc] || consumed[pc + 1]) continue;
      const Opcode head = code[pc].op;
      const Opcode second = code[pc + 1].op;
      for (std::size_t i = 0; i < count; ++i) {
        if (rules[i].head == head && rules[i].second == second) {
          tslots_[pc].h = rules[i].id;
          tslots_[pc].b = tslots_[pc + 1].a;
          consumed[pc] = consumed[pc + 1] = 1;
          ++fused_pairs_;
          break;
        }
      }
    }
  };
  // Triples first (widest match wins), then pairs. The fused slot keeps
  // only the second member's operands in `b`; a triple's branch operands
  // are read from the third member's own slot (`tab[pc + 2].a`).
  for (std::size_t pc = 0; pc + 2 < n; ++pc) {
    if (consumed[pc] || consumed[pc + 1] || consumed[pc + 2]) continue;
    for (const TripleRule& rule : kLatchTriples) {
      if (code[pc].op == rule.head && code[pc + 1].op == rule.second &&
          code[pc + 2].op == rule.third) {
        tslots_[pc].h = rule.id;
        tslots_[pc].b = tslots_[pc + 1].a;
        consumed[pc] = consumed[pc + 1] = consumed[pc + 2] = 1;
        ++fused_pairs_;
        break;
      }
    }
  }
  fuse_pass(kLatchPairs, std::size(kLatchPairs));
  fuse_pass(kBodyPairs, std::size(kBodyPairs));
}

// ---- handler building blocks ---------------------------------------------
//
// Each DSA_C_* macro is the architectural + accounting effect of one
// opcode, reading its fields from a POp (`s->a` for plain handlers, also
// `s->b` for the second member of a fused pair). They mirror Step()'s
// cases line for line, against the batch-local `lr` / `cmp_diff` / `acc`.

#define DSA_MEMCHECK(addr_, n_)                                           \
  if (static_cast<std::size_t>(addr_) + (n_) > msize) {                   \
    memory_.FailRange((addr_), (n_));                                     \
  }

// Memory latency through the access's own way-predicted run (MemRuns,
// cpu.h; the slot was lowered into the POp's flags): while the run's
// stream stays in its resident L1 line, each hit is deferred — numbered
// and recorded as the run's last — and stalls 0 cycles, exactly the
// per-step core's hit-latency clamp. The cache is charged when the runs
// close (MemRunSlow / batch exit). Anything else (line change, straddling
// access, non-resident line) takes the slow path.
#define DSA_RUN(P) (((P).flags >> kPopRunShift) & (kMemRuns - 1))
#define DSA_MEMLAT(P, a_, n_)                                             \
  (__builtin_expect(                                                      \
       (static_cast<std::uint64_t>(a_) >> lshift) ==                      \
               mruns.line[DSA_RUN(P)] &&                                  \
           ((a_) & lmask) + (n_) <= lmask + 1u,                           \
       1)                                                                 \
       ? (mruns.last[DSA_RUN(P)] = ++mruns.pend, 0u)                      \
       : MemRunSlow((a_), (n_), static_cast<std::uint64_t>(a_) >> lshift, \
                    DSA_RUN(P), mruns))

#define DSA_C_LDR(P)                                                      \
  do {                                                                    \
    const POp& p_ = (P);                                                  \
    const std::uint32_t addr_ = lr[p_.rn] + p_.imm;                       \
    DSA_MEMCHECK(addr_, 4)                                                \
    std::uint32_t v_;                                                     \
    std::memcpy(&v_, mbase + addr_, 4);                                   \
    lr[p_.rd] = v_;                                                       \
    lr[p_.rn] += p_.post_inc;                                             \
    acc.mem_stall += DSA_MEMLAT(p_, addr_, 4);                            \
    ++acc.mem_reads;                                                      \
    ++acc.steps;                                                          \
  } while (0)

#define DSA_C_LDRH(P)                                                     \
  do {                                                                    \
    const POp& p_ = (P);                                                  \
    const std::uint32_t addr_ = lr[p_.rn] + p_.imm;                       \
    DSA_MEMCHECK(addr_, 2)                                                \
    std::uint16_t v_;                                                     \
    std::memcpy(&v_, mbase + addr_, 2);                                   \
    lr[p_.rd] = v_;                                                       \
    lr[p_.rn] += p_.post_inc;                                             \
    acc.mem_stall += DSA_MEMLAT(p_, addr_, 2);                            \
    ++acc.mem_reads;                                                      \
    ++acc.steps;                                                          \
  } while (0)

#define DSA_C_LDRB(P)                                                     \
  do {                                                                    \
    const POp& p_ = (P);                                                  \
    const std::uint32_t addr_ = lr[p_.rn] + p_.imm;                       \
    DSA_MEMCHECK(addr_, 1)                                                \
    lr[p_.rd] = mbase[addr_];                                             \
    lr[p_.rn] += p_.post_inc;                                             \
    acc.mem_stall += DSA_MEMLAT(p_, addr_, 1);                            \
    ++acc.mem_reads;                                                      \
    ++acc.steps;                                                          \
  } while (0)

#define DSA_C_STR(P)                                                      \
  do {                                                                    \
    const POp& p_ = (P);                                                  \
    const std::uint32_t addr_ = lr[p_.rn] + p_.imm;                       \
    DSA_MEMCHECK(addr_, 4)                                                \
    const std::uint32_t v_ = lr[p_.rd];                                   \
    std::memcpy(mbase + addr_, &v_, 4);                                   \
    lr[p_.rn] += p_.post_inc;                                             \
    acc.mem_stall += DSA_MEMLAT(p_, addr_, 4);                            \
    ++acc.mem_writes;                                                     \
    ++acc.steps;                                                          \
  } while (0)

#define DSA_C_STRH(P)                                                     \
  do {                                                                    \
    const POp& p_ = (P);                                                  \
    const std::uint32_t addr_ = lr[p_.rn] + p_.imm;                       \
    DSA_MEMCHECK(addr_, 2)                                                \
    const std::uint16_t v_ = static_cast<std::uint16_t>(lr[p_.rd]);       \
    std::memcpy(mbase + addr_, &v_, 2);                                   \
    lr[p_.rn] += p_.post_inc;                                             \
    acc.mem_stall += DSA_MEMLAT(p_, addr_, 2);                            \
    ++acc.mem_writes;                                                     \
    ++acc.steps;                                                          \
  } while (0)

#define DSA_C_STRB(P)                                                     \
  do {                                                                    \
    const POp& p_ = (P);                                                  \
    const std::uint32_t addr_ = lr[p_.rn] + p_.imm;                       \
    DSA_MEMCHECK(addr_, 1)                                                \
    mbase[addr_] = static_cast<std::uint8_t>(lr[p_.rd]);                  \
    lr[p_.rn] += p_.post_inc;                                             \
    acc.mem_stall += DSA_MEMLAT(p_, addr_, 1);                            \
    ++acc.mem_writes;                                                     \
    ++acc.steps;                                                          \
  } while (0)

// Plain ALU write to rd; `expr_` reads its operands through `p_`.
#define DSA_C_BIN(P, expr_)                                               \
  do {                                                                    \
    const POp& p_ = (P);                                                  \
    lr[p_.rd] = (expr_);                                                  \
    ++acc.steps;                                                          \
  } while (0)

// ALU write that also charges the lowered per-op stall (mul/fp).
#define DSA_C_BINX(P, expr_)                                              \
  do {                                                                    \
    const POp& p_ = (P);                                                  \
    lr[p_.rd] = (expr_);                                                  \
    acc.other_stall += p_.extra;                                          \
    ++acc.steps;                                                          \
  } while (0)

#define DSA_C_MLA(P)                                                      \
  do {                                                                    \
    const POp& p_ = (P);                                                  \
    lr[p_.rd] = lr[p_.rn] * lr[p_.rm] + lr[p_.ra];                        \
    acc.other_stall += p_.extra;                                          \
    ++acc.steps;                                                          \
  } while (0)

#define DSA_C_CMP(P)                                                      \
  do {                                                                    \
    const POp& p_ = (P);                                                  \
    cmp_diff = static_cast<std::int64_t>(                                 \
                   static_cast<std::int32_t>(lr[p_.rn])) -                \
               static_cast<std::int32_t>(lr[p_.rm]);                      \
    ++acc.steps;                                                          \
  } while (0)

#define DSA_C_CMPI(P)                                                     \
  do {                                                                    \
    const POp& p_ = (P);                                                  \
    cmp_diff = static_cast<std::int64_t>(                                 \
                   static_cast<std::int32_t>(lr[p_.rn])) -                \
               p_.imm;                                                    \
    ++acc.steps;                                                          \
  } while (0)

// Conditional branch at `bpc_`: predictor read + train with the exact
// first-training quirk of TrainPredictor, mispredict penalty from the
// lowered `extra`. `nextv_` must be initialized to the fall-through pc.
#define DSA_C_B(P, bpc_, nextv_)                                          \
  do {                                                                    \
    const POp& p_ = (P);                                                  \
    const bool taken_ = CondDiff(p_.cond, cmp_diff);                      \
    std::uint8_t ctr_ = ptab[(bpc_)];                                     \
    const bool predicted_ = ctr_ == kUntrained                            \
                                ? (p_.flags & kPopStaticTaken) != 0       \
                                : ctr_ >= 2;                              \
    if (taken_) (nextv_) = static_cast<std::uint32_t>(p_.imm);            \
    if (predicted_ != taken_) {                                           \
      acc.other_stall += p_.extra;                                        \
      ++acc.mispredicts;                                                  \
    }                                                                     \
    if (ctr_ == kUntrained) ctr_ = taken_ ? 2 : 1;                        \
    if (taken_) {                                                         \
      if (ctr_ < 3) ++ctr_;                                               \
    } else if (ctr_ > 0) {                                                \
      --ctr_;                                                             \
    }                                                                     \
    ptab[(bpc_)] = ctr_;                                                  \
    ++acc.branches;                                                       \
    ++acc.steps;                                                          \
  } while (0)

// Covered-mode latch bookkeeping after a branch at `bpc_` resolved to
// `nextv_` (the iteration counting of the reference covered loop in
// sim/system.cc, verbatim).
#define DSA_C_LATCH(bpc_, nextv_)                                         \
  if constexpr (K == TKind::kCovered) {                                   \
    if ((bpc_) == count_latch) {                                          \
      ++iters;                                                            \
      if ((bpc_) == cov_latch && (nextv_) == (bpc_) + 1) {                \
        DSA_EXIT_AT(nextv_); /* latch fell through: loop is done */       \
      }                                                                   \
      if (max_iter != 0 && iters >= max_iter) {                           \
        DSA_EXIT_AT(nextv_); /* speculated range exhausted */             \
      }                                                                   \
    }                                                                     \
  }

// Loop chunk at a latch at `bpc_` that resolved to `nextv_` (cpu.h,
// chunk.cc): a taken latch with a plan may run its loop's next iterations
// op-major in RunChunk. Free runs bound them by the step budget; covered
// runs chunk only the takeover's count loop, short of max_iterations, so
// every chunked latch is one the scalar loop would pass without exiting.
// The registers travel through state_.regs, so `lr` never escapes the
// batch, and the chunk's stat deltas land in the accumulator here.
#define DSA_CHUNK(bpc_, nextv_)                                           \
  if constexpr (K != TKind::kSkip) {                                      \
    const std::uint8_t plan_ = tab[(bpc_)].chunk;                         \
    if (plan_ != 0 && (nextv_) != (bpc_) + 1 &&                           \
        (K == TKind::kFree ||                                             \
         ((bpc_) == count_latch && count_latch == inner_latch &&          \
          (nextv_) == inner_start))) {                                    \
      const std::uint64_t step_room_ =                                    \
          K == TKind::kFree ? max_steps - bsteps : ~std::uint64_t{0};     \
      const std::uint64_t iter_room_ =                                    \
          K == TKind::kFree || max_iter == 0 ? kChunkLanes                \
                                             : max_iter - iters - 1;      \
      ChunkDelta cd_;                                                     \
      std::memcpy(state_.regs.data(), lr, sizeof(lr));                    \
      if (const std::uint32_t n_ = RunChunk(plan_ - 1u, step_room_,       \
                                            iter_room_, mruns, cd_)) {    \
        std::memcpy(lr, state_.regs.data(), sizeof(lr));                  \
        cmp_diff = state_.cmp_diff;                                       \
        acc.steps += cd_.steps;                                           \
        acc.mem_reads += cd_.mem_reads;                                   \
        acc.mem_writes += cd_.mem_writes;                                 \
        acc.other_stall += cd_.other_stall;                               \
        acc.mispredicts += cd_.mispredicts;                               \
        acc.branches += n_;                                               \
        if constexpr (K == TKind::kFree) bsteps += cd_.steps;             \
        if constexpr (K == TKind::kCovered) iters += n_;                  \
      }                                                                   \
    }                                                                     \
  }

// Leave the batch with control at `np_`, halting on fall-off-the-end
// exactly like Step()'s tail does.
#define DSA_EXIT_AT(np_)                                                  \
  do {                                                                    \
    pc = (np_);                                                           \
    if (pc >= psize) state_.halted = true;                                \
    goto done;                                                            \
  } while (0)

// Retire boundary: advance to `np_` and re-enter the dispatch head. The
// out-of-range halt is checked before the next instruction consumes
// budget (matching the per-step run loop, where Step() halts on
// fall-off and the `while (!halted)` head exits before `++steps`).
#define DSA_NEXT(np_)                                                     \
  do {                                                                    \
    if constexpr (K == TKind::kSkip) ++lskipped;                          \
    pc = (np_);                                                           \
    if (pc >= psize) {                                                    \
      state_.halted = true;                                               \
      goto done;                                                          \
    }                                                                     \
    goto next_dispatch;                                                   \
  } while (0)

// Advance to the next member of a fused group, so `pc` always names the
// member about to execute: a fault in a later member publishes that
// member's pc. Then the budget check between members (free mode only:
// the skip loop never dispatches fused, covered steps are budget-exempt):
// when the budget dies mid-group the leading members have retired and
// control rests on the next member's own (plain) slot. Both are
// identical to stepping the members one at a time.
#define DSA_FUSE_MID                                                      \
  ++pc;                                                                   \
  if constexpr (K == TKind::kFree) {                                      \
    if (++bsteps > max_steps) {                                           \
      ex = TExit::kBudget;                                                \
      goto done;                                                          \
    }                                                                     \
  }

template <Cpu::TKind K>
Cpu::TExit Cpu::ThreadedBody(BatchScope& b, const StepCtx& ctx, const TRun& p,
                             std::uint64_t& steps, std::uint64_t& skipped,
                             CoveredOutcome* cov, Retired* obs) {
  const TSlot* const tab = tslots_.data();
  std::uint8_t* const ptab = ctx.ptab;
  std::uint8_t* const mbase = ctx.mbase;
  const std::size_t msize = ctx.msize;
  const std::uint32_t psize = ctx.psize;
  // L1 line geometry for the way-predicted memory run, hoisted into
  // unaliased locals like every other member the hot loop reads.
  const std::uint32_t lshift = l1_shift_;
  const std::uint32_t lmask = l1_mask_;

  // Mode parameters copied out of `p`: it lives behind a reference the
  // interpreter's byte stores could alias, locals are load-once.
  [[maybe_unused]] const std::uint64_t max_steps = p.max_steps;
  [[maybe_unused]] const std::uint32_t cov_start = p.cov_start;
  [[maybe_unused]] const std::uint32_t cov_latch = p.cov_latch;
  [[maybe_unused]] const std::uint32_t count_latch = p.count_latch;
  [[maybe_unused]] const std::uint64_t max_iter = p.max_iterations;
  [[maybe_unused]] const std::uint32_t inner_start = p.inner_start;
  [[maybe_unused]] const std::uint32_t inner_latch = p.inner_latch;
  [[maybe_unused]] const bool nest = p.nest;

  // Batch-local architectural state: written back on every exit path,
  // including exceptions (FailRange / kHBad), so the BatchScope publishes
  // exact state wherever control leaves — same guarantee as Step(),
  // which mutates state_ in place.
  std::uint32_t lr[isa::kNumScalarRegs];
  std::memcpy(lr, state_.regs.data(), sizeof(lr));
  std::int64_t cmp_diff = state_.cmp_diff;
  std::uint32_t pc = b.pc;
  StepAccum acc = b.a;
  std::uint64_t bsteps = steps;
  std::uint64_t lskipped = skipped;
  std::uint64_t iters = 0;  // kCovered: count-latch retires
  std::uint64_t glue = 0;   // kCovered nests: retires outside the inner loop
  [[maybe_unused]] int depth = 0;  // kBl/kRet nesting inside a covered region
  const TSlot* s = nullptr;
  TExit ex = TExit::kHalt;
  MemRuns mruns;  // way-predicted L1 runs, confined to this batch

  const auto writeback = [&]() {
    std::memcpy(state_.regs.data(), lr, sizeof(lr));
    state_.cmp_diff = cmp_diff;
    b.pc = pc;
    b.a = acc;
    steps = bsteps;
    skipped = lskipped;
    if constexpr (K == TKind::kCovered) {
      cov->iterations = iters;
      cov->glue_instrs = glue;
    }
  };

  try {
    // Per-instantiation label table, generated from the same X-macro as
    // the handler-id enum.
    static const void* const htab[] = {
#define DSA_H_ADDR(name) &&L##name,
        DSA_HANDLERS(DSA_H_ADDR)
#undef DSA_H_ADDR
    };
    static_assert(sizeof(htab) / sizeof(htab[0]) == kHCount,
                  "label table out of sync with handler ids");

    // Entry replicates the per-step loops' head order exactly: free/skip
    // consume budget before the out-of-range check; covered peeks the
    // region first and is budget-exempt.
    if (state_.halted) goto done;
    if constexpr (K != TKind::kCovered) {
      if (++bsteps > max_steps) {
        ex = TExit::kBudget;
        goto done;
      }
    } else {
      if (pc < cov_start || pc > cov_latch) {
        ex = TExit::kRegion;
        goto done;
      }
    }
    if (pc >= psize) {
      state_.halted = true;
      goto done;
    }
    if constexpr (K == TKind::kCovered) goto next_dispatch;
    s = tab + pc;
    if constexpr (K == TKind::kSkip) {
      if ((s->flags & kSlotObsExit) != 0) {
        ex = TExit::kInterest;
        goto done;
      }
      goto *htab[s->hp];
    } else {
      goto *htab[s->h];
    }

  next_dispatch:
    if constexpr (K != TKind::kCovered) {
      if (++bsteps > max_steps) {
        ex = TExit::kBudget;
        goto done;
      }
    }
    s = tab + pc;
    if constexpr (K == TKind::kSkip) {
      // Interest filter on the observation-relevance class: kExit pcs end
      // the batch with the instruction NOT executed — the wrapper retires
      // it observed on the per-step core, with the budget for it already
      // consumed above. (Unfilled classes default every latch candidate
      // to kExit.) kLatchExec latches carry kSlotObsExecExit instead and
      // fall through to their own handler, which exits with a materialized
      // record only when the branch is taken. Inert pcs just execute.
      if ((s->flags & kSlotObsExit) != 0) {
        ex = TExit::kInterest;
        goto done;
      }
      goto *htab[s->hp];
    } else if constexpr (K == TKind::kCovered) {
      // Inside the inner loop (for a plain loop: the coverage region),
      // which lies within the coverage: nothing to check, dispatch fused.
      // A group headed here never leaves the range — its last member is
      // at most the inner latch, because a branch is never a group's
      // head or middle.
      if (pc >= inner_start && pc <= inner_latch) goto *htab[s->h];
      // Region peek: calls inside the body keep the coverage alive
      // through `depth`.
      if (depth == 0 && (pc < cov_start || pc > cov_latch)) {
        ex = TExit::kRegion;
        goto done;
      }
      if (nest) {
        // Fused-nest glue, one retire per head pass: dispatched unfused
        // (hp) so a group straddling into the inner loop cannot hide its
        // inner members inside one glue retire. A store here breaks the
        // Fig. 17 "nothing but glue" assumption: stop before it executes;
        // the wrapper retires it and ends the coverage.
        ++glue;
        if ((s->flags & kSlotStore) != 0) {
          ex = TExit::kGlueStore;
          goto done;
        }
        goto *htab[s->hp];
      }
      goto *htab[s->h];
    } else {
      goto *htab[s->h];
    }

    // ---- scalar memory -------------------------------------------------
  LLdr:
    DSA_C_LDR(s->a);
    DSA_NEXT(pc + 1);
  LLdrh:
    DSA_C_LDRH(s->a);
    DSA_NEXT(pc + 1);
  LLdrb:
    DSA_C_LDRB(s->a);
    DSA_NEXT(pc + 1);
  LStr:
    DSA_C_STR(s->a);
    DSA_NEXT(pc + 1);
  LStrh:
    DSA_C_STRH(s->a);
    DSA_NEXT(pc + 1);
  LStrb:
    DSA_C_STRB(s->a);
    DSA_NEXT(pc + 1);

    // ---- moves / integer ALU -------------------------------------------
  LMov:
    DSA_C_BIN(s->a, lr[p_.rm]);
    DSA_NEXT(pc + 1);
  LMovi:
    DSA_C_BIN(s->a, static_cast<std::uint32_t>(p_.imm));
    DSA_NEXT(pc + 1);
  LAdd:
    DSA_C_BIN(s->a, lr[p_.rn] + lr[p_.rm]);
    DSA_NEXT(pc + 1);
  LAddi:
    DSA_C_BIN(s->a, lr[p_.rn] + static_cast<std::uint32_t>(p_.imm));
    DSA_NEXT(pc + 1);
  LSub:
    DSA_C_BIN(s->a, lr[p_.rn] - lr[p_.rm]);
    DSA_NEXT(pc + 1);
  LSubi:
    DSA_C_BIN(s->a, lr[p_.rn] - static_cast<std::uint32_t>(p_.imm));
    DSA_NEXT(pc + 1);
  LRsb:
    DSA_C_BIN(s->a, static_cast<std::uint32_t>(p_.imm) - lr[p_.rn]);
    DSA_NEXT(pc + 1);
  LMul:
    DSA_C_BINX(s->a, lr[p_.rn] * lr[p_.rm]);
    DSA_NEXT(pc + 1);
  LMla:
    DSA_C_MLA(s->a);
    DSA_NEXT(pc + 1);
  LSdiv: {
    const POp& A = s->a;
    const std::int32_t div_ = static_cast<std::int32_t>(lr[A.rm]);
    lr[A.rd] = div_ == 0
                   ? 0
                   : static_cast<std::uint32_t>(
                         static_cast<std::int32_t>(lr[A.rn]) / div_);
    acc.other_stall += A.extra;
    ++acc.steps;
    DSA_NEXT(pc + 1);
  }
  LAnd:
    DSA_C_BIN(s->a, lr[p_.rn] & lr[p_.rm]);
    DSA_NEXT(pc + 1);
  LAndi:
    DSA_C_BIN(s->a, lr[p_.rn] & static_cast<std::uint32_t>(p_.imm));
    DSA_NEXT(pc + 1);
  LOrr:
    DSA_C_BIN(s->a, lr[p_.rn] | lr[p_.rm]);
    DSA_NEXT(pc + 1);
  LEor:
    DSA_C_BIN(s->a, lr[p_.rn] ^ lr[p_.rm]);
    DSA_NEXT(pc + 1);
  LBic:
    DSA_C_BIN(s->a, lr[p_.rn] & ~lr[p_.rm]);
    DSA_NEXT(pc + 1);
  LLsl:
    DSA_C_BIN(s->a, lr[p_.rn] << (lr[p_.rm] & 31));
    DSA_NEXT(pc + 1);
  LLsr:
    DSA_C_BIN(s->a, lr[p_.rn] >> (lr[p_.rm] & 31));
    DSA_NEXT(pc + 1);
  LAsr:
    DSA_C_BIN(s->a, static_cast<std::uint32_t>(
                        static_cast<std::int32_t>(lr[p_.rn]) >>
                        (lr[p_.rm] & 31)));
    DSA_NEXT(pc + 1);
  LMin:
    DSA_C_BIN(s->a, static_cast<std::uint32_t>(
                        std::min(static_cast<std::int32_t>(lr[p_.rn]),
                                 static_cast<std::int32_t>(lr[p_.rm]))));
    DSA_NEXT(pc + 1);
  LMax:
    DSA_C_BIN(s->a, static_cast<std::uint32_t>(
                        std::max(static_cast<std::int32_t>(lr[p_.rn]),
                                 static_cast<std::int32_t>(lr[p_.rm]))));
    DSA_NEXT(pc + 1);

    // ---- float ---------------------------------------------------------
  LFadd:
    DSA_C_BINX(s->a, AsBits(AsFloat(lr[p_.rn]) + AsFloat(lr[p_.rm])));
    DSA_NEXT(pc + 1);
  LFsub:
    DSA_C_BINX(s->a, AsBits(AsFloat(lr[p_.rn]) - AsFloat(lr[p_.rm])));
    DSA_NEXT(pc + 1);
  LFmul:
    DSA_C_BINX(s->a, AsBits(AsFloat(lr[p_.rn]) * AsFloat(lr[p_.rm])));
    DSA_NEXT(pc + 1);
  LFdiv:
    DSA_C_BINX(s->a, AsBits(AsFloat(lr[p_.rn]) / AsFloat(lr[p_.rm])));
    DSA_NEXT(pc + 1);

    // ---- compare / control ---------------------------------------------
  LCmp:
    DSA_C_CMP(s->a);
    DSA_NEXT(pc + 1);
  LCmpi:
    DSA_C_CMPI(s->a);
    DSA_NEXT(pc + 1);
  LB: {
    std::uint32_t next_ = pc + 1;
    DSA_C_B(s->a, pc, next_);
    DSA_C_LATCH(pc, next_)
    DSA_CHUNK(pc, next_)
    if constexpr (K == TKind::kSkip) {
      // kLatchExec: the engine only reacts to this latch when it is
      // *taken* (not-taken retires are provably inert — HandleLatch
      // returns before any stage counter). Execute it inline either way;
      // on taken, materialize the exact record Step() would produce
      // (kB: no mem fields, branch_taken, resolved next_pc) and exit
      // without counting it as skipped — the caller hands it to Observe.
      // next_ != pc + 1 is a valid taken proxy: kSlotObsExecExit is only
      // ever set on backward branches (imm <= pc).
      if ((s->flags & kSlotObsExecExit) != 0 && next_ != pc + 1) {
        obs->pc = pc;
        obs->instr = ctx.code + pc;
        obs->branch_taken = true;
        obs->next_pc = next_;
        pc = next_;
        ex = TExit::kInterestExec;
        goto done;
      }
    }
    DSA_NEXT(next_);
  }
  LBl: {
    lr[isa::kLr] = pc + 1;
    ++acc.branches;
    ++acc.steps;
    const std::uint32_t next_ = static_cast<std::uint32_t>(s->a.imm);
    if constexpr (K == TKind::kCovered) ++depth;
    DSA_NEXT(next_);
  }
  LRet: {
    const std::uint32_t next_ = lr[isa::kLr];
    ++acc.branches;
    ++acc.steps;
    if constexpr (K == TKind::kCovered) --depth;
    DSA_NEXT(next_);
  }
  LNop:
    ++acc.steps;
    DSA_NEXT(pc + 1);
  LHalt:
    // next_pc = pc, halted: the skip loop still counts the retire as
    // skipped (it retired unobserved; the caller credits it).
    state_.halted = true;
    ++acc.steps;
    if constexpr (K == TKind::kSkip) ++lskipped;
    goto done;

    // ---- vector --------------------------------------------------------
  LVld1: {
    const POp& A = s->a;
    const std::uint32_t addr_ = lr[A.rn];
    DSA_MEMCHECK(addr_, 16)
    std::memcpy(state_.vregs.q(A.rd).bytes.data(), mbase + addr_, 16);
    lr[A.rn] += A.post_inc;
    acc.mem_stall += DSA_MEMLAT(A, addr_, 16);
    acc.other_stall += A.extra;
    ++acc.mem_reads;
    ++acc.steps;
    ++acc.vec;
    DSA_NEXT(pc + 1);
  }
  LVst1: {
    const POp& A = s->a;
    const std::uint32_t addr_ = lr[A.rn];
    DSA_MEMCHECK(addr_, 16)
    std::memcpy(mbase + addr_, state_.vregs.q(A.rd).bytes.data(), 16);
    lr[A.rn] += A.post_inc;
    acc.mem_stall += DSA_MEMLAT(A, addr_, 16);
    acc.other_stall += A.extra;
    ++acc.mem_writes;
    ++acc.steps;
    ++acc.vec;
    DSA_NEXT(pc + 1);
  }
  LVldLane: {
    const POp& A = s->a;
    const std::uint32_t addr_ = lr[A.rn];
    const std::uint32_t bytes_ = A.extra;  // LaneBytes(vt), lowered
    DSA_MEMCHECK(addr_, bytes_)
    std::uint32_t v_;
    if (bytes_ == 1) {
      v_ = mbase[addr_];
    } else if (bytes_ == 2) {
      std::uint16_t h_;
      std::memcpy(&h_, mbase + addr_, 2);
      v_ = h_;
    } else {
      std::memcpy(&v_, mbase + addr_, 4);
    }
    state_.vregs.q(A.rd).SetLane(static_cast<VecType>(A.vt), A.imm, v_);
    lr[A.rn] += A.post_inc;
    acc.mem_stall += DSA_MEMLAT(A, addr_, bytes_);
    ++acc.mem_reads;
    ++acc.steps;
    ++acc.vec;
    DSA_NEXT(pc + 1);
  }
  LVstLane: {
    const POp& A = s->a;
    const std::uint32_t addr_ = lr[A.rn];
    const std::uint32_t bytes_ = A.extra;
    const std::uint32_t v_ =
        state_.vregs.q(A.rd).Lane(static_cast<VecType>(A.vt), A.imm);
    DSA_MEMCHECK(addr_, bytes_)
    if (bytes_ == 1) {
      mbase[addr_] = static_cast<std::uint8_t>(v_);
    } else if (bytes_ == 2) {
      const std::uint16_t h_ = static_cast<std::uint16_t>(v_);
      std::memcpy(mbase + addr_, &h_, 2);
    } else {
      std::memcpy(mbase + addr_, &v_, 4);
    }
    lr[A.rn] += A.post_inc;
    acc.mem_stall += DSA_MEMLAT(A, addr_, bytes_);
    ++acc.mem_writes;
    ++acc.steps;
    ++acc.vec;
    DSA_NEXT(pc + 1);
  }
  LVdup: {
    const POp& A = s->a;
    state_.vregs.q(A.rd) =
        neon::Broadcast(static_cast<VecType>(A.vt), lr[A.rn]);
    ++acc.steps;
    ++acc.vec;
    DSA_NEXT(pc + 1);
  }
  LVshift: {
    const POp& A = s->a;
    state_.vregs.q(A.rd) = neon::ExecuteShift(
        static_cast<Opcode>(A.op), static_cast<VecType>(A.vt),
        state_.vregs.q(A.rn), A.imm);
    ++acc.steps;
    ++acc.vec;
    DSA_NEXT(pc + 1);
  }
  LVbsl: {
    const POp& A = s->a;
    state_.vregs.q(A.rd) =
        neon::ExecuteBsl(state_.vregs.q(A.rd), state_.vregs.q(A.rn),
                         state_.vregs.q(A.rm));
    ++acc.steps;
    ++acc.vec;
    DSA_NEXT(pc + 1);
  }
  LVmovTo: {
    const POp& A = s->a;
    lr[A.rd] = state_.vregs.q(A.rn).Lane(static_cast<VecType>(A.vt), A.imm);
    ++acc.steps;
    ++acc.vec;
    DSA_NEXT(pc + 1);
  }
  LVmovFrom: {
    const POp& A = s->a;
    state_.vregs.q(A.rd).SetLane(static_cast<VecType>(A.vt), A.imm,
                                 lr[A.rn]);
    ++acc.steps;
    ++acc.vec;
    DSA_NEXT(pc + 1);
  }
  LVLane: {
    const POp& A = s->a;
    state_.vregs.q(A.rd) = neon::ExecuteLaneOp(
        static_cast<Opcode>(A.op), static_cast<VecType>(A.vt),
        state_.vregs.q(A.rn), state_.vregs.q(A.rm), state_.vregs.q(A.ra));
    acc.other_stall += A.extra;
    ++acc.steps;
    ++acc.vec;
    DSA_NEXT(pc + 1);
  }
  LBad:
    // Same exception point as Step()'s default case; the catch below
    // publishes exact pre-instruction state.
    throw std::logic_error("unhandled opcode");

    // ---- superinstructions ---------------------------------------------
  LFCmpB: {
    DSA_C_CMP(s->a);
    DSA_FUSE_MID
    std::uint32_t next_ = pc + 1;
    DSA_C_B(s->b, pc, next_);
    DSA_C_LATCH(pc, next_)
    DSA_CHUNK(pc, next_)
    DSA_NEXT(next_);
  }
  LFCmpiB: {
    DSA_C_CMPI(s->a);
    DSA_FUSE_MID
    std::uint32_t next_ = pc + 1;
    DSA_C_B(s->b, pc, next_);
    DSA_C_LATCH(pc, next_)
    DSA_CHUNK(pc, next_)
    DSA_NEXT(next_);
  }
  LFSubiCmpi:
    DSA_C_BIN(s->a, lr[p_.rn] - static_cast<std::uint32_t>(p_.imm));
    DSA_FUSE_MID
    DSA_C_CMPI(s->b);
    DSA_NEXT(pc + 1);
  LFAddiCmpi:
    DSA_C_BIN(s->a, lr[p_.rn] + static_cast<std::uint32_t>(p_.imm));
    DSA_FUSE_MID
    DSA_C_CMPI(s->b);
    DSA_NEXT(pc + 1);
  LFLdrLdr:
    DSA_C_LDR(s->a);
    DSA_FUSE_MID
    DSA_C_LDR(s->b);
    DSA_NEXT(pc + 1);
  LFLdrbLdrb:
    DSA_C_LDRB(s->a);
    DSA_FUSE_MID
    DSA_C_LDRB(s->b);
    DSA_NEXT(pc + 1);
  LFLdrbStrb:
    DSA_C_LDRB(s->a);
    DSA_FUSE_MID
    DSA_C_STRB(s->b);
    DSA_NEXT(pc + 1);
  LFLdrbAdd:
    DSA_C_LDRB(s->a);
    DSA_FUSE_MID
    DSA_C_BIN(s->b, lr[p_.rn] + lr[p_.rm]);
    DSA_NEXT(pc + 1);
  LFMlaStr:
    DSA_C_MLA(s->a);
    DSA_FUSE_MID
    DSA_C_STR(s->b);
    DSA_NEXT(pc + 1);
  LFFaddStr:
    DSA_C_BINX(s->a, AsBits(AsFloat(lr[p_.rn]) + AsFloat(lr[p_.rm])));
    DSA_FUSE_MID
    DSA_C_STR(s->b);
    DSA_NEXT(pc + 1);
  LFAddStr:
    DSA_C_BIN(s->a, lr[p_.rn] + lr[p_.rm]);
    DSA_FUSE_MID
    DSA_C_STR(s->b);
    DSA_NEXT(pc + 1);
  LFFmulFadd:
    DSA_C_BINX(s->a, AsBits(AsFloat(lr[p_.rn]) * AsFloat(lr[p_.rm])));
    DSA_FUSE_MID
    DSA_C_BINX(s->b, AsBits(AsFloat(lr[p_.rn]) + AsFloat(lr[p_.rm])));
    DSA_NEXT(pc + 1);
  LFLsrAnd:
    DSA_C_BIN(s->a, lr[p_.rn] >> (lr[p_.rm] & 31));
    DSA_FUSE_MID
    DSA_C_BIN(s->b, lr[p_.rn] & lr[p_.rm]);
    DSA_NEXT(pc + 1);
  LFAndAdd:
    DSA_C_BIN(s->a, lr[p_.rn] & lr[p_.rm]);
    DSA_FUSE_MID
    DSA_C_BIN(s->b, lr[p_.rn] + lr[p_.rm]);
    DSA_NEXT(pc + 1);
  LFEorAnd:
    DSA_C_BIN(s->a, lr[p_.rn] ^ lr[p_.rm]);
    DSA_FUSE_MID
    DSA_C_BIN(s->b, lr[p_.rn] & lr[p_.rm]);
    DSA_NEXT(pc + 1);
  LFLslAdd:
    DSA_C_BIN(s->a, lr[p_.rn] << (lr[p_.rm] & 31));
    DSA_FUSE_MID
    DSA_C_BIN(s->b, lr[p_.rn] + lr[p_.rm]);
    DSA_NEXT(pc + 1);
  LFAddSubi:
    DSA_C_BIN(s->a, lr[p_.rn] + lr[p_.rm]);
    DSA_FUSE_MID
    DSA_C_BIN(s->b, lr[p_.rn] - static_cast<std::uint32_t>(p_.imm));
    DSA_NEXT(pc + 1);

    // Induction latch triples: the branch member's operands live in its
    // own slot (`tab[pc].a`), so TSlot stays two POps wide.
  LFSubiCmpiB: {
    DSA_C_BIN(s->a, lr[p_.rn] - static_cast<std::uint32_t>(p_.imm));
    DSA_FUSE_MID
    DSA_C_CMPI(s->b);
    DSA_FUSE_MID
    std::uint32_t next_ = pc + 1;
    DSA_C_B(tab[pc].a, pc, next_);
    DSA_C_LATCH(pc, next_)
    DSA_CHUNK(pc, next_)
    DSA_NEXT(next_);
  }
  LFAddiCmpiB: {
    DSA_C_BIN(s->a, lr[p_.rn] + static_cast<std::uint32_t>(p_.imm));
    DSA_FUSE_MID
    DSA_C_CMPI(s->b);
    DSA_FUSE_MID
    std::uint32_t next_ = pc + 1;
    DSA_C_B(tab[pc].a, pc, next_);
    DSA_C_LATCH(pc, next_)
    DSA_CHUNK(pc, next_)
    DSA_NEXT(next_);
  }

  done:;
  } catch (...) {
    writeback();
    CloseMemRuns(mruns);
    throw;
  }
  writeback();
  // Every exit closes the memory runs: their deferred hits must reach the
  // cache before any access outside the batch (the observed step, NEON
  // cost walks) can touch L1. The close stays out of the writeback
  // lambda: inside it, GCC spills the hot loop's pc and step budget.
  CloseMemRuns(mruns);
  return ex;
}

#undef DSA_MEMCHECK
#undef DSA_RUN
#undef DSA_MEMLAT
#undef DSA_C_LDR
#undef DSA_C_LDRH
#undef DSA_C_LDRB
#undef DSA_C_STR
#undef DSA_C_STRH
#undef DSA_C_STRB
#undef DSA_C_BIN
#undef DSA_C_BINX
#undef DSA_C_MLA
#undef DSA_C_CMP
#undef DSA_C_CMPI
#undef DSA_C_B
#undef DSA_C_LATCH
#undef DSA_CHUNK
#undef DSA_EXIT_AT
#undef DSA_NEXT
#undef DSA_FUSE_MID
#undef DSA_HANDLERS

// ---- run-miss slow path of the way-predicted memory fast path ------------

void Cpu::CloseMemRuns(MemRuns& m) {
  for (std::uint32_t k = 0; k < kMemRuns; ++k) {
    if (m.last[k] != 0) l1_->StampDeferred(m.way[k], m.last[k]);
    m.last[k] = 0;
    m.line[k] = kNoRunLine;
  }
  l1_->CommitDeferred(m.pend);
  m.pend = 0;
}

std::uint32_t Cpu::MemRunSlow(std::uint32_t addr, std::uint32_t bytes,
                              std::uint64_t line, std::uint32_t slot,
                              MemRuns& m) {
  ++mem_run_misses_;
  const bool single_line = (addr & l1_mask_) + bytes <= l1_mask_ + 1;
  if (single_line) {
    if (mem::Cache::Way* w = l1_->ResidentWay(line)) {
      // Resident single-line access: an L1 hit, which stalls 0 cycles
      // after the hit-latency clamp and touches only its own way, so the
      // other runs stay open. Re-target this slot's run with the hit
      // deferred, after giving its old way the stamp of its last hit.
      if (m.last[slot] != 0) l1_->StampDeferred(m.way[slot], m.last[slot]);
      m.line[slot] = line;
      m.way[slot] = w;
      m.last[slot] = ++m.pend;
      return 0;
    }
  }
  // A miss, a straddling access or a residency-map collision may walk,
  // fill, evict or prefetch — and a fill can evict any run's way. Land
  // every deferred hit first, in arrival order relative to this access.
  CloseMemRuns(m);
  const std::uint32_t lat = hierarchy_.AccessRange(addr, bytes);
  if (single_line) {
    // The access just filled (or re-ranked) the line; re-probe so the
    // slot's *next* access to it takes the inline run path.
    if (mem::Cache::Way* w = l1_->ResidentWay(line)) {
      m.line[slot] = line;
      m.way[slot] = w;
    }
  }
  return lat > l1_hit_ ? lat - l1_hit_ : 0;
}

// ---- batched-loop entry points --------------------------------------------

void Cpu::RequireThreaded() const {
  if (reference_path_) {
    throw std::logic_error(
        "batched interpreter loops run on the threaded core; a reference "
        "Cpu is driven through Step()");
  }
}

void Cpu::RunFree(std::uint64_t max_steps, std::uint64_t& steps) {
  RequireThreaded();
  const StepCtx ctx = MakeCtx();
  BatchScope b(*this);
  TRun p;
  p.max_steps = max_steps;
  std::uint64_t skipped = 0;
  ThreadedBody<TKind::kFree>(b, ctx, p, steps, skipped, nullptr, nullptr);
}

Retired Cpu::RunToInteresting(std::uint64_t max_steps, std::uint64_t& steps,
                              std::uint64_t& skipped) {
  RequireThreaded();
  TExit e;
  Retired r{};
  {
    const StepCtx ctx = MakeCtx();
    BatchScope b(*this);
    TRun p;
    p.max_steps = max_steps;
    e = ThreadedBody<TKind::kSkip>(b, ctx, p, steps, skipped, nullptr, &r);
  }  // scope closed: pc and stat deltas published before the observed step
  // kInterestExec: a kLatchExec latch already executed inline and filled
  // `r` with the exact record Step() produces for a taken kB (its
  // accounting went through the batch accumulator above).
  if (e == TExit::kInterestExec) return r;
  if (e != TExit::kInterest) return Retired{};
  // The interesting instruction retires on the per-step core with
  // observation on, so the engine sees the exact record the reference
  // twin produces. Its budget was already consumed above.
  return Step();
}

Cpu::CoveredOutcome Cpu::RunCovered(std::uint32_t coverage_start,
                                    std::uint32_t coverage_latch,
                                    std::uint32_t inner_start,
                                    std::uint32_t inner_latch,
                                    std::uint32_t count_latch,
                                    std::uint64_t max_iterations) {
  RequireThreaded();
  const CpuStats before = stats_;
  CoveredOutcome d;
  TExit e;
  {
    const StepCtx ctx = MakeCtx();
    BatchScope b(*this);
    TRun p;
    p.cov_start = coverage_start;
    p.cov_latch = coverage_latch;
    p.count_latch = count_latch;
    p.max_iterations = max_iterations;
    p.inner_start = inner_start;
    p.inner_latch = inner_latch;
    p.nest = coverage_start != inner_start || coverage_latch != inner_latch;
    std::uint64_t steps = 0;
    std::uint64_t skipped = 0;
    e = ThreadedBody<TKind::kCovered>(b, ctx, p, steps, skipped, &d, nullptr);
  }  // publish pc + stat deltas before the glue store and the rewind
  if (e == TExit::kGlueStore) {
    // The glue store retires on the per-step core (already counted as
    // glue) and ends the fused coverage; the engine demotes the fusion
    // record. Its cost is rewound below with the rest of the region.
    Step();
    d.fused_glue_store = true;
  }
  RewindCoveredStats(before, d);
  return d;
}

}  // namespace dsa::cpu
