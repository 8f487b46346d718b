// Loop chunks of the threaded core (docs/DISPATCH.md, "Loop chunks").
//
// BuildChunkPlans() runs once at lowering time and gives every backward
// conditional latch whose body is straight-line scalar code a ChunkPlan
// (cpu.h). At a taken latch of such a loop the free and covered loops of
// ThreadedBody call RunChunk(), which runs the next N <= kChunkLanes
// iterations op-major: every body op becomes one loop over N lanes, lane i
// holding iteration i's values, in place of N passes through the body's
// dispatches. A chunk runs only when run-time tests prove it equal to N
// scalar iterations; the exit iteration always runs scalar.
//
// Why op-major order is exact: every register is invariant, affine (its
// value in iteration i is a closed form of the head state) or a temporary
// written before it is read in the same iteration, so no register value
// flows between iterations except in closed form. Memory can carry values
// between iterations only through a store that overlaps another op's
// access from a different iteration, which the overlap test refuses; the
// one overlap allowed is the same-iteration pattern (same first address,
// same stride at least as wide as both accesses), where op-major order
// keeps each lane's own program order.

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "cpu/cpu.h"

namespace dsa::cpu {

using isa::Cond;
using isa::Instruction;
using isa::Opcode;

namespace {

// Register traffic of one body op: the registers it reads, the register
// it writes with a new value (`dst`) and the affine bump it applies
// (`bump` += `by`: a post-increment or `addi`/`subi r, r, #k`).
struct OpRegs {
  int reads[3] = {-1, -1, -1};
  int dst = -1;
  int bump = -1;
  std::uint32_t by = 0;
};

// False when the op cannot run in a chunk: a branch, call, sdiv, float or
// vector op, or a load that post-increments its own destination. (A lane
// loop of float ops may be compiled with its operands in another order
// than the scalar handler, and x86 picks between two NaN payloads by
// operand order.)
bool RegsOf(const Instruction& ins, OpRegs& u) {
  switch (ins.op) {
    case Opcode::kLdr:
    case Opcode::kLdrh:
    case Opcode::kLdrb:
      if (ins.post_inc != 0 && ins.rd == ins.rn) return false;
      u.reads[0] = ins.rn;
      u.dst = ins.rd;
      break;
    case Opcode::kStr:
    case Opcode::kStrh:
    case Opcode::kStrb:
      u.reads[0] = ins.rd;
      u.reads[1] = ins.rn;
      break;
    case Opcode::kMovi:
      u.dst = ins.rd;
      return true;
    case Opcode::kMov:
      u.reads[0] = ins.rm;
      u.dst = ins.rd;
      return true;
    case Opcode::kAddi:
    case Opcode::kSubi:
      u.reads[0] = ins.rn;
      if (ins.rd == ins.rn) {
        u.bump = ins.rd;
        u.by = ins.op == Opcode::kAddi ? static_cast<std::uint32_t>(ins.imm)
                                       : 0u - static_cast<std::uint32_t>(ins.imm);
      } else {
        u.dst = ins.rd;
      }
      return true;
    case Opcode::kAndi:
    case Opcode::kRsb:
      u.reads[0] = ins.rn;
      u.dst = ins.rd;
      return true;
    case Opcode::kMla:
      u.reads[2] = ins.ra;
      [[fallthrough]];
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kAnd:
    case Opcode::kOrr:
    case Opcode::kEor:
    case Opcode::kBic:
    case Opcode::kLsl:
    case Opcode::kLsr:
    case Opcode::kAsr:
    case Opcode::kMin:
    case Opcode::kMax:
      u.reads[0] = ins.rn;
      u.reads[1] = ins.rm;
      u.dst = ins.rd;
      return true;
    case Opcode::kCmp:
      u.reads[1] = ins.rm;
      [[fallthrough]];
    case Opcode::kCmpi:
      u.reads[0] = ins.rn;
      return true;
    case Opcode::kNop:
      return true;
    default:
      return false;
  }
  // Loads and stores: the post-increment is the base's affine bump.
  if (ins.post_inc != 0) {
    u.bump = ins.rn;
    u.by = static_cast<std::uint32_t>(ins.post_inc);
  }
  return true;
}

std::uint8_t AccessBytes(Opcode op) {
  switch (op) {
    case Opcode::kLdr:
    case Opcode::kStr: return 4;
    case Opcode::kLdrh:
    case Opcode::kStrh: return 2;
    default: return 1;
  }
}

// Leading lanes i < n over which the int32 value x0 + i * s does not
// wrap: there it equals the int32 cast of the register's uint32 value,
// which is what a compare reads.
std::uint64_t NoWrapLanes(std::int64_t x0, std::int64_t s, std::uint64_t n) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int32_t>::min();
  const std::int64_t end = x0 + static_cast<std::int64_t>(n - 1) * s;
  if (end >= kMin && end <= kMax) return n;
  return static_cast<std::uint64_t>(s > 0 ? (kMax - x0) / s : (x0 - kMin) / -s) +
         1;
}

// Leading lanes i < n on which condition `c` holds for the compare
// difference d0 + i * k. The difference is linear in i, so a threshold
// condition that holds on the first and the last lane holds on all.
std::uint64_t CondLanes(Cond c, std::int64_t d0, std::int64_t k,
                        std::uint64_t n) {
  const std::int64_t dn = d0 + static_cast<std::int64_t>(n - 1) * k;
  std::int64_t lanes = 0;
  switch (c) {
    case Cond::kAl: return n;
    case Cond::kLt:
      if (d0 >= 0) return 0;
      if (dn < 0) return n;
      lanes = (-d0 - 1) / k + 1;
      break;
    case Cond::kLe:
      if (d0 > 0) return 0;
      if (dn <= 0) return n;
      lanes = -d0 / k + 1;
      break;
    case Cond::kGt:
      if (d0 <= 0) return 0;
      if (dn > 0) return n;
      lanes = (d0 - 1) / -k + 1;
      break;
    case Cond::kGe:
      if (d0 < 0) return 0;
      if (dn >= 0) return n;
      lanes = d0 / -k + 1;
      break;
    case Cond::kEq:
      if (d0 != 0) return 0;
      return k == 0 ? n : 1;
    case Cond::kNe:
      if (d0 == 0) return 0;
      // No sign change up to lane n - 1: the difference never hits 0.
      // Otherwise it hits 0 at lane -d0 / k if that is a whole number.
      if ((d0 < 0) == (dn < 0) && dn != 0) return n;
      if (-d0 % k != 0) return n;
      lanes = -d0 / k;
      break;
  }
  return static_cast<std::uint64_t>(lanes);
}

}  // namespace

void Cpu::BuildChunkPlans() {
  chunk_plans_.clear();
  for (std::uint32_t pc = 0; pc < program_.size(); ++pc) {
    if (!latch_candidate(pc) || program_.code()[pc].cond == Cond::kAl) {
      continue;
    }
    // TSlot::chunk holds the index + 1 in one byte.
    if (chunk_plans_.size() == 0xFF) break;
    ChunkPlan plan;
    if (!PlanChunk(pc, plan)) continue;
    chunk_plans_.push_back(std::move(plan));
    tslots_[pc].chunk = static_cast<std::uint8_t>(chunk_plans_.size());
  }
}

bool Cpu::PlanChunk(std::uint32_t latch, ChunkPlan& plan) const {
  const std::vector<Instruction>& code = program_.code();
  const std::uint32_t head = static_cast<std::uint32_t>(code[latch].imm);
  if (head >= latch) return false;
  constexpr int kRegs = isa::kNumScalarRegs;

  // Pass 1: classify every register. `dst`: written with a new value (a
  // temporary); `bumped` only: affine, `step` per iteration; neither:
  // invariant. A read before any write sees the previous iteration's
  // value, which only an affine or invariant register may carry.
  bool written[kRegs] = {};
  bool early[kRegs] = {};
  bool dst[kRegs] = {};
  bool bumped[kRegs] = {};
  std::uint32_t step[kRegs] = {};
  int compares = 0;
  for (std::uint32_t pc = head; pc < latch; ++pc) {
    const Instruction& ins = code[pc];
    OpRegs u;
    if (!RegsOf(ins, u)) return false;
    if (ins.op == Opcode::kCmp || ins.op == Opcode::kCmpi) ++compares;
    for (const int r : u.reads) {
      if (r >= 0 && !written[r]) early[r] = true;
    }
    if (u.dst >= 0) dst[u.dst] = written[u.dst] = true;
    if (u.bump >= 0) {
      bumped[u.bump] = written[u.bump] = true;
      step[u.bump] += u.by;
    }
  }
  if (compares != 1) return false;
  for (int r = 0; r < kRegs; ++r) {
    if (dst[r] && early[r]) return false;  // a value carried across iterations
  }
  const auto stride = [&](int r) {
    return dst[r] || !bumped[r] ? 0 : static_cast<std::int32_t>(step[r]);
  };

  // Pass 2: emit the lane ops in body order. `off` is each affine
  // register's bump so far this iteration. An invariant or affine register
  // read as data gets ramp lanes at its current offset (once per offset).
  std::uint32_t off[kRegs] = {};
  bool ramped[kRegs] = {};
  std::uint32_t ramp_off[kRegs] = {};
  const auto lanes_of = [&](int r) {
    if (dst[r] || (ramped[r] && ramp_off[r] == off[r])) return;
    ChunkOp o;
    o.op = kChunkRamp;
    o.rd = static_cast<std::uint8_t>(r);
    o.imm = static_cast<std::int32_t>(off[r]);
    o.step = stride(r);
    plan.ops.push_back(o);
    ramped[r] = true;
    ramp_off[r] = off[r];
  };
  const auto operand = [&](int r) {
    ChunkCmpOperand o;
    o.reg = static_cast<std::uint8_t>(r);
    o.off = off[r];
    o.step = stride(r);
    return o;
  };
  const std::uint32_t line_bytes = l1_mask_ + 1;
  for (std::uint32_t pc = head; pc < latch; ++pc) {
    const Instruction& ins = code[pc];
    const POp& lowered = tslots_[pc].a;
    plan.stall += lowered.extra;  // mul/mla stall; 0 for the rest
    ChunkOp o;
    o.op = static_cast<std::uint8_t>(ins.op);
    o.rd = static_cast<std::uint8_t>(ins.rd);
    o.rn = static_cast<std::uint8_t>(ins.rn);
    o.rm = static_cast<std::uint8_t>(ins.rm);
    o.ra = static_cast<std::uint8_t>(ins.ra);
    o.imm = ins.imm;
    switch (ins.op) {
      case Opcode::kLdr:
      case Opcode::kLdrh:
      case Opcode::kLdrb:
      case Opcode::kStr:
      case Opcode::kStrh:
      case Opcode::kStrb: {
        if (dst[ins.rn] || plan.mem.size() == kChunkMaxMem) return false;
        ChunkMem c;
        c.base = static_cast<std::uint8_t>(ins.rn);
        c.bytes = AccessBytes(ins.op);
        c.run = static_cast<std::uint8_t>((lowered.flags >> kPopRunShift) &
                                          (kMemRuns - 1));
        c.store = isa::IsStore(ins.op);
        c.disp = static_cast<std::uint32_t>(ins.imm) + off[ins.rn];
        c.stride = stride(ins.rn);
        // A stream that leaves its line after one lane never chunks.
        const std::int64_t span = std::abs(static_cast<std::int64_t>(c.stride));
        if (span > line_bytes - c.bytes) return false;
        if (c.store) {
          lanes_of(ins.rd);
          ++plan.stores;
        } else {
          ++plan.loads;
        }
        o.mem = static_cast<std::uint8_t>(plan.mem.size());
        plan.mem.push_back(c);
        plan.last[c.run] = static_cast<std::uint8_t>(plan.mem.size());
        plan.ops.push_back(o);
        off[ins.rn] += static_cast<std::uint32_t>(ins.post_inc);
        break;
      }
      case Opcode::kCmp:
      case Opcode::kCmpi:
        if (dst[ins.rn]) return false;
        plan.lhs = operand(ins.rn);
        if (ins.op == Opcode::kCmpi) {
          plan.rhs.is_imm = true;
          plan.rhs.imm = ins.imm;
        } else {
          if (dst[ins.rm]) return false;
          plan.rhs = operand(ins.rm);
        }
        break;
      case Opcode::kNop:
        break;
      default: {  // ALU
        OpRegs u;
        RegsOf(ins, u);
        if (u.bump >= 0 && !dst[u.bump]) {
          off[u.bump] += u.by;  // affine bump: closed form, no lanes
          break;
        }
        for (const int r : u.reads) {
          if (r >= 0) lanes_of(r);
        }
        plan.ops.push_back(o);
        break;
      }
    }
  }

  plan.latch = latch;
  plan.len = latch - head + 1;
  plan.penalty = tslots_[latch].a.extra;
  plan.cond = tslots_[latch].a.cond;
  for (int r = 0; r < kRegs; ++r) {
    if (dst[r]) {
      plan.temps.push_back(static_cast<std::uint8_t>(r));
    } else if (bumped[r]) {
      plan.affine.emplace_back(static_cast<std::uint8_t>(r), stride(r));
    }
  }
  return true;
}

std::uint32_t Cpu::RunChunk(std::uint32_t index, std::uint64_t step_room,
                            std::uint64_t iter_room, MemRuns& m,
                            ChunkDelta& d) {
  const ChunkPlan& p = chunk_plans_[index];
  std::uint32_t* const regs = state_.regs.data();
  std::uint64_t n = std::min<std::uint64_t>(kChunkLanes, iter_room);
  if (step_room < n * p.len) n = step_room / p.len;
  if (n < 2) return 0;

  // 1. Every latch in the chunk is taken: the compare difference is
  // affine in the lane while neither operand's int32 value wraps.
  const auto value = [&](const ChunkCmpOperand& o) -> std::int64_t {
    return static_cast<std::int32_t>(regs[o.reg] + o.off);
  };
  const std::int64_t lhs0 = value(p.lhs);
  n = NoWrapLanes(lhs0, p.lhs.step, n);
  std::int64_t rhs0 = p.rhs.imm;
  std::int64_t slope = p.lhs.step;
  if (!p.rhs.is_imm) {
    rhs0 = value(p.rhs);
    n = NoWrapLanes(rhs0, p.rhs.step, n);
    slope -= p.rhs.step;
  }
  const std::int64_t diff0 = lhs0 - rhs0;
  n = CondLanes(static_cast<Cond>(p.cond), diff0, slope, n);
  if (n < 2) return 0;

  // 2. Every access stays inside the L1 line its run already has open
  // (so each is a resident hit) and inside memory.
  const std::size_t count = p.mem.size();
  std::uint32_t addr[kChunkMaxMem];
  for (std::size_t k = 0; k < count; ++k) {
    const ChunkMem& c = p.mem[k];
    const std::uint32_t a = regs[c.base] + c.disp;
    if ((a >> l1_shift_) != m.line[c.run]) return 0;
    // Byte offsets in the line: the first lane's, and the highest any
    // lane may start at.
    const std::int64_t first = a & l1_mask_;
    const std::int64_t top = std::int64_t{l1_mask_} + 1 - c.bytes;
    if (first > top || std::uint64_t{a | l1_mask_} >= memory_.size()) {
      return 0;
    }
    const std::int64_t end = first + static_cast<std::int64_t>(n - 1) * c.stride;
    if (end > top) {
      n = static_cast<std::uint32_t>(top - first) /
              static_cast<std::uint32_t>(c.stride) +
          1;
    } else if (end < 0) {
      n = static_cast<std::uint32_t>(first) /
              (0u - static_cast<std::uint32_t>(c.stride)) +
          1;
    }
    addr[k] = a;
  }
  if (n < 2) return 0;

  // 3. No store overlaps another op's accesses from a different
  // iteration; the same-iteration pattern is the one overlap allowed.
  const auto span = [&](std::size_t k, std::int64_t& lo, std::int64_t& hi) {
    const std::int64_t reach = static_cast<std::int64_t>(n - 1) * p.mem[k].stride;
    lo = addr[k] + std::min<std::int64_t>(0, reach);
    hi = addr[k] + std::max<std::int64_t>(0, reach) + p.mem[k].bytes;
  };
  for (std::size_t s = 0; s < count; ++s) {
    if (!p.mem[s].store) continue;
    std::int64_t slo, shi;
    span(s, slo, shi);
    for (std::size_t k = 0; k < count; ++k) {
      if (k == s) continue;
      std::int64_t klo, khi;
      span(k, klo, khi);
      if (shi <= klo || khi <= slo) continue;
      const ChunkMem& a = p.mem[s];
      const ChunkMem& b = p.mem[k];
      if (addr[s] == addr[k] && a.stride == b.stride &&
          std::abs(std::int64_t{a.stride}) >= std::max(a.bytes, b.bytes)) {
        continue;
      }
      return 0;
    }
  }

  // Run the body op-major. Only lanes [0, n) of registers the body writes
  // or ramps are ever touched.
  const std::uint32_t lanes = static_cast<std::uint32_t>(n);
  std::uint8_t* const mbase = memory_.data();
  std::uint32_t lane[isa::kNumScalarRegs][kChunkLanes];
  for (const ChunkOp& o : p.ops) {
    std::uint32_t* const dv = lane[o.rd];
    const std::uint32_t* const x = lane[o.rn];
    const std::uint32_t* const y = lane[o.rm];
    const std::uint32_t imm = static_cast<std::uint32_t>(o.imm);
    if (o.op == kChunkRamp) {
      const std::uint32_t base = regs[o.rd] + imm;
      const std::uint32_t st = static_cast<std::uint32_t>(o.step);
      for (std::uint32_t i = 0; i < lanes; ++i) dv[i] = base + i * st;
      continue;
    }
    // Loads and stores: lane i accesses a + i * st.
    std::uint32_t a = 0;
    std::uint32_t st = 0;
    if (count != 0) {
      a = addr[o.mem];
      st = static_cast<std::uint32_t>(p.mem[o.mem].stride);
    }
#define DSA_LANES(expr_)                                                  \
  for (std::uint32_t i = 0; i < lanes; ++i) dv[i] = (expr_);              \
  break
    switch (static_cast<Opcode>(o.op)) {
      case Opcode::kLdr:
        if (st == 4) {
          std::memcpy(dv, mbase + a, 4 * lanes);
          break;
        }
        for (std::uint32_t i = 0; i < lanes; ++i) {
          std::memcpy(&dv[i], mbase + (a + i * st), 4);
        }
        break;
      case Opcode::kLdrh:
        for (std::uint32_t i = 0; i < lanes; ++i) {
          std::uint16_t h;
          std::memcpy(&h, mbase + (a + i * st), 2);
          dv[i] = h;
        }
        break;
      case Opcode::kLdrb: DSA_LANES(mbase[a + i * st]);
      case Opcode::kStr:
        if (st == 4) {
          std::memcpy(mbase + a, dv, 4 * lanes);
          break;
        }
        for (std::uint32_t i = 0; i < lanes; ++i) {
          std::memcpy(mbase + (a + i * st), &dv[i], 4);
        }
        break;
      case Opcode::kStrh:
        for (std::uint32_t i = 0; i < lanes; ++i) {
          const std::uint16_t h = static_cast<std::uint16_t>(dv[i]);
          std::memcpy(mbase + (a + i * st), &h, 2);
        }
        break;
      case Opcode::kStrb:
        for (std::uint32_t i = 0; i < lanes; ++i) {
          mbase[a + i * st] = static_cast<std::uint8_t>(dv[i]);
        }
        break;
      case Opcode::kMov: DSA_LANES(y[i]);
      case Opcode::kMovi: DSA_LANES(imm);
      case Opcode::kAdd: DSA_LANES(x[i] + y[i]);
      case Opcode::kAddi: DSA_LANES(x[i] + imm);
      case Opcode::kSub: DSA_LANES(x[i] - y[i]);
      case Opcode::kSubi: DSA_LANES(x[i] - imm);
      case Opcode::kRsb: DSA_LANES(imm - x[i]);
      case Opcode::kMul: DSA_LANES(x[i] * y[i]);
      case Opcode::kMla: {
        const std::uint32_t* const z = lane[o.ra];
        DSA_LANES(x[i] * y[i] + z[i]);
      }
      case Opcode::kAnd: DSA_LANES(x[i] & y[i]);
      case Opcode::kAndi: DSA_LANES(x[i] & imm);
      case Opcode::kOrr: DSA_LANES(x[i] | y[i]);
      case Opcode::kEor: DSA_LANES(x[i] ^ y[i]);
      case Opcode::kBic: DSA_LANES(x[i] & ~y[i]);
      case Opcode::kLsl: DSA_LANES(x[i] << (y[i] & 31));
      case Opcode::kLsr: DSA_LANES(x[i] >> (y[i] & 31));
      case Opcode::kAsr:
        DSA_LANES(static_cast<std::uint32_t>(static_cast<std::int32_t>(x[i]) >>
                                             (y[i] & 31)));
      case Opcode::kMin:
        DSA_LANES(static_cast<std::uint32_t>(std::min(
            static_cast<std::int32_t>(x[i]), static_cast<std::int32_t>(y[i]))));
      case Opcode::kMax:
        DSA_LANES(static_cast<std::uint32_t>(std::max(
            static_cast<std::int32_t>(x[i]), static_cast<std::int32_t>(y[i]))));
      default: break;  // PlanChunk emits no other op
    }
#undef DSA_LANES
  }

  // Exit state: lane n - 1's registers and compare, the latch predictor
  // after n taken updates (it saturates within 3), and the runs' deferred
  // hits numbered as n scalar iterations would number them.
  for (const std::uint8_t r : p.temps) regs[r] = lane[r][lanes - 1];
  for (const auto& [r, s] : p.affine) {
    regs[r] += lanes * static_cast<std::uint32_t>(s);
  }
  state_.cmp_diff = diff0 + static_cast<std::int64_t>(n - 1) * slope;
  std::uint8_t& ctr = predict_[p.latch];
  const std::uint64_t mispredicts =
      ctr < 2 ? std::min<std::uint64_t>(n, 2u - ctr) : 0;
  ctr = static_cast<std::uint8_t>(std::min<std::uint64_t>(3, ctr + n));
  for (std::uint32_t k = 0; k < kMemRuns; ++k) {
    if (p.last[k] != 0) m.last[k] = m.pend + (n - 1) * count + p.last[k];
  }
  m.pend += n * count;

  d.steps = n * p.len;
  d.mem_reads = n * p.loads;
  d.mem_writes = n * p.stores;
  d.mispredicts = mispredicts;
  d.other_stall = n * p.stall + mispredicts * p.penalty;
  chunk_iterations_ += n;
  return lanes;
}

}  // namespace dsa::cpu
