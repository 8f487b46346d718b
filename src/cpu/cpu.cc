#include "cpu/cpu.h"

#include <cstring>
#include <stdexcept>

namespace dsa::cpu {

using isa::Cond;
using isa::Instruction;
using isa::Opcode;

bool CpuState::CondHolds(Cond c) const {
  switch (c) {
    case Cond::kAl: return true;
    case Cond::kEq: return cmp_diff == 0;
    case Cond::kNe: return cmp_diff != 0;
    case Cond::kLt: return cmp_diff < 0;
    case Cond::kGe: return cmp_diff >= 0;
    case Cond::kGt: return cmp_diff > 0;
    case Cond::kLe: return cmp_diff <= 0;
  }
  return false;
}

Cpu::Cpu(const prog::Program& program, mem::Memory& memory,
         mem::Hierarchy& hierarchy, const TimingConfig& cfg,
         bool reference_path)
    : program_(program), memory_(memory), hierarchy_(hierarchy), cfg_(cfg),
      reference_path_(reference_path) {
  l1_ = &hierarchy_.l1_runs();
  l1_shift_ = l1_->line_shift();
  l1_mask_ = hierarchy_.l1_line_mask();
  l1_hit_ = hierarchy_.l1_hit_latency();
  predict_.assign(program.size(), kUntrained);
  // The reference twin only ever steps, so the threaded stream would be
  // dead weight there.
  if (!reference_path_) BuildThreaded();
}

std::uint64_t Cpu::Cycles() const {
  const std::uint64_t issue =
      (stats_.issue_slots + cfg_.superscalar_width - 1) /
      cfg_.superscalar_width;
  return issue + stats_.mem_stall_cycles + stats_.other_stall_cycles +
         stats_.neon_busy_cycles + stats_.dsa_overhead_cycles;
}

bool Cpu::PredictTaken(std::uint32_t pc) {
  std::uint8_t ctr = kUntrained;
  if (reference_path_) {
    const auto it = predictor_.find(pc);
    if (it != predictor_.end()) ctr = it->second;
  } else {
    ctr = predict_[pc];
  }
  return ctr == kUntrained ? static_taken(pc) : ctr >= 2;
}

void Cpu::TrainPredictor(std::uint32_t pc, bool taken) {
  if (reference_path_) {
    std::uint8_t& ctr =
        predictor_.try_emplace(pc, taken ? 2 : 1).first->second;
    if (taken && ctr < 3) ++ctr;
    if (!taken && ctr > 0) --ctr;
    return;
  }
  std::uint8_t& ctr = predict_[pc];
  // First training seeds the weak state (2/1) and then applies the update,
  // matching the map predictor's try_emplace-then-update sequence: the
  // first taken branch lands at 3, the first not-taken at 0.
  if (ctr == kUntrained) ctr = taken ? 2 : 1;
  if (taken) {
    if (ctr < 3) ++ctr;
  } else if (ctr > 0) {
    --ctr;
  }
}

std::uint32_t Cpu::MemAccessLatency(std::uint32_t addr, std::uint32_t bytes) {
  // Hit latency is pipelined away; only charge cycles beyond an L1 hit.
  const std::uint32_t lat = hierarchy_.AccessRange(addr, bytes);
  const std::uint32_t hit = hierarchy_.l1().config().hit_latency;
  return lat > hit ? lat - hit : 0;
}

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

}  // namespace

void Cpu::FlushAccum(const StepAccum& a) {
  stats_.retired_total += a.steps;
  stats_.retired_vector += a.vec;
  stats_.retired_scalar += a.steps - a.vec;
  stats_.issue_slots += a.steps;
  host_steps_ += a.steps;
  stats_.mem_stall_cycles += a.mem_stall;
  stats_.other_stall_cycles += a.other_stall;
  stats_.mem_reads += a.mem_reads;
  stats_.mem_writes += a.mem_writes;
  stats_.branches += a.branches;
  stats_.mispredicts += a.mispredicts;
}

Retired Cpu::Step() {
  Retired r;
  if (state_.halted) return r;
  if (state_.pc >= program_.size()) {
    state_.halted = true;
    return r;
  }
  // The scope publishes pc and the stat deltas on every exit, including
  // an out-of-range access, which throws before either moves.
  BatchScope b(*this);
  StepAccum& a = b.a;
  const std::uint32_t pc = b.pc;
  const Instruction& ins = program_.at(pc);
  const bool is_vector = isa::IsVector(ins.op);
  r.pc = pc;
  r.instr = &ins;  // stable beyond this step

  auto& regs = state_.regs;
  std::uint32_t next_pc = pc + 1;
  std::uint64_t mem_stall = 0;
  std::uint64_t stall = 0;  // non-memory stalls

  switch (ins.op) {
    // ---- scalar loads ------------------------------------------------
    case Opcode::kLdr:
    case Opcode::kLdrh:
    case Opcode::kLdrb: {
      const std::uint32_t addr = regs[ins.rn] + ins.imm;
      const std::uint32_t bytes =
          ins.op == Opcode::kLdr ? 4 : (ins.op == Opcode::kLdrh ? 2 : 1);
      if (ins.op == Opcode::kLdr) {
        regs[ins.rd] = memory_.Read32(addr);
      } else if (ins.op == Opcode::kLdrh) {
        regs[ins.rd] = memory_.Read16(addr);
      } else {
        regs[ins.rd] = memory_.Read8(addr);
      }
      regs[ins.rn] += ins.post_inc;
      mem_stall += MemAccessLatency(addr, bytes);
      r.has_mem = true;
      r.mem_addr = addr;
      r.mem_bytes = bytes;
      ++a.mem_reads;
      break;
    }
    // ---- scalar stores -----------------------------------------------
    case Opcode::kStr:
    case Opcode::kStrh:
    case Opcode::kStrb: {
      const std::uint32_t addr = regs[ins.rn] + ins.imm;
      const std::uint32_t bytes =
          ins.op == Opcode::kStr ? 4 : (ins.op == Opcode::kStrh ? 2 : 1);
      if (ins.op == Opcode::kStr) {
        memory_.Write32(addr, regs[ins.rd]);
      } else if (ins.op == Opcode::kStrh) {
        memory_.Write16(addr, static_cast<std::uint16_t>(regs[ins.rd]));
      } else {
        memory_.Write8(addr, static_cast<std::uint8_t>(regs[ins.rd]));
      }
      regs[ins.rn] += ins.post_inc;
      mem_stall += MemAccessLatency(addr, bytes);
      r.has_mem = true;
      r.mem_addr = addr;
      r.mem_bytes = bytes;
      r.mem_is_write = true;
      ++a.mem_writes;
      break;
    }
    // ---- moves / ALU ---------------------------------------------------
    case Opcode::kMov: regs[ins.rd] = regs[ins.rm]; break;
    case Opcode::kMovi: regs[ins.rd] = static_cast<std::uint32_t>(ins.imm); break;
    case Opcode::kAdd: regs[ins.rd] = regs[ins.rn] + regs[ins.rm]; break;
    case Opcode::kAddi:
      regs[ins.rd] = regs[ins.rn] + static_cast<std::uint32_t>(ins.imm);
      break;
    case Opcode::kSub: regs[ins.rd] = regs[ins.rn] - regs[ins.rm]; break;
    case Opcode::kSubi:
      regs[ins.rd] = regs[ins.rn] - static_cast<std::uint32_t>(ins.imm);
      break;
    case Opcode::kRsb:
      regs[ins.rd] = static_cast<std::uint32_t>(ins.imm) - regs[ins.rn];
      break;
    case Opcode::kMul:
      regs[ins.rd] = regs[ins.rn] * regs[ins.rm];
      stall += cfg_.int_mul_extra;
      break;
    case Opcode::kMla:
      regs[ins.rd] = regs[ins.rn] * regs[ins.rm] + regs[ins.ra];
      stall += cfg_.int_mul_extra;
      break;
    case Opcode::kSdiv: {
      const std::int32_t d = static_cast<std::int32_t>(regs[ins.rm]);
      regs[ins.rd] =
          d == 0 ? 0
                 : static_cast<std::uint32_t>(
                       static_cast<std::int32_t>(regs[ins.rn]) / d);
      stall += cfg_.int_div_extra;
      break;
    }
    case Opcode::kAnd: regs[ins.rd] = regs[ins.rn] & regs[ins.rm]; break;
    case Opcode::kAndi:
      regs[ins.rd] = regs[ins.rn] & static_cast<std::uint32_t>(ins.imm);
      break;
    case Opcode::kOrr: regs[ins.rd] = regs[ins.rn] | regs[ins.rm]; break;
    case Opcode::kEor: regs[ins.rd] = regs[ins.rn] ^ regs[ins.rm]; break;
    case Opcode::kBic: regs[ins.rd] = regs[ins.rn] & ~regs[ins.rm]; break;
    case Opcode::kLsl: regs[ins.rd] = regs[ins.rn] << (regs[ins.rm] & 31); break;
    case Opcode::kLsr: regs[ins.rd] = regs[ins.rn] >> (regs[ins.rm] & 31); break;
    case Opcode::kAsr:
      regs[ins.rd] = static_cast<std::uint32_t>(
          static_cast<std::int32_t>(regs[ins.rn]) >> (regs[ins.rm] & 31));
      break;
    case Opcode::kMin:
      regs[ins.rd] = static_cast<std::uint32_t>(
          std::min(static_cast<std::int32_t>(regs[ins.rn]),
                   static_cast<std::int32_t>(regs[ins.rm])));
      break;
    case Opcode::kMax:
      regs[ins.rd] = static_cast<std::uint32_t>(
          std::max(static_cast<std::int32_t>(regs[ins.rn]),
                   static_cast<std::int32_t>(regs[ins.rm])));
      break;
    // ---- float (VFP-style on scalar regs) ------------------------------
    case Opcode::kFadd:
      regs[ins.rd] = AsBits(AsFloat(regs[ins.rn]) + AsFloat(regs[ins.rm]));
      stall += cfg_.fp_extra;
      break;
    case Opcode::kFsub:
      regs[ins.rd] = AsBits(AsFloat(regs[ins.rn]) - AsFloat(regs[ins.rm]));
      stall += cfg_.fp_extra;
      break;
    case Opcode::kFmul:
      regs[ins.rd] = AsBits(AsFloat(regs[ins.rn]) * AsFloat(regs[ins.rm]));
      stall += cfg_.fp_extra;
      break;
    case Opcode::kFdiv:
      regs[ins.rd] = AsBits(AsFloat(regs[ins.rn]) / AsFloat(regs[ins.rm]));
      stall += cfg_.fp_div_extra;
      break;
    // ---- compare / control ----------------------------------------------
    case Opcode::kCmp:
      state_.cmp_diff = static_cast<std::int64_t>(
                            static_cast<std::int32_t>(regs[ins.rn])) -
                        static_cast<std::int32_t>(regs[ins.rm]);
      break;
    case Opcode::kCmpi:
      state_.cmp_diff = static_cast<std::int64_t>(
                            static_cast<std::int32_t>(regs[ins.rn])) -
                        ins.imm;
      break;
    case Opcode::kB: {
      const bool taken = state_.CondHolds(ins.cond);
      const bool predicted = PredictTaken(pc);
      if (taken) next_pc = static_cast<std::uint32_t>(ins.imm);
      if (predicted != taken) {
        stall += cfg_.branch_mispredict_penalty;
        ++a.mispredicts;
      }
      TrainPredictor(pc, taken);
      r.branch_taken = taken;
      ++a.branches;
      break;
    }
    case Opcode::kBl:
      regs[isa::kLr] = pc + 1;
      next_pc = static_cast<std::uint32_t>(ins.imm);
      r.branch_taken = true;
      ++a.branches;
      break;
    case Opcode::kRet:
      next_pc = regs[isa::kLr];
      r.branch_taken = true;
      ++a.branches;
      break;
    case Opcode::kNop: break;
    case Opcode::kHalt:
      state_.halted = true;
      next_pc = pc;
      break;
    // ---- vector (inline NEON instructions from static vectorization) ----
    case Opcode::kVld1: {
      const std::uint32_t addr = regs[ins.rn];
      memory_.ReadBlock(addr, state_.vregs.q(ins.rd).bytes.data(), 16);
      regs[ins.rn] += ins.post_inc;
      mem_stall += MemAccessLatency(addr, 16);
      stall += cfg_.neon.LatencyOf(ins.op) - 1;
      r.has_mem = true;
      r.mem_addr = addr;
      r.mem_bytes = 16;
      ++a.mem_reads;
      break;
    }
    case Opcode::kVst1: {
      const std::uint32_t addr = regs[ins.rn];
      memory_.WriteBlock(addr, state_.vregs.q(ins.rd).bytes.data(), 16);
      regs[ins.rn] += ins.post_inc;
      mem_stall += MemAccessLatency(addr, 16);
      stall += cfg_.neon.LatencyOf(ins.op) - 1;
      r.has_mem = true;
      r.mem_addr = addr;
      r.mem_bytes = 16;
      r.mem_is_write = true;
      ++a.mem_writes;
      break;
    }
    case Opcode::kVldLane: {
      const std::uint32_t addr = regs[ins.rn];
      const int bytes = isa::LaneBytes(ins.vt);
      std::uint32_t v;
      if (bytes == 1) {
        v = memory_.Read8(addr);
      } else if (bytes == 2) {
        v = memory_.Read16(addr);
      } else {
        v = memory_.Read32(addr);
      }
      state_.vregs.q(ins.rd).SetLane(ins.vt, ins.imm, v);
      regs[ins.rn] += ins.post_inc;
      mem_stall += MemAccessLatency(addr, bytes);
      r.has_mem = true;
      r.mem_addr = addr;
      r.mem_bytes = bytes;
      ++a.mem_reads;
      break;
    }
    case Opcode::kVstLane: {
      const std::uint32_t addr = regs[ins.rn];
      const int bytes = isa::LaneBytes(ins.vt);
      const std::uint32_t v = state_.vregs.q(ins.rd).Lane(ins.vt, ins.imm);
      if (bytes == 1) {
        memory_.Write8(addr, static_cast<std::uint8_t>(v));
      } else if (bytes == 2) {
        memory_.Write16(addr, static_cast<std::uint16_t>(v));
      } else {
        memory_.Write32(addr, v);
      }
      regs[ins.rn] += ins.post_inc;
      mem_stall += MemAccessLatency(addr, bytes);
      r.has_mem = true;
      r.mem_addr = addr;
      r.mem_bytes = bytes;
      r.mem_is_write = true;
      ++a.mem_writes;
      break;
    }
    case Opcode::kVdup:
      state_.vregs.q(ins.rd) = neon::Broadcast(ins.vt, regs[ins.rn]);
      break;
    case Opcode::kVshl:
    case Opcode::kVshr:
      state_.vregs.q(ins.rd) =
          neon::ExecuteShift(ins.op, ins.vt, state_.vregs.q(ins.rn), ins.imm);
      break;
    case Opcode::kVbsl:
      state_.vregs.q(ins.rd) = neon::ExecuteBsl(
          state_.vregs.q(ins.rd), state_.vregs.q(ins.rn),
          state_.vregs.q(ins.rm));
      break;
    case Opcode::kVmovToScalar:
      regs[ins.rd] = state_.vregs.q(ins.rn).Lane(ins.vt, ins.imm);
      break;
    case Opcode::kVmovFromScalar:
      state_.vregs.q(ins.rd).SetLane(ins.vt, ins.imm, regs[ins.rn]);
      break;
    default: {
      // Remaining vector lane ops share one evaluation path.
      if (is_vector) {
        state_.vregs.q(ins.rd) = neon::ExecuteLaneOp(
            ins.op, ins.vt, state_.vregs.q(ins.rn), state_.vregs.q(ins.rm),
            state_.vregs.q(ins.ra));
        stall += cfg_.neon.LatencyOf(ins.op) - 1;
      } else {
        throw std::logic_error("unhandled opcode");
      }
      break;
    }
  }

  ++a.steps;
  if (is_vector) ++a.vec;
  a.mem_stall += mem_stall;
  a.other_stall += stall;

  r.next_pc = next_pc;
  if (next_pc >= program_.size() && !state_.halted) state_.halted = true;
  b.pc = next_pc;
  return r;
}

void Cpu::RewindCoveredStats(const CpuStats& before, CoveredOutcome& d) {
  const std::uint64_t d_issue = stats_.issue_slots - before.issue_slots;
  const std::uint64_t d_other =
      stats_.other_stall_cycles - before.other_stall_cycles;
  const std::uint64_t d_retired = stats_.retired_total - before.retired_total;
  const std::uint64_t d_branches = stats_.branches - before.branches;
  const std::uint64_t d_mispred = stats_.mispredicts - before.mispredicts;

  // Remove the scalar cost of the covered instructions; keep memory stalls
  // (the same lines move under vector execution).
  stats_.issue_slots -= d_issue;
  stats_.other_stall_cycles -= d_other;
  stats_.retired_total -= d_retired;
  stats_.retired_scalar -= d_retired;
  stats_.branches -= d_branches;
  stats_.mispredicts -= d_mispred;

  d.retired = d_retired;
}

}  // namespace dsa::cpu
