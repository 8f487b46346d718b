#include "engine/speculation_guard.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "mem/fnv.h"

namespace dsa::engine {

void SpeculationGuard::Arm(const engine::TakeoverPlan& plan, cpu::Cpu& cpu) {
  checkpoint_ = cpu.state();
  undo_.clear();
  mem_snapshot_.clear();

  const LoopRecord& rec = plan.record;
  const bool fused = plan.coverage_start != rec.body.start_pc ||
                     plan.coverage_latch != rec.body.latch_pc;
  bound_iterations_ =
      std::max(plan.expected_iterations, plan.max_iterations);

  // The undo log is only sound when every store stream has a live
  // addressing register (PlanFromRecord refreshed its base from the
  // register file) and the iteration count is bounded. Anything else —
  // fused nests whose glue may touch memory, bodies with calls, fresh
  // takeovers whose recorded bases are stale observations — checkpoints
  // the whole memory image instead.
  snapshot_ = fused || rec.body.has_function_call || bound_iterations_ == 0 ||
              !plan.from_cache;
  if (!snapshot_) {
    for (const MemStream& s : rec.body.stores) {
      if (s.addr_reg < 0) {
        snapshot_ = true;
        break;
      }
    }
  }

  const mem::Memory& mem = cpu.memory();
  if (snapshot_) {
    mem_snapshot_ = mem.raw();
  } else {
    const std::int64_t span = static_cast<std::int64_t>(
        bound_iterations_ + cfg_.guard_margin_iterations);
    for (const MemStream& s : rec.body.stores) {
      const std::int64_t base = static_cast<std::int64_t>(s.base_addr);
      const std::int64_t step = std::abs(s.stride);
      std::int64_t lo = base;
      std::int64_t hi = base + s.elem_bytes;
      if (s.stride >= 0) {
        hi += span * step;
      } else {
        lo -= span * step;
      }
      lo = std::max<std::int64_t>(lo, 0);
      hi = std::min<std::int64_t>(hi, static_cast<std::int64_t>(mem.size()));
      if (hi <= lo) continue;
      UndoRange range;
      range.lo = static_cast<std::uint32_t>(lo);
      range.saved.resize(static_cast<std::size_t>(hi - lo));
      mem.ReadBlock(range.lo, range.saved.data(), range.saved.size());
      undo_.push_back(std::move(range));
    }
  }
  armed_ = true;
}

std::uint64_t SpeculationGuard::DigestState(const cpu::Cpu& cpu) const {
  const cpu::CpuState& st = cpu.state();
  mem::Fnv1a f;
  f.Bytes(st.regs.data(), st.regs.size() * sizeof(st.regs[0]));
  for (int i = 0; i < isa::kNumVecRegs; ++i) {
    const neon::QReg& q = st.vregs.q(i);
    f.Bytes(q.bytes.data(), q.bytes.size());
  }
  f.U64(static_cast<std::uint64_t>(st.cmp_diff));
  f.U64(st.pc);
  f.U64(st.halted ? 1 : 0);

  const std::vector<std::uint8_t>& bytes = cpu.memory().raw();
  if (snapshot_) {
    f.Bytes(bytes.data(), bytes.size());
  } else {
    for (const UndoRange& r : undo_) {
      f.Bytes(bytes.data() + r.lo, r.saved.size());
    }
  }
  return f.h;
}

void SpeculationGuard::EmitFault(fault::FaultKind kind,
                                 std::uint32_t loop_id) {
  if (tracer_) {
    tracer_->Emit(trace::EventKind::kFaultInjected, loop_id,
                  static_cast<std::uint64_t>(kind),
                  injector_.fired()[static_cast<int>(kind)]);
  }
}

void SpeculationGuard::CorruptFootprint(cpu::Cpu& cpu, std::uint64_t payload,
                                        bool at_end) {
  mem::Memory& mem = cpu.memory();
  // XOR a nonzero byte pattern into the store footprint — at its far end
  // for overrun-style faults, at its base otherwise. Sites always lie
  // inside the digested+restorable coverage.
  const std::uint8_t pat[4] = {
      static_cast<std::uint8_t>(payload | 1),
      static_cast<std::uint8_t>(payload >> 8),
      static_cast<std::uint8_t>(payload >> 16),
      static_cast<std::uint8_t>(payload >> 24),
  };
  std::uint32_t addr = 0;
  std::size_t len = 0;
  if (!undo_.empty()) {
    const UndoRange& r = undo_[payload % undo_.size()];
    len = std::min<std::size_t>(4, r.saved.size());
    addr = at_end ? r.lo + static_cast<std::uint32_t>(r.saved.size() - len)
                  : r.lo;
  } else if (mem.size() >= 4) {
    // Snapshot mode: the whole image is covered; land near the middle so
    // the site is workload data rather than the zeroed tail.
    len = 4;
    addr = static_cast<std::uint32_t>(
        (payload % (mem.size() - 4)) & ~std::uint64_t{3});
  }
  for (std::size_t i = 0; i < len; ++i) {
    mem.Write8(addr + static_cast<std::uint32_t>(i),
               mem.Read8(addr + static_cast<std::uint32_t>(i)) ^ pat[i]);
  }
  if (len == 0) CorruptVregBit(cpu, payload);
}

void SpeculationGuard::CorruptVregBit(cpu::Cpu& cpu, std::uint64_t payload) {
  neon::QReg& q = cpu.state().vregs.q(
      static_cast<int>(payload % isa::kNumVecRegs));
  const int byte = static_cast<int>((payload >> 8) % q.bytes.size());
  const int bit = static_cast<int>((payload >> 16) & 7);
  q.bytes[byte] ^= static_cast<std::uint8_t>(1u << bit);
}

void SpeculationGuard::CorruptStreamPointer(const engine::TakeoverPlan& plan,
                                            cpu::Cpu& cpu,
                                            std::uint64_t payload) {
  // A wild stream pointer: clobber the addressing register of one of the
  // plan's memory streams. Registers are checkpointed, so the corruption
  // is detected (digest) and undone (rollback); re-execution then uses the
  // restored, correct pointer.
  const BodySummary& body = plan.record.body;
  for (const std::vector<MemStream>* streams : {&body.stores, &body.loads}) {
    for (const MemStream& s : *streams) {
      if (s.addr_reg >= 0) {
        cpu.state().regs[s.addr_reg] ^=
            static_cast<std::uint32_t>(payload | 1);
        return;
      }
    }
  }
  CorruptVregBit(cpu, payload);  // no live stream register to poison
}

void SpeculationGuard::ApplyFaults(const engine::TakeoverPlan& plan,
                                   cpu::Cpu& cpu,
                                   std::uint64_t covered_iterations) {
  (void)covered_iterations;
  const std::uint32_t loop = plan.coverage_latch;
  const LoopRecord& rec = plan.record;

  // A forced CIDP misprediction (fired at plan time by the engine) means
  // the covered run vectorized across a real dependency: the speculative
  // result is wrong somewhere in the store footprint.
  if (plan.forced_misprediction) {
    CorruptFootprint(cpu, injector_.Rand(fault::FaultKind::kCidpMispredict),
                     /*at_end=*/false);
  }
  // Vector Map wrong-lane selection only exists on conditional loops.
  if (rec.cls == LoopClass::kConditional &&
      injector_.Fire(fault::FaultKind::kWrongLane)) {
    EmitFault(fault::FaultKind::kWrongLane, loop);
    CorruptFootprint(cpu, injector_.Rand(fault::FaultKind::kWrongLane),
                     /*at_end=*/false);
  }
  // Sentinel overrun: speculative stores past the terminator element, i.e.
  // at the far end of the (margin-padded) footprint.
  if (rec.cls == LoopClass::kSentinel &&
      injector_.Fire(fault::FaultKind::kSentinelOverrun)) {
    EmitFault(fault::FaultKind::kSentinelOverrun, loop);
    CorruptFootprint(cpu, injector_.Rand(fault::FaultKind::kSentinelOverrun),
                     /*at_end=*/true);
  }
  // Single-event upset in a NEON lane: any takeover.
  if (injector_.Fire(fault::FaultKind::kLaneBitflip)) {
    EmitFault(fault::FaultKind::kLaneBitflip, loop);
    CorruptVregBit(cpu, injector_.Rand(fault::FaultKind::kLaneBitflip));
  }
  // Wild stream pointer: any takeover.
  if (injector_.Fire(fault::FaultKind::kMemFault)) {
    EmitFault(fault::FaultKind::kMemFault, loop);
    CorruptStreamPointer(plan, cpu, injector_.Rand(fault::FaultKind::kMemFault));
  }
}

bool SpeculationGuard::CheckAfterCovered(const engine::TakeoverPlan& plan,
                                         cpu::Cpu& cpu,
                                         std::uint64_t covered_iterations) {
  if (!armed_) {
    throw std::logic_error("SpeculationGuard::CheckAfterCovered without Arm");
  }
  armed_ = false;
  // Covered execution is functionally scalar, so the state it produced IS
  // the scalar reference; the injected corruptions stand in for what a
  // faulty vector pipeline would have produced instead.
  const std::uint64_t reference = DigestState(cpu);
  ApplyFaults(plan, cpu, covered_iterations);
  const std::uint64_t speculative = DigestState(cpu);
  const bool diverged = speculative != reference;
  if (diverged && !snapshot_ &&
      covered_iterations > bound_iterations_ + cfg_.guard_margin_iterations) {
    // The undo log was sized from the plan's iteration bound; running past
    // it would make the rollback unsound. Bounded plans cannot legally
    // exceed it, so this is a harness bug, not a recoverable fault.
    throw std::logic_error("speculation guard: covered run exceeded the "
                           "undo log's iteration bound");
  }
  return diverged;
}

void SpeculationGuard::Rollback(cpu::Cpu& cpu) {
  cpu.state() = checkpoint_;
  mem::Memory& mem = cpu.memory();
  if (snapshot_) {
    mem.WriteBlock(0, mem_snapshot_.data(), mem_snapshot_.size());
  } else {
    for (const UndoRange& r : undo_) {
      mem.WriteBlock(r.lo, r.saved.data(), r.saved.size());
    }
  }
}

}  // namespace dsa::engine
