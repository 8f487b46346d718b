#include "engine/tracker.h"

#include <algorithm>

#include "engine/cidp.h"
#include "engine/reguse.h"

namespace dsa::engine {

using isa::Cond;
using isa::InstrClass;
using isa::Opcode;

namespace {

// Floor division for signed 64-bit values.
std::int64_t FloorDiv(std::int64_t a, std::int64_t b) {
  std::int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

bool IsAffineSelfUpdate(const isa::Instruction& ins) {
  return (ins.op == Opcode::kAddi || ins.op == Opcode::kSubi) &&
         ins.rd == ins.rn;
}

// Vectorizable ALU opcode classification. Returns -1 when the opcode
// inhibits vectorization, 0 for single-cycle lane ops, 1 for multiplies.
int VectorOpKind(const isa::Instruction& ins) {
  switch (ins.op) {
    case Opcode::kAdd:
    case Opcode::kAddi:
    case Opcode::kSub:
    case Opcode::kSubi:
    case Opcode::kRsb:
    case Opcode::kAnd:
    case Opcode::kAndi:
    case Opcode::kOrr:
    case Opcode::kEor:
    case Opcode::kBic:
    case Opcode::kLsl:
    case Opcode::kLsr:
    case Opcode::kAsr:
    case Opcode::kMin:
    case Opcode::kMax:
    case Opcode::kFadd:
    case Opcode::kFsub:
      return 0;
    case Opcode::kMul:
    case Opcode::kMla:
    case Opcode::kFmul:
      return 1;
    case Opcode::kMov:
    case Opcode::kMovi:
      return 2;  // register traffic; folds away in vector form
    case Opcode::kSdiv:
    case Opcode::kFdiv:
    default:
      return -1;
  }
}

}  // namespace

std::optional<std::int64_t> EstimateRemainingIterations(std::int64_t a,
                                                        std::int64_t b,
                                                        Cond cond) {
  // Continue while CondHolds(a + j*b) for j = 1..k; return max such k.
  switch (cond) {
    case Cond::kLt:  // diff < 0
      if (b > 0) return std::max<std::int64_t>(0, FloorDiv(-1 - a, b));
      return (a + b < 0) ? std::nullopt
                         : std::optional<std::int64_t>(0);
    case Cond::kLe:  // diff <= 0
      if (b > 0) return std::max<std::int64_t>(0, FloorDiv(-a, b));
      return (a + b <= 0) ? std::nullopt
                          : std::optional<std::int64_t>(0);
    case Cond::kGt:  // diff > 0
      if (b < 0) return std::max<std::int64_t>(0, FloorDiv(a - 1, -b));
      return (a + b > 0) ? std::nullopt
                         : std::optional<std::int64_t>(0);
    case Cond::kGe:  // diff >= 0
      if (b < 0) return std::max<std::int64_t>(0, FloorDiv(a, -b));
      return (a + b >= 0) ? std::nullopt
                          : std::optional<std::int64_t>(0);
    case Cond::kNe: {  // diff != 0, terminates on exact hit
      if (b == 0) {
        return a != 0 ? std::nullopt : std::optional<std::int64_t>(0);
      }
      if ((-a) % b != 0) return std::nullopt;
      const std::int64_t j_eq = (-a) / b;
      if (j_eq < 1) return std::nullopt;  // diverging away from zero
      return j_eq - 1;
    }
    case Cond::kEq:
      return (a + b == 0 && b == 0) ? std::nullopt
                                    : std::optional<std::int64_t>(0);
    case Cond::kAl:
      return std::nullopt;  // unconditional backward branch: unbounded
  }
  return std::nullopt;
}

LoopTracker::LoopTracker(std::uint32_t start_pc, std::uint32_t latch_pc,
                         const DsaConfig& cfg, VerificationCache& vc,
                         DsaStats& stats, trace::Tracer* tracer)
    : start_pc_(start_pc), latch_pc_(latch_pc), cfg_(cfg), vc_(vc),
      stats_(stats), tracer_(tracer), iteration_(2) {
  vc_.Clear();
  record_.loop_id = latch_pc;
  record_.body.start_pc = start_pc;
  record_.body.latch_pc = latch_pc;
  if (tracer_) {
    iter_begin_cycle_ = tracer_->now();
    tracer_->Emit(trace::EventKind::kLoopDetected, latch_pc_, start_pc_);
  }
}

void LoopTracker::CountStage(Stage s) {
  stats_.CountStage(s);
  if (tracer_) {
    const std::uint64_t now = tracer_->now();
    const std::uint64_t dur =
        now >= iter_begin_cycle_ ? now - iter_begin_cycle_ : 0;
    tracer_->Emit(trace::EventKind::kStageActivation, latch_pc_,
                  static_cast<std::uint64_t>(s),
                  static_cast<std::uint64_t>(iteration_), dur);
  }
}

LoopTracker::Event LoopTracker::Observe(const cpu::Retired& r,
                                        const cpu::CpuState& state) {
  if (finished_) return Event::kNone;
  const isa::Instruction& ins = *r.instr;

  if (r.pc == latch_pc_ && ins.op == Opcode::kB) {
    return EndOfIteration(r, state);
  }

  bool returning = false;
  if (ins.op == Opcode::kBl) {
    ++call_depth_;
    has_call_ = true;
  } else if (ins.op == Opcode::kRet) {
    returning = true;  // retires at the callee's pc; control lands inside
    if (--call_depth_ < 0) {
      finished_ = true;
      return Event::kAborted;
    }
  }

  if (!returning && call_depth_ == 0 &&
      (r.pc < start_pc_ || r.pc > latch_pc_)) {
    // The loop was left through a side exit before analysis finished.
    finished_ = true;
    return Event::kAborted;
  }

  // A taken backward branch other than our latch means a nested loop.
  if (ins.op == Opcode::kB && r.branch_taken &&
      static_cast<std::uint32_t>(ins.imm) <= r.pc) {
    saw_inner_loop_ = true;
  }

  if (cur_trace_.size() >= cfg_.trace_capacity) {
    trace_overflow_ = true;
  } else {
    Obs o;
    o.pc = r.pc;
    o.ins = &ins;
    o.has_mem = r.has_mem;
    o.mem_addr = r.mem_addr;
    o.mem_bytes = r.mem_bytes;
    o.mem_is_write = r.mem_is_write;
    cur_trace_.push_back(o);
    cur_pcs_.insert(r.pc);
  }

  if (ins.op == Opcode::kCmp || ins.op == Opcode::kCmpi) {
    Obs o;
    o.pc = r.pc;
    o.ins = &ins;
    // Capture operand values at compare time for latch range estimation.
    o.mem_addr = state.regs[ins.rn];
    o.mem_bytes = ins.op == Opcode::kCmp
                      ? state.regs[ins.rm]
                      : static_cast<std::uint32_t>(ins.imm);
    last_cmp_ = o;
  }
  return Event::kNone;
}

LoopTracker::Event LoopTracker::EndOfIteration(const cpu::Retired& latch,
                                               const cpu::CpuState& state) {
  record_.latch_cond = latch.instr->cond;
  if (last_cmp_.has_value()) {
    record_.latch_cmp_rn = last_cmp_->ins->rn;
    record_.latch_cmp_rm = last_cmp_->ins->rm;
    record_.latch_cmp_imm = last_cmp_->ins->imm;
    record_.latch_cmp_is_imm = last_cmp_->ins->op == Opcode::kCmpi;
    LatchSample s;
    s.rn_val = last_cmp_->mem_addr;
    s.rm_val = last_cmp_->mem_bytes;
    s.diff = static_cast<std::int64_t>(static_cast<std::int32_t>(s.rn_val)) -
             static_cast<std::int32_t>(s.rm_val);
    latch_samples_.push_back(s);
  }

  if (!latch.branch_taken) {
    // Loop ends before the analysis could finish: too few iterations, or a
    // conditional loop whose conditions were never fully covered.
    finished_ = true;
    return Event::kAborted;
  }

  Event ev = Event::kNone;
  if (conditional_mode_) {
    CountStage(Stage::kMapping);
    ev = AnalyzeConditionalStep(state);
  } else if (iteration_ == 2) {
    CountStage(Stage::kDataCollection);
    trace2_ = cur_trace_;
    pcs2_ = cur_pcs_;
    for (const Obs& o : trace2_) {
      if (o.has_mem) {
        ++stats_.vc_accesses;
        if (!vc_.Store(o.mem_addr)) {
          return Reject(LoopClass::kNonVectorizable,
                        RejectReason::kVerificationCacheFull);
        }
      }
    }
  } else if (iteration_ == 3) {
    CountStage(Stage::kDependencyAnalysis);
    trace3_ = cur_trace_;
    pcs3_ = cur_pcs_;
    if (saw_inner_loop_) {
      return Reject(LoopClass::kOuter, RejectReason::kContainsInnerLoop);
    }
    if (trace_overflow_) {
      return Reject(LoopClass::kNonVectorizable, RejectReason::kTraceOverflow);
    }
    // Conditional-code detection: differing executed-pc sets, or a
    // conditional forward branch inside the body.
    bool has_cond_branch = false;
    for (const Obs& o : trace2_) {
      if (o.ins->op == Opcode::kB && o.pc != latch_pc_ &&
          o.ins->cond != Cond::kAl) {
        has_cond_branch = true;
      }
    }
    if (pcs2_ != pcs3_ || has_cond_branch) {
      if (!cfg_.enable_conditional_loops) {
        return Reject(LoopClass::kConditional, RejectReason::kFeatureDisabled);
      }
      conditional_mode_ = true;
      CountStage(Stage::kMapping);
      // Seed the path table with the two iterations already observed.
      std::vector<std::uint32_t> key2(pcs2_.begin(), pcs2_.end());
      PathState& p2 = paths_[key2];
      p2.first_trace = trace2_;
      p2.first_seen_iter = 2;
      p2.seen = 1;
      pcs_seen_union_.insert(pcs2_.begin(), pcs2_.end());
      ev = AnalyzeConditionalStep(state);
    } else {
      ev = AnalyzeStraightBody(state);
    }
  }

  ++iteration_;
  cur_trace_.clear();
  cur_pcs_.clear();
  last_cmp_.reset();
  call_depth_ = 0;
  if (tracer_) iter_begin_cycle_ = tracer_->now();
  return ev;
}

LoopTracker::Event LoopTracker::Reject(LoopClass cls, RejectReason why) {
  finished_ = true;
  record_.cls = cls == LoopClass::kNonVectorizable ||
                        cls == LoopClass::kOuter ||
                        cls == LoopClass::kConditional ||
                        cls == LoopClass::kSentinel
                    ? cls
                    : LoopClass::kNonVectorizable;
  record_.reject = why;
  ++stats_.rejects_by_reason[why];
  return Event::kRejected;
}

std::set<int> LoopTracker::InductionRegs(const std::vector<Obs>& trace) const {
  // A register is an induction register when every write to it inside the
  // body is an affine self-update (post-increment or addi/subi rd==rn).
  std::set<int> written_affine;
  std::set<int> written_other;
  for (const Obs& o : trace) {
    const RegUse u = UsesOf(*o.ins);
    if (u.post_inc_reg >= 0) written_affine.insert(u.post_inc_reg);
    if (u.dst >= 0) {
      if (IsAffineSelfUpdate(*o.ins)) {
        written_affine.insert(u.dst);
      } else {
        written_other.insert(u.dst);
      }
    }
  }
  std::set<int> result;
  for (const int r : written_affine) {
    if (written_other.count(r) == 0) result.insert(r);
  }
  return result;
}

bool LoopTracker::CheckCarryAround(const std::vector<Obs>& trace,
                                   const std::set<int>& induction) const {
  // Collect registers written by non-induction body instructions.
  std::set<int> body_dsts;
  for (const Obs& o : trace) {
    const RegUse u = UsesOf(*o.ins);
    if (u.dst >= 0 && induction.count(u.dst) == 0 &&
        !IsAffineSelfUpdate(*o.ins)) {
      body_dsts.insert(u.dst);
    }
  }
  // A read of such a register before its write in iteration order means the
  // value is carried around from the previous iteration (Table 1 line 5).
  std::set<int> written;
  for (const Obs& o : trace) {
    const RegUse u = UsesOf(*o.ins);
    for (int i = 0; i < u.n_srcs; ++i) {
      const int s = u.srcs[i];
      if (body_dsts.count(s) != 0 && written.count(s) == 0) return true;
    }
    if (u.dst >= 0) written.insert(u.dst);
  }
  return false;
}

std::vector<std::uint32_t> LoopTracker::StopConditionSlice(
    const std::vector<Obs>& trace) const {
  // Backward slice from the last compare in the trace.
  std::vector<std::uint32_t> slice;
  int cmp_idx = -1;
  for (int i = static_cast<int>(trace.size()) - 1; i >= 0; --i) {
    const Opcode op = trace[i].ins->op;
    if (op == Opcode::kCmp || op == Opcode::kCmpi) {
      cmp_idx = i;
      break;
    }
  }
  if (cmp_idx < 0) return slice;
  std::set<int> needed;
  {
    const RegUse u = UsesOf(*trace[cmp_idx].ins);
    for (int i = 0; i < u.n_srcs; ++i) needed.insert(u.srcs[i]);
  }
  slice.push_back(trace[cmp_idx].pc);
  for (int i = cmp_idx - 1; i >= 0; --i) {
    const RegUse u = UsesOf(*trace[i].ins);
    if (u.dst >= 0 && needed.count(u.dst) != 0) {
      slice.push_back(trace[i].pc);
      needed.erase(u.dst);
      for (int s = 0; s < u.n_srcs; ++s) needed.insert(u.srcs[s]);
    }
  }
  return slice;
}

bool LoopTracker::SummarizeTrace(const std::vector<Obs>& t2,
                                 const std::vector<Obs>& t3, BodySummary& out,
                                 RejectReason& why,
                                 bool require_store) const {
  if (t2.size() != t3.size()) {
    why = RejectReason::kRangeUnknown;
    return false;
  }
  for (std::size_t i = 0; i < t2.size(); ++i) {
    if (t2[i].pc != t3[i].pc) {
      why = RejectReason::kRangeUnknown;
      return false;
    }
  }

  const std::set<int> induction = InductionRegs(t2);

  std::uint32_t elem_bytes = 0;
  bool has_fp = false;
  for (std::size_t i = 0; i < t2.size(); ++i) {
    const Obs& a = t2[i];
    const Obs& b = t3[i];
    const isa::Instruction& ins = *a.ins;
    const InstrClass cls = ins.cls();

    if (a.has_mem) {
      MemStream s;
      s.pc = a.pc;
      s.is_write = a.mem_is_write;
      s.elem_bytes = a.mem_bytes;
      s.base_addr = a.mem_addr;
      s.addr_reg = ins.rn;
      s.addr_offset = isa::IsVector(ins.op) ? 0 : ins.imm;
      s.stride = static_cast<std::int64_t>(b.mem_addr) -
                 static_cast<std::int64_t>(a.mem_addr);
      s.loop_invariant = (s.stride == 0 && !s.is_write);
      if (!s.loop_invariant) {
        if (s.stride != s.elem_bytes) {
          // Non-unit or descending strides and rewritten scalars cannot
          // feed the NEON unit (Table 1 lines 6/7).
          why = RejectReason::kNonUnitStride;
          return false;
        }
        if (elem_bytes == 0) {
          elem_bytes = s.elem_bytes;
        } else if (elem_bytes != s.elem_bytes) {
          why = RejectReason::kMixedElementSizes;
          return false;
        }
      }
      if (s.is_write) {
        out.stores.push_back(s);
      } else {
        out.loads.push_back(s);
      }
      continue;
    }

    switch (cls) {
      case InstrClass::kIntAlu:
      case InstrClass::kFpAlu: {
        if (IsAffineSelfUpdate(ins) && induction.count(ins.rd) != 0) {
          continue;  // induction update: stays scalar, once per chunk
        }
        const int kind = VectorOpKind(ins);
        if (kind < 0) {
          why = RejectReason::kUnsupportedOp;
          return false;
        }
        if (cls == InstrClass::kFpAlu) has_fp = true;
        if (kind == 0) ++out.alu_ops;
        if (kind == 1) ++out.mul_ops;
        break;
      }
      case InstrClass::kCompare:
      case InstrClass::kBranch:
      case InstrClass::kCall:
      case InstrClass::kRet:
      case InstrClass::kMisc:
        break;
      default:
        why = RejectReason::kUnsupportedOp;
        return false;
    }
  }

  if (require_store && out.stores.empty()) {
    // Results never reach memory: the loop's value lives in carried
    // registers, which the DSA cannot virtualize.
    why = RejectReason::kNoVectorOps;
    return false;
  }
  if (elem_bytes == 0) elem_bytes = 4;
  out.vec_type = elem_bytes == 1
                     ? isa::VecType::kI8
                     : (elem_bytes == 2 ? isa::VecType::kI16
                                        : (has_fp ? isa::VecType::kF32
                                                  : isa::VecType::kI32));
  out.body_instrs = static_cast<std::uint32_t>(t2.size()) + 1;  // + latch

  if (CheckCarryAround(t2, induction)) {
    why = RejectReason::kCarryAroundScalar;
    return false;
  }
  why = RejectReason::kNone;
  return true;
}

std::optional<std::int64_t> LoopTracker::RemainingIterations() const {
  if (latch_samples_.size() < 2) return std::nullopt;
  const LatchSample& a = latch_samples_[latch_samples_.size() - 2];
  const LatchSample& b = latch_samples_.back();
  const std::int64_t diff_delta = b.diff - a.diff;
  return EstimateRemainingIterations(b.diff, diff_delta, record_.latch_cond);
}

LoopTracker::Event LoopTracker::AnalyzeStraightBody(
    const cpu::CpuState& state) {
  (void)state;
  BodySummary body;
  body.start_pc = start_pc_;
  body.latch_pc = latch_pc_;
  RejectReason why = RejectReason::kNone;
  if (!SummarizeTrace(trace2_, trace3_, body, why)) {
    return Reject(LoopClass::kNonVectorizable, why);
  }
  body.has_function_call = has_call_;

  // Latch characterization: sentinel when the compared register is produced
  // by a non-induction body instruction (value only known at runtime).
  const std::set<int> induction = InductionRegs(trace2_);
  bool sentinel = false;
  if (!trace2_.empty()) {
    int cmp_idx = -1;
    for (int i = static_cast<int>(trace2_.size()) - 1; i >= 0; --i) {
      const Opcode op = trace2_[i].ins->op;
      if (op == Opcode::kCmp || op == Opcode::kCmpi) {
        cmp_idx = i;
        break;
      }
    }
    if (cmp_idx >= 0) {
      const RegUse u = UsesOf(*trace2_[cmp_idx].ins);
      for (int i = 0; i < u.n_srcs; ++i) {
        const int s = u.srcs[i];
        if (induction.count(s) != 0) continue;
        for (const Obs& o : trace2_) {
          const RegUse w = UsesOf(*o.ins);
          if (w.dst == s && !IsAffineSelfUpdate(*o.ins)) {
            sentinel = true;
          }
        }
      }
    }
  }

  record_.body = body;
  record_.induction_delta = 0;
  if (latch_samples_.size() >= 2) {
    const LatchSample& s0 = latch_samples_[latch_samples_.size() - 2];
    const LatchSample& s1 = latch_samples_.back();
    record_.latch_diff_delta = s1.diff - s0.diff;
  }

  if (sentinel) {
    if (!cfg_.enable_sentinel_loops) {
      return Reject(LoopClass::kSentinel, RejectReason::kFeatureDisabled);
    }
    const std::uint32_t lanes = body.lanes();
    const auto slice = StopConditionSlice(trace2_);
    record_.body.scalar_per_iter =
        static_cast<std::uint32_t>(slice.size()) + 2;
    record_.speculative_range = lanes;
    const CidpResult dep =
        PredictBodyTraced(record_.body, 3 + lanes, tracer_, latch_pc_);
    if (dep.has_dependency) {
      return Reject(LoopClass::kNonVectorizable,
                    RejectReason::kCrossIterationDep);
    }
    record_.cls = LoopClass::kSentinel;
    finished_ = true;
    CountStage(Stage::kStoreIdExecution);
    CountStage(Stage::kSpeculativeExecution);
    return Event::kReadyToVectorize;
  }

  const std::optional<std::int64_t> remaining = RemainingIterations();
  if (!remaining.has_value()) {
    return Reject(LoopClass::kNonVectorizable, RejectReason::kRangeUnknown);
  }
  const std::int64_t total_iterations = 4 + *remaining;

  const CidpResult dep =
      cfg_.enable_cidp
          ? PredictBodyTraced(record_.body, total_iterations, tracer_,
                              latch_pc_)
          : CidpResult{};  // ablation: only exact-match detection, below
  if (!cfg_.enable_cidp) {
    // Fallback without prediction: compare iteration-3 addresses against
    // the Verification Cache contents; misses future conflicts.
    for (const Obs& o : trace3_) {
      if (o.has_mem && o.mem_is_write && vc_.Contains(o.mem_addr)) {
        return Reject(LoopClass::kNonVectorizable,
                      RejectReason::kCrossIterationDep);
      }
    }
  }

  if (dep.has_dependency) {
    if (cfg_.enable_partial_vectorization && dep.distance >= 2) {
      record_.cls = LoopClass::kPartial;
      record_.dep_distance = dep.distance;
      finished_ = true;
      CountStage(Stage::kStoreIdExecution);
      return Event::kReadyToVectorize;
    }
    return Reject(LoopClass::kNonVectorizable,
                  RejectReason::kCrossIterationDep);
  }

  // A latch comparing against a register holds a runtime-computed limit:
  // a Dynamic Range Loop type A (Fig. 13). The original DSA (Article 1)
  // only handled ranges fixed by an immediate; the extension covers DRLs.
  const bool dynamic_range = !record_.latch_cmp_is_imm;
  if (dynamic_range && !cfg_.enable_dynamic_range_loops) {
    return Reject(LoopClass::kDynamicRange, RejectReason::kFeatureDisabled);
  }
  record_.cls = dynamic_range
                    ? LoopClass::kDynamicRange
                    : (has_call_ ? LoopClass::kFunction : LoopClass::kCount);
  finished_ = true;
  CountStage(Stage::kStoreIdExecution);
  return Event::kReadyToVectorize;
}

LoopTracker::Event LoopTracker::AnalyzeConditionalStep(
    const cpu::CpuState& state) {
  (void)state;
  ++mapping_iterations_;
  if (mapping_iterations_ > 256) {
    return Reject(LoopClass::kConditional, RejectReason::kRangeUnknown);
  }
  if (trace_overflow_) {
    return Reject(LoopClass::kConditional, RejectReason::kTraceOverflow);
  }
  if (saw_inner_loop_) {
    return Reject(LoopClass::kOuter, RejectReason::kContainsInnerLoop);
  }

  std::vector<std::uint32_t> key(cur_pcs_.begin(), cur_pcs_.end());
  if (key.empty()) return Event::kNone;
  PathState& p = paths_[key];
  ++p.seen;
  pcs_seen_union_.insert(cur_pcs_.begin(), cur_pcs_.end());
  if (p.seen == 1) {
    p.first_trace = cur_trace_;
    p.first_seen_iter = iteration_;
    return Event::kNone;
  }
  if (!p.verified) {
    // Second sighting: verify the path (per-iteration strides from the
    // inter-sighting gap, carry-around check) — Fig. 19's per-condition
    // Cross-iteration Dependency Prediction.
    const std::int64_t gap = iteration_ - p.first_seen_iter;
    if (gap <= 0 || p.first_trace.size() != cur_trace_.size()) {
      return Reject(LoopClass::kConditional, RejectReason::kRangeUnknown);
    }
    // Normalize the second trace's addresses to a one-iteration stride by
    // reusing SummarizeTrace on a stride-adjusted copy.
    std::vector<Obs> adj = cur_trace_;
    for (std::size_t i = 0; i < adj.size(); ++i) {
      if (!adj[i].has_mem) continue;
      const std::int64_t d = static_cast<std::int64_t>(adj[i].mem_addr) -
                             p.first_trace[i].mem_addr;
      if (d % gap != 0) {
        return Reject(LoopClass::kConditional, RejectReason::kNonUnitStride);
      }
      adj[i].mem_addr = p.first_trace[i].mem_addr +
                        static_cast<std::uint32_t>(d / gap);
    }
    BodySummary path_body;
    RejectReason why = RejectReason::kNone;
    if (!SummarizeTrace(p.first_trace, adj, path_body, why,
                        /*require_store=*/false)) {
      return Reject(LoopClass::kConditional, why);
    }
    p.verified = true;
  }

  // Finalize once all body pcs were covered and all seen paths verified
  // (Fig. 19: no pending conditions). The latch itself is not part of any
  // path trace.
  for (std::uint32_t pc = start_pc_; pc < latch_pc_; ++pc) {
    if (pcs_seen_union_.count(pc) == 0) return Event::kNone;
  }
  for (const auto& [k, path] : paths_) {
    if (!path.verified) return Event::kNone;
  }

  return FinalizeConditional();
}

LoopTracker::Event LoopTracker::FinalizeConditional() {
  // Intersection of all paths = the always-executed portion of the body.
  std::set<std::uint32_t> inter;
  bool first = true;
  for (const auto& [key, path] : paths_) {
    std::set<std::uint32_t> pcs(key.begin(), key.end());
    if (first) {
      inter = pcs;
      first = false;
    } else {
      std::set<std::uint32_t> tmp;
      std::set_intersection(inter.begin(), inter.end(), pcs.begin(),
                            pcs.end(), std::inserter(tmp, tmp.begin()));
      inter = tmp;
    }
  }

  const std::optional<std::int64_t> remaining = RemainingIterations();
  if (!remaining.has_value()) {
    return Reject(LoopClass::kConditional, RejectReason::kRangeUnknown);
  }

  // Merge: common streams/ops from the intersection of one reference path;
  // per-path exclusive portions become CondRegions with their own budgets.
  BodySummary body;
  body.start_pc = start_pc_;
  body.latch_pc = latch_pc_;
  body.scalar_per_iter = 4;  // condition evaluation chain + latch
  std::uint32_t elem_bytes = 0;
  std::vector<MemStream> all_streams;
  bool body_filled = false;

  for (const auto& [key, path] : paths_) {
    CondRegion region;
    region.first_pc = 0;
    bool has_exclusive = false;
    for (const Obs& o : path.first_trace) {
      const bool common = inter.count(o.pc) != 0;
      if (!common && region.first_pc == 0) {
        region.first_pc = o.pc;
        has_exclusive = true;
      }
      if (!common) region.last_pc = std::max(region.last_pc, o.pc);

      if (o.has_mem) {
        MemStream s;
        s.pc = o.pc;
        s.is_write = o.mem_is_write;
        s.elem_bytes = o.mem_bytes;
        s.addr_reg = o.ins->rn;
        s.addr_offset = o.ins->imm;
        s.stride = o.mem_bytes;  // verified unit stride during path check
        // Normalize the base to iteration 2 so streams captured in
        // different iterations compare correctly under CIDP.
        s.base_addr = o.mem_addr - static_cast<std::uint32_t>(
                                       s.stride * (path.first_seen_iter - 2));
        all_streams.push_back(s);
        if (elem_bytes == 0) elem_bytes = o.mem_bytes;
        if (!common) ++region.mem_streams;
        if (common && !body_filled) {
          (s.is_write ? body.stores : body.loads).push_back(s);
        }
      } else if (o.ins->cls() == isa::InstrClass::kIntAlu ||
                 o.ins->cls() == isa::InstrClass::kFpAlu) {
        const int kind = VectorOpKind(*o.ins);
        if (kind < 0) {
          return Reject(LoopClass::kConditional, RejectReason::kUnsupportedOp);
        }
        if (kind == 2 || IsAffineSelfUpdate(*o.ins)) continue;
        if (!common) {
          ++region.vector_ops;
        } else if (!body_filled) {
          if (kind == 1) {
            ++body.mul_ops;
          } else {
            ++body.alu_ops;
          }
        }
      }
    }
    if (has_exclusive) {
      if (region.vector_ops + region.mem_streams >
          cfg_.array_maps + 4) {
        return Reject(LoopClass::kConditional, RejectReason::kNoArrayMapsLeft);
      }
      body.conditions.push_back(region);
    }
    body.body_instrs = std::max<std::uint32_t>(
        body.body_instrs, static_cast<std::uint32_t>(path.first_trace.size()) + 1);
    body_filled = true;
  }

  body.vec_type = elem_bytes == 1 ? isa::VecType::kI8
                                  : (elem_bytes == 2 ? isa::VecType::kI16
                                                     : isa::VecType::kI32);

  // Whole-body dependency prediction over all streams (Fig. 20 stores the
  // loop as non-vectorizable in the DSA Cache on a dependency).
  const std::int64_t total_iterations = iteration_ + 1 + *remaining;
  BodySummary dep_view = body;
  dep_view.loads.clear();
  dep_view.stores.clear();
  for (const MemStream& s : all_streams) {
    (s.is_write ? dep_view.stores : dep_view.loads).push_back(s);
  }
  if (cfg_.enable_cidp &&
      PredictBodyTraced(dep_view, total_iterations, tracer_, latch_pc_)
          .has_dependency) {
    return Reject(LoopClass::kConditional, RejectReason::kCrossIterationDep);
  }

  if (latch_samples_.size() >= 2) {
    const LatchSample& s0 = latch_samples_[latch_samples_.size() - 2];
    const LatchSample& s1 = latch_samples_.back();
    record_.latch_diff_delta = s1.diff - s0.diff;
  }
  record_.body = body;
  record_.cls = LoopClass::kConditional;
  finished_ = true;
  CountStage(Stage::kStoreIdExecution);
  CountStage(Stage::kSpeculativeExecution);
  return Event::kReadyToVectorize;
}

bool LoopTracker::FusableAround(std::uint32_t inner_start,
                                std::uint32_t inner_latch) const {
  if (cur_trace_.empty() && trace2_.empty()) return false;
  auto glue_ok = [&](const std::vector<Obs>& trace) {
    for (const Obs& o : trace) {
      if (o.pc >= inner_start && o.pc <= inner_latch) continue;
      if (o.mem_is_write) return false;  // stores between the loops
      if (o.ins->op == Opcode::kBl || o.ins->op == Opcode::kRet) return false;
    }
    return true;
  };
  return glue_ok(cur_trace_) && glue_ok(trace2_);
}

}  // namespace dsa::engine
