#include "engine/simd_gen.h"

#include <map>

#include "prog/assembler.h"

namespace dsa::engine {

using isa::Instruction;
using isa::Opcode;
using isa::VecType;

namespace {

bool Fail(SimdGenError* error, const std::string& why) {
  if (error != nullptr) error->reason = why;
  return false;
}

// Maps a scalar ALU opcode onto its vector lane opcode.
std::optional<Opcode> VectorOpFor(Opcode op) {
  switch (op) {
    case Opcode::kAdd:
    case Opcode::kAddi:
      return Opcode::kVadd;
    case Opcode::kSub:
    case Opcode::kSubi:
    case Opcode::kRsb:
      return Opcode::kVsub;
    case Opcode::kMul:
      return Opcode::kVmul;
    case Opcode::kMla:
      return Opcode::kVmla;
    case Opcode::kAnd:
    case Opcode::kAndi:
      return Opcode::kVand;
    case Opcode::kOrr:
      return Opcode::kVorr;
    case Opcode::kEor:
      return Opcode::kVeor;
    case Opcode::kMin:
      return Opcode::kVmin;
    case Opcode::kMax:
      return Opcode::kVmax;
    case Opcode::kFadd:
      return Opcode::kVadd;
    case Opcode::kFsub:
      return Opcode::kVsub;
    case Opcode::kFmul:
      return Opcode::kVmul;
    default:
      return std::nullopt;
  }
}

class Generator {
 public:
  Generator(const BodySummary& body,
            const std::array<std::uint32_t, isa::kNumScalarRegs>& regs,
            std::vector<int> scratch)
      : body_(body), regs_(regs), scratch_(std::move(scratch)) {}

  bool Run(SimdProgram& out, SimdGenError* error) {
    out.type = body_.vec_type;
    // q1..q7 for loaded streams, q8..q15 for results and broadcasts.
    next_load_q_ = 1;
    next_tmp_q_ = 8;

    std::size_t load_idx = 0;
    std::size_t store_idx = 0;
    for (const Instruction& ins : body_.code) {
      switch (ins.cls()) {
        case isa::InstrClass::kMemRead: {
          if (load_idx >= body_.loads.size()) {
            return Fail(error, "load stream mismatch");
          }
          const MemStream& s = body_.loads[load_idx++];
          if (s.loop_invariant) {
            // Invariant load: its value already sits in the destination
            // register at takeover; broadcast it.
            const int q = AllocTmp();
            if (q < 0) return Fail(error, "out of vector registers");
            Emit(out.setup, MakeVdup(q, ins.rd));
            value_q_[ins.rd] = q;
            break;
          }
          if (next_load_q_ > 7) return Fail(error, "too many load streams");
          const int q = next_load_q_++;
          const int base = StreamBase(out, s, error);
          if (base < 0) return false;
          Instruction v;
          v.op = Opcode::kVld1;
          v.vt = body_.vec_type;
          v.rd = q;
          v.rn = base;
          v.post_inc = ins.post_inc != 0 ? 16 : 0;
          out.chunk.push_back(v);
          value_q_[ins.rd] = q;
          break;
        }
        case isa::InstrClass::kMemWrite: {
          if (store_idx >= body_.stores.size()) {
            return Fail(error, "store stream mismatch");
          }
          const MemStream& s = body_.stores[store_idx++];
          const auto it = value_q_.find(ins.rd);
          if (it == value_q_.end()) {
            // Storing a loop-invariant scalar (e.g. memset): broadcast it.
            const int q = AllocTmp();
            if (q < 0) return Fail(error, "out of vector registers");
            Emit(out.setup, MakeVdup(q, ins.rd));
            value_q_[ins.rd] = q;
          }
          const int base = StreamBase(out, s, error);
          if (base < 0) return false;
          Instruction v;
          v.op = Opcode::kVst1;
          v.vt = body_.vec_type;
          v.rd = value_q_[ins.rd];
          v.rn = base;
          v.post_inc = ins.post_inc != 0 ? 16 : 0;
          out.chunk.push_back(v);
          break;
        }
        case isa::InstrClass::kIntAlu:
        case isa::InstrClass::kFpAlu: {
          if (!EmitAlu(out, ins, error)) return false;
          break;
        }
        default:
          return Fail(error, "unexpected instruction class in body code");
      }
    }
    return true;
  }

 private:
  static Instruction MakeVdup(int qd, int rn) {
    Instruction v;
    v.op = Opcode::kVdup;
    v.rd = qd;
    v.rn = rn;
    return v;
  }

  void Emit(std::vector<Instruction>& where, Instruction v) {
    v.vt = body_.vec_type;
    where.push_back(v);
  }

  int AllocTmp() { return next_tmp_q_ <= 15 ? next_tmp_q_++ : -1; }

  int AllocScratch() {
    if (scratch_.empty()) return -1;
    const int r = scratch_.back();
    scratch_.pop_back();
    return r;
  }

  // Returns the scalar register holding this stream's running address; for
  // offset streams a scratch register is initialized in the setup code.
  int StreamBase(SimdProgram& out, const MemStream& s, SimdGenError* error) {
    if (s.addr_offset == 0) return s.addr_reg;
    const auto key = std::make_pair(s.addr_reg, s.addr_offset);
    const auto it = offset_base_.find(key);
    if (it != offset_base_.end()) return it->second;
    const int r = AllocScratch();
    if (r < 0) {
      Fail(error, "no scratch register for offset stream");
      return -1;
    }
    out.setup.push_back(
        isa::MakeAluImm(Opcode::kAddi, r, s.addr_reg, s.addr_offset));
    offset_base_[key] = r;
    return r;
  }

  // Vector register holding a source operand: a mapped value, or a
  // broadcast of the (invariant) scalar register's runtime value.
  int SourceQ(SimdProgram& out, int scalar_reg) {
    const auto it = value_q_.find(scalar_reg);
    if (it != value_q_.end()) return it->second;
    const auto bit = broadcast_q_.find(scalar_reg);
    if (bit != broadcast_q_.end()) return bit->second;
    const int q = AllocTmp();
    if (q < 0) return -1;
    Emit(out.setup, MakeVdup(q, scalar_reg));
    broadcast_q_[scalar_reg] = q;
    return q;
  }

  // Broadcast of an immediate constant, materialized through a scratch
  // scalar register in the setup code.
  int ConstQ(SimdProgram& out, std::int32_t value) {
    const auto it = const_q_.find(value);
    if (it != const_q_.end()) return it->second;
    const int r = AllocScratch();
    const int q = AllocTmp();
    if (r < 0 || q < 0) return -1;
    out.setup.push_back(isa::MakeMovi(r, value));
    Emit(out.setup, MakeVdup(q, r));
    const_q_[value] = q;
    return q;
  }

  bool EmitAlu(SimdProgram& out, const Instruction& ins, SimdGenError* error) {
    if (ins.op == Opcode::kMov) {
      const int q = SourceQ(out, ins.rm);
      if (q < 0) return Fail(error, "out of vector registers");
      value_q_[ins.rd] = q;  // pure renaming
      return true;
    }
    // Shifts: the amount is a runtime-invariant scalar, baked in as an
    // immediate (the DSA generates code at runtime, Fig. 25).
    if (ins.op == Opcode::kLsl || ins.op == Opcode::kLsr) {
      const int qa = SourceQ(out, ins.rn);
      const int qd = AllocTmp();
      if (qa < 0 || qd < 0) return Fail(error, "out of vector registers");
      Instruction v;
      v.op = ins.op == Opcode::kLsl ? Opcode::kVshl : Opcode::kVshr;
      v.rd = qd;
      v.rn = qa;
      v.imm = static_cast<std::int32_t>(regs_[ins.rm] & 31);
      Emit(out.chunk, v);
      value_q_[ins.rd] = qd;
      return true;
    }
    if (ins.op == Opcode::kAsr) {
      return Fail(error, "arithmetic shift has no logical-lane equivalent");
    }

    const std::optional<Opcode> vop = VectorOpFor(ins.op);
    if (!vop.has_value()) return Fail(error, "unsupported scalar op");

    const bool imm_form = ins.op == Opcode::kAddi || ins.op == Opcode::kSubi ||
                          ins.op == Opcode::kAndi || ins.op == Opcode::kRsb;
    const int qa = SourceQ(out, ins.rn);
    const int qb = imm_form ? ConstQ(out, ins.imm) : SourceQ(out, ins.rm);
    if (qa < 0 || qb < 0) return Fail(error, "out of vector registers");

    const int qd = AllocTmp();
    if (qd < 0) return Fail(error, "out of vector registers");
    Instruction v;
    v.op = *vop;
    v.rd = qd;
    if (ins.op == Opcode::kRsb) {  // imm - rn
      v.rn = qb;
      v.rm = qa;
    } else {
      v.rn = qa;
      v.rm = qb;
    }
    if (ins.op == Opcode::kMla) {
      // qd = qd + qn*qm: seed the accumulator by copying it in.
      const int qacc = SourceQ(out, ins.ra);
      if (qacc < 0) return Fail(error, "out of vector registers");
      Instruction cp;
      cp.op = Opcode::kVorr;
      cp.rd = qd;
      cp.rn = qacc;
      cp.rm = qacc;
      Emit(out.chunk, cp);
      v.ra = qd;
    }
    Emit(out.chunk, v);
    value_q_[ins.rd] = qd;
    return true;
  }

  const BodySummary& body_;
  const std::array<std::uint32_t, isa::kNumScalarRegs>& regs_;
  std::vector<int> scratch_;
  int next_load_q_ = 1;
  int next_tmp_q_ = 8;
  std::map<int, int> value_q_;      // scalar reg -> q holding its vector
  std::map<int, int> broadcast_q_;  // invariant scalar reg -> q
  std::map<std::int32_t, int> const_q_;
  std::map<std::pair<int, std::int32_t>, int> offset_base_;
};

}  // namespace

prog::Program SimdProgram::AsLoop(int count_reg) const {
  prog::Assembler as;
  for (const Instruction& i : setup) as.Emit(i);
  const auto top = as.NewLabel();
  const auto end = as.NewLabel();
  as.Bind(top);
  as.Cmpi(count_reg, lanes());
  as.B(isa::Cond::kLt, end);
  for (const Instruction& i : chunk) as.Emit(i);
  as.AluImm(Opcode::kSubi, count_reg, count_reg, lanes());
  as.B(isa::Cond::kAl, top);
  as.Bind(end);
  as.Halt();
  return as.Finish();
}

std::optional<SimdProgram> GenerateSimd(
    const BodySummary& body,
    const std::array<std::uint32_t, isa::kNumScalarRegs>& regs,
    std::vector<int> scratch_regs, SimdGenError* error) {
  if (!body.conditions.empty()) {
    if (error != nullptr) {
      error->reason = "conditional bodies use the mapping datapath";
    }
    return std::nullopt;
  }
  SimdProgram out;
  Generator gen(body, regs, std::move(scratch_regs));
  if (!gen.Run(out, error)) return std::nullopt;
  // A body that lowers to no vector instruction (empty, or pure register
  // renames) would "vectorize" into a loop that only counts down.
  if (out.chunk.empty()) {
    if (error != nullptr) error->reason = "body emits no vector instruction";
    return std::nullopt;
  }
  return out;
}

}  // namespace dsa::engine
