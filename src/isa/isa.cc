#include "isa/instruction.h"
#include "isa/opcode.h"

#include <sstream>

namespace dsa::isa {

std::string_view ToString(Opcode op) {
  switch (op) {
    case Opcode::kLdr: return "ldr";
    case Opcode::kLdrh: return "ldrh";
    case Opcode::kLdrb: return "ldrb";
    case Opcode::kStr: return "str";
    case Opcode::kStrh: return "strh";
    case Opcode::kStrb: return "strb";
    case Opcode::kMov: return "mov";
    case Opcode::kMovi: return "movi";
    case Opcode::kAdd: return "add";
    case Opcode::kAddi: return "addi";
    case Opcode::kSub: return "sub";
    case Opcode::kSubi: return "subi";
    case Opcode::kRsb: return "rsb";
    case Opcode::kMul: return "mul";
    case Opcode::kMla: return "mla";
    case Opcode::kSdiv: return "sdiv";
    case Opcode::kAnd: return "and";
    case Opcode::kAndi: return "andi";
    case Opcode::kOrr: return "orr";
    case Opcode::kEor: return "eor";
    case Opcode::kBic: return "bic";
    case Opcode::kLsl: return "lsl";
    case Opcode::kLsr: return "lsr";
    case Opcode::kAsr: return "asr";
    case Opcode::kMin: return "min";
    case Opcode::kMax: return "max";
    case Opcode::kFadd: return "fadd";
    case Opcode::kFsub: return "fsub";
    case Opcode::kFmul: return "fmul";
    case Opcode::kFdiv: return "fdiv";
    case Opcode::kCmp: return "cmp";
    case Opcode::kCmpi: return "cmpi";
    case Opcode::kB: return "b";
    case Opcode::kBl: return "bl";
    case Opcode::kRet: return "ret";
    case Opcode::kNop: return "nop";
    case Opcode::kHalt: return "halt";
    case Opcode::kVld1: return "vld1";
    case Opcode::kVst1: return "vst1";
    case Opcode::kVldLane: return "vld.lane";
    case Opcode::kVstLane: return "vst.lane";
    case Opcode::kVdup: return "vdup";
    case Opcode::kVadd: return "vadd";
    case Opcode::kVsub: return "vsub";
    case Opcode::kVmul: return "vmul";
    case Opcode::kVmla: return "vmla";
    case Opcode::kVmin: return "vmin";
    case Opcode::kVmax: return "vmax";
    case Opcode::kVand: return "vand";
    case Opcode::kVorr: return "vorr";
    case Opcode::kVeor: return "veor";
    case Opcode::kVshl: return "vshl";
    case Opcode::kVshr: return "vshr";
    case Opcode::kVcge: return "vcge";
    case Opcode::kVcgt: return "vcgt";
    case Opcode::kVceq: return "vceq";
    case Opcode::kVbsl: return "vbsl";
    case Opcode::kVmovToScalar: return "vmov.s";
    case Opcode::kVmovFromScalar: return "vmov.v";
  }
  return "?";
}

std::string_view ToString(Cond c) {
  switch (c) {
    case Cond::kAl: return "";
    case Cond::kEq: return "eq";
    case Cond::kNe: return "ne";
    case Cond::kLt: return "lt";
    case Cond::kGe: return "ge";
    case Cond::kGt: return "gt";
    case Cond::kLe: return "le";
  }
  return "?";
}

std::string_view ToString(VecType t) {
  switch (t) {
    case VecType::kI8: return ".i8";
    case VecType::kI16: return ".i16";
    case VecType::kI32: return ".i32";
    case VecType::kF32: return ".f32";
  }
  return "?";
}

std::string_view ToString(InstrClass c) {
  switch (c) {
    case InstrClass::kMemRead: return "mem-read";
    case InstrClass::kMemWrite: return "mem-write";
    case InstrClass::kIntAlu: return "int-alu";
    case InstrClass::kFpAlu: return "fp-alu";
    case InstrClass::kCompare: return "compare";
    case InstrClass::kBranch: return "branch";
    case InstrClass::kCall: return "call";
    case InstrClass::kRet: return "ret";
    case InstrClass::kVecMem: return "vec-mem";
    case InstrClass::kVecAlu: return "vec-alu";
    case InstrClass::kMisc: return "misc";
  }
  return "?";
}

InstrClass ClassOf(Opcode op) {
  switch (op) {
    case Opcode::kLdr:
    case Opcode::kLdrh:
    case Opcode::kLdrb:
      return InstrClass::kMemRead;
    case Opcode::kStr:
    case Opcode::kStrh:
    case Opcode::kStrb:
      return InstrClass::kMemWrite;
    case Opcode::kFadd:
    case Opcode::kFsub:
    case Opcode::kFmul:
    case Opcode::kFdiv:
      return InstrClass::kFpAlu;
    case Opcode::kCmp:
    case Opcode::kCmpi:
      return InstrClass::kCompare;
    case Opcode::kB:
      return InstrClass::kBranch;
    case Opcode::kBl:
      return InstrClass::kCall;
    case Opcode::kRet:
      return InstrClass::kRet;
    case Opcode::kVld1:
    case Opcode::kVst1:
    case Opcode::kVldLane:
    case Opcode::kVstLane:
      return InstrClass::kVecMem;
    case Opcode::kVdup:
    case Opcode::kVadd:
    case Opcode::kVsub:
    case Opcode::kVmul:
    case Opcode::kVmla:
    case Opcode::kVmin:
    case Opcode::kVmax:
    case Opcode::kVand:
    case Opcode::kVorr:
    case Opcode::kVeor:
    case Opcode::kVshl:
    case Opcode::kVshr:
    case Opcode::kVcge:
    case Opcode::kVcgt:
    case Opcode::kVceq:
    case Opcode::kVbsl:
    case Opcode::kVmovToScalar:
    case Opcode::kVmovFromScalar:
      return InstrClass::kVecAlu;
    case Opcode::kNop:
    case Opcode::kHalt:
      return InstrClass::kMisc;
    default:
      return InstrClass::kIntAlu;
  }
}

bool IsVector(Opcode op) {
  const InstrClass c = ClassOf(op);
  return c == InstrClass::kVecMem || c == InstrClass::kVecAlu;
}

bool IsMemAccess(Opcode op) {
  const InstrClass c = ClassOf(op);
  return c == InstrClass::kMemRead || c == InstrClass::kMemWrite ||
         c == InstrClass::kVecMem;
}

bool IsStore(Opcode op) {
  return ClassOf(op) == InstrClass::kMemWrite || op == Opcode::kVst1 ||
         op == Opcode::kVstLane;
}

std::string Instruction::ToAsm() const {
  std::ostringstream os;
  os << ToString(op);
  if (op == Opcode::kNop || op == Opcode::kHalt || op == Opcode::kRet) {
    return os.str();
  }
  if (op == Opcode::kB) os << std::string(isa::ToString(cond));
  if (IsVector(op)) os << std::string(isa::ToString(vt));
  os << ' ';
  const char r = IsVector(op) ? 'q' : 'r';
  switch (cls()) {
    case InstrClass::kMemRead:
      os << r << rd << ", [r" << rn;
      if (imm != 0) os << ", #" << imm;
      os << ']';
      if (post_inc != 0) os << ", #" << post_inc;
      break;
    case InstrClass::kMemWrite:
      os << r << rd << ", [r" << rn;
      if (imm != 0) os << ", #" << imm;
      os << ']';
      if (post_inc != 0) os << ", #" << post_inc;
      break;
    case InstrClass::kVecMem:
      os << 'q' << rd << ", [r" << rn << ']';
      if (post_inc != 0) os << '!';
      break;
    case InstrClass::kBranch:
      os << "#" << imm;
      break;
    case InstrClass::kCall:
      os << "#" << imm;
      break;
    case InstrClass::kCompare:
      if (op == Opcode::kCmpi) {
        os << 'r' << rn << ", #" << imm;
      } else {
        os << 'r' << rn << ", r" << rm;
      }
      break;
    default:
      if (op == Opcode::kMovi) {
        os << 'r' << rd << ", #" << imm;
      } else if (op == Opcode::kMov) {
        os << 'r' << rd << ", r" << rm;
      } else if (op == Opcode::kAddi || op == Opcode::kSubi ||
                 op == Opcode::kAndi || op == Opcode::kRsb) {
        os << r << rd << ", " << r << rn << ", #" << imm;
      } else if (op == Opcode::kVdup) {
        os << 'q' << rd << ", r" << rn;
      } else if (op == Opcode::kVshl || op == Opcode::kVshr) {
        os << 'q' << rd << ", q" << rn << ", #" << imm;
      } else if (op == Opcode::kVmovToScalar) {
        os << 'r' << rd << ", q" << rn << '[' << imm << ']';
      } else if (op == Opcode::kVmovFromScalar) {
        os << 'q' << rd << '[' << imm << "], r" << rn;
      } else if (op == Opcode::kMla || op == Opcode::kVmla) {
        os << r << rd << ", " << r << rn << ", " << r << rm << ", " << r << ra;
      } else {
        os << r << rd << ", " << r << rn << ", " << r << rm;
      }
      break;
  }
  return os.str();
}

Instruction MakeLoad(Opcode op, int rd, int rn, std::int32_t post_inc,
                     std::int32_t offset) {
  Instruction i;
  i.op = op;
  i.rd = rd;
  i.rn = rn;
  i.post_inc = post_inc;
  i.imm = offset;
  return i;
}

Instruction MakeStore(Opcode op, int rd, int rn, std::int32_t post_inc,
                      std::int32_t offset) {
  return MakeLoad(op, rd, rn, post_inc, offset);
}

Instruction MakeAlu(Opcode op, int rd, int rn, int rm) {
  Instruction i;
  i.op = op;
  i.rd = rd;
  i.rn = rn;
  i.rm = rm;
  return i;
}

Instruction MakeAluImm(Opcode op, int rd, int rn, std::int32_t imm) {
  Instruction i;
  i.op = op;
  i.rd = rd;
  i.rn = rn;
  i.imm = imm;
  return i;
}

Instruction MakeMovi(int rd, std::int32_t imm) {
  Instruction i;
  i.op = Opcode::kMovi;
  i.rd = rd;
  i.imm = imm;
  return i;
}

Instruction MakeCmp(int rn, int rm) {
  Instruction i;
  i.op = Opcode::kCmp;
  i.rn = rn;
  i.rm = rm;
  return i;
}

Instruction MakeCmpi(int rn, std::int32_t imm) {
  Instruction i;
  i.op = Opcode::kCmpi;
  i.rn = rn;
  i.imm = imm;
  return i;
}

Instruction MakeBranch(Cond c, std::int32_t target_pc) {
  Instruction i;
  i.op = Opcode::kB;
  i.cond = c;
  i.imm = target_pc;
  return i;
}

Instruction MakeHalt() {
  Instruction i;
  i.op = Opcode::kHalt;
  return i;
}

}  // namespace dsa::isa
