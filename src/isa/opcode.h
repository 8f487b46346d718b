// Scalar + vector opcode definitions for the ARM-like mini ISA used by the
// DSA reproduction. The scalar subset models the ARMv7-A instructions the
// DSA observes (loads/stores with post-increment, ALU ops, compare,
// conditional branches, call/return); the vector subset models the NEON
// instructions the DSA *generates* (vld1/vst1, typed lane arithmetic,
// bitwise-select for conditional loops, per-lane element access for
// leftover handling).
#pragma once

#include <cstdint>
#include <string_view>

namespace dsa::isa {

enum class Opcode : std::uint8_t {
  // --- scalar memory ---
  kLdr,    // load word          rd <- mem32[rn (+imm)] ; optional post-inc
  kLdrh,   // load halfword (zero-extended)
  kLdrb,   // load byte (zero-extended)
  kStr,    // store word
  kStrh,   // store halfword
  kStrb,   // store byte
  // --- scalar ALU (integer) ---
  kMov,    // rd <- rm
  kMovi,   // rd <- imm
  kAdd,    // rd <- rn + rm
  kAddi,   // rd <- rn + imm
  kSub,    // rd <- rn - rm
  kSubi,   // rd <- rn - imm
  kRsb,    // rd <- imm - rn   (reverse subtract)
  kMul,    // rd <- rn * rm
  kMla,    // rd <- rn * rm + ra
  kSdiv,   // rd <- rn / rm (signed; 0 if rm==0)
  kAnd,    // rd <- rn & rm
  kAndi,   // rd <- rn & imm
  kOrr,    // rd <- rn | rm
  kEor,    // rd <- rn ^ rm
  kBic,    // rd <- rn & ~rm
  kLsl,    // rd <- rn << (rm or imm)
  kLsr,    // rd <- rn >> (rm or imm), logical
  kAsr,    // rd <- rn >> (rm or imm), arithmetic
  kMin,    // rd <- min(rn, rm) signed (models cmp+csel idiom as one op)
  kMax,    // rd <- max(rn, rm) signed
  // --- scalar ALU (float32 held in scalar regs, models VFP single) ---
  kFadd,
  kFsub,
  kFmul,
  kFdiv,
  // --- compare / control flow ---
  kCmp,    // flags <- rn - rm
  kCmpi,   // flags <- rn - imm
  kB,      // conditional / unconditional branch to label (imm = target pc)
  kBl,     // branch with link (call): lr <- pc+1
  kRet,    // pc <- lr
  kNop,
  kHalt,
  // --- vector (NEON-like, 128-bit Q registers) ---
  kVld1,   // qd <- mem[rn], 16 bytes; post-inc rn by 16 when writeback
  kVst1,   // mem[rn] <- qd, 16 bytes; post-inc
  kVldLane,// qd.lane[imm] <- mem[rn] (element-sized), post-inc by elem size
  kVstLane,// mem[rn] <- qd.lane[imm], post-inc
  kVdup,   // qd lanes <- rn (broadcast scalar)
  kVadd,   // qd <- qn + qm (typed lanes)
  kVsub,
  kVmul,
  kVmla,   // qd <- qd + qn*qm
  kVmin,
  kVmax,
  kVand,
  kVorr,
  kVeor,
  kVshl,   // lane shift left by imm
  kVshr,   // lane shift right by imm (logical for unsigned types)
  kVcge,   // lane mask: qd <- (qn >= qm) ? ~0 : 0
  kVcgt,   // lane mask: greater-than
  kVceq,   // lane mask: equal
  kVbsl,   // bitwise select: qd <- (qd & qn) | (~qd & qm)
  kVmovToScalar,   // rd <- qn.lane[imm]
  kVmovFromScalar, // qd.lane[imm] <- rn
};

// Condition codes attached to branches (subset of ARM condition field).
enum class Cond : std::uint8_t {
  kAl,  // always
  kEq,
  kNe,
  kLt,  // signed less-than
  kGe,
  kGt,
  kLe,
};

// Lane type of a vector operation: determines lane count in a 128-bit
// register (16/8/4 lanes) and lane arithmetic.
enum class VecType : std::uint8_t {
  kI8,   // 16 lanes
  kI16,  // 8 lanes
  kI32,  // 4 lanes
  kF32,  // 4 lanes, float
};

// Broad classes the timing model and the DSA observer care about.
enum class InstrClass : std::uint8_t {
  kMemRead,
  kMemWrite,
  kIntAlu,
  kFpAlu,
  kCompare,
  kBranch,
  kCall,
  kRet,
  kVecMem,
  kVecAlu,
  kMisc,
};

[[nodiscard]] std::string_view ToString(Opcode op);
[[nodiscard]] std::string_view ToString(Cond c);
[[nodiscard]] std::string_view ToString(VecType t);
[[nodiscard]] std::string_view ToString(InstrClass c);

[[nodiscard]] InstrClass ClassOf(Opcode op);
[[nodiscard]] bool IsVector(Opcode op);
[[nodiscard]] bool IsMemAccess(Opcode op);
// Writes memory: the scalar stores, vst1 and the lane store.
[[nodiscard]] bool IsStore(Opcode op);

// Number of lanes a 128-bit register holds for a lane type.
[[nodiscard]] constexpr int LaneCount(VecType t) {
  switch (t) {
    case VecType::kI8: return 16;
    case VecType::kI16: return 8;
    default: return 4;
  }
}

// Size in bytes of one lane.
[[nodiscard]] constexpr int LaneBytes(VecType t) {
  switch (t) {
    case VecType::kI8: return 1;
    case VecType::kI16: return 2;
    default: return 4;
  }
}

}  // namespace dsa::isa
