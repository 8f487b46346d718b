#include <gtest/gtest.h>

#include "isa/instruction.h"
#include "isa/opcode.h"

namespace dsa::isa {
namespace {

TEST(LaneCount, MatchesNeonWidths) {
  EXPECT_EQ(LaneCount(VecType::kI8), 16);
  EXPECT_EQ(LaneCount(VecType::kI16), 8);
  EXPECT_EQ(LaneCount(VecType::kI32), 4);
  EXPECT_EQ(LaneCount(VecType::kF32), 4);
}

TEST(LaneBytes, TimesLanesIs16Bytes) {
  for (const VecType t :
       {VecType::kI8, VecType::kI16, VecType::kI32, VecType::kF32}) {
    EXPECT_EQ(LaneBytes(t) * LaneCount(t), 16) << ToString(t);
  }
}

TEST(ClassOf, MemoryOpcodes) {
  EXPECT_EQ(ClassOf(Opcode::kLdr), InstrClass::kMemRead);
  EXPECT_EQ(ClassOf(Opcode::kLdrh), InstrClass::kMemRead);
  EXPECT_EQ(ClassOf(Opcode::kLdrb), InstrClass::kMemRead);
  EXPECT_EQ(ClassOf(Opcode::kStr), InstrClass::kMemWrite);
  EXPECT_EQ(ClassOf(Opcode::kStrh), InstrClass::kMemWrite);
  EXPECT_EQ(ClassOf(Opcode::kStrb), InstrClass::kMemWrite);
}

TEST(ClassOf, ControlFlow) {
  EXPECT_EQ(ClassOf(Opcode::kB), InstrClass::kBranch);
  EXPECT_EQ(ClassOf(Opcode::kBl), InstrClass::kCall);
  EXPECT_EQ(ClassOf(Opcode::kRet), InstrClass::kRet);
  EXPECT_EQ(ClassOf(Opcode::kCmp), InstrClass::kCompare);
  EXPECT_EQ(ClassOf(Opcode::kCmpi), InstrClass::kCompare);
}

TEST(ClassOf, FloatOpsAreFpAlu) {
  for (const Opcode op :
       {Opcode::kFadd, Opcode::kFsub, Opcode::kFmul, Opcode::kFdiv}) {
    EXPECT_EQ(ClassOf(op), InstrClass::kFpAlu);
  }
}

class AllOpcodes : public ::testing::TestWithParam<Opcode> {};

TEST_P(AllOpcodes, HasNonEmptyMnemonic) {
  EXPECT_FALSE(ToString(GetParam()).empty());
  EXPECT_NE(ToString(GetParam()), "?");
}

TEST_P(AllOpcodes, VectorFlagConsistentWithClass) {
  const Opcode op = GetParam();
  const InstrClass c = ClassOf(op);
  const bool vec_class =
      c == InstrClass::kVecMem || c == InstrClass::kVecAlu;
  EXPECT_EQ(IsVector(op), vec_class) << ToString(op);
}

TEST_P(AllOpcodes, MemAccessFlagConsistentWithClass) {
  const Opcode op = GetParam();
  const InstrClass c = ClassOf(op);
  const bool mem_class = c == InstrClass::kMemRead ||
                         c == InstrClass::kMemWrite ||
                         c == InstrClass::kVecMem;
  EXPECT_EQ(IsMemAccess(op), mem_class) << ToString(op);
}

TEST_P(AllOpcodes, StoreFlagIsTheFiveStoreOpcodes) {
  const Opcode op = GetParam();
  const bool store = op == Opcode::kStr || op == Opcode::kStrh ||
                     op == Opcode::kStrb || op == Opcode::kVst1 ||
                     op == Opcode::kVstLane;
  EXPECT_EQ(IsStore(op), store) << ToString(op);
  if (store) {
    EXPECT_TRUE(IsMemAccess(op)) << ToString(op);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllOpcodes,
    ::testing::Values(
        Opcode::kLdr, Opcode::kLdrh, Opcode::kLdrb, Opcode::kStr,
        Opcode::kStrh, Opcode::kStrb, Opcode::kMov, Opcode::kMovi,
        Opcode::kAdd, Opcode::kAddi, Opcode::kSub, Opcode::kSubi,
        Opcode::kRsb, Opcode::kMul, Opcode::kMla, Opcode::kSdiv,
        Opcode::kAnd, Opcode::kAndi, Opcode::kOrr, Opcode::kEor,
        Opcode::kBic, Opcode::kLsl, Opcode::kLsr, Opcode::kAsr,
        Opcode::kMin, Opcode::kMax, Opcode::kFadd, Opcode::kFsub,
        Opcode::kFmul, Opcode::kFdiv, Opcode::kCmp, Opcode::kCmpi,
        Opcode::kB, Opcode::kBl, Opcode::kRet, Opcode::kNop, Opcode::kHalt,
        Opcode::kVld1, Opcode::kVst1, Opcode::kVldLane, Opcode::kVstLane,
        Opcode::kVdup, Opcode::kVadd, Opcode::kVsub, Opcode::kVmul,
        Opcode::kVmla, Opcode::kVmin, Opcode::kVmax, Opcode::kVand,
        Opcode::kVorr, Opcode::kVeor, Opcode::kVshl, Opcode::kVshr,
        Opcode::kVcge, Opcode::kVcgt, Opcode::kVceq, Opcode::kVbsl,
        Opcode::kVmovToScalar, Opcode::kVmovFromScalar));

TEST(Disasm, LoadWithPostIncrement) {
  const Instruction i = MakeLoad(Opcode::kLdr, 3, 5, 4);
  EXPECT_EQ(i.ToAsm(), "ldr r3, [r5], #4");
}

TEST(Disasm, BranchShowsCondition) {
  const Instruction i = MakeBranch(Cond::kGt, 7);
  EXPECT_EQ(i.ToAsm(), "bgt #7");
}

TEST(Disasm, VectorOpShowsType) {
  Instruction i;
  i.op = Opcode::kVadd;
  i.vt = VecType::kI16;
  i.rd = 8;
  i.rn = 1;
  i.rm = 2;
  EXPECT_EQ(i.ToAsm(), "vadd.i16 q8, q1, q2");
}

TEST(Helpers, MakeCmpStoresOperands) {
  const Instruction i = MakeCmpi(3, 42);
  EXPECT_EQ(i.op, Opcode::kCmpi);
  EXPECT_EQ(i.rn, 3);
  EXPECT_EQ(i.imm, 42);
}

TEST(Helpers, MakeHaltIsMisc) {
  EXPECT_EQ(MakeHalt().cls(), InstrClass::kMisc);
}

}  // namespace
}  // namespace dsa::isa
