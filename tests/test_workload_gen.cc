// Seeded loop-nest generator tests: determinism (same seed => byte-identical
// program and golden digest), one test per grammar class asserting the
// tracker state-machine path it was built to exercise, and a 64-seed mini
// differential sweep comparing the fast DSA path against the --reference
// twin bit-for-bit (cycles and output digest).
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "engine/loop_info.h"
#include "mem/fnv.h"
#include "sim/system.h"
#include "workloads/gen/generator.h"

namespace dsa::workloads::gen {
namespace {

using sim::RunMode;
using sim::RunResult;
using sim::SystemConfig;
using sim::Workload;

constexpr LoopClass kAllClasses[] = {
    LoopClass::kCounted,      LoopClass::kSentinel,
    LoopClass::kConditional,  LoopClass::kNested,
    LoopClass::kStrideVariant, LoopClass::kEarlyExit,
};

TEST(Generator, SameSeedSameProgramBytesAndDigest) {
  for (const LoopClass cls : kAllClasses) {
    for (const std::uint64_t seed : {1ull, 7ull, 1234567ull}) {
      const Workload a = MakeGenerated(seed, cls);
      const Workload b = MakeGenerated(seed, cls);
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(a.scalar.Disassemble(), b.scalar.Disassemble())
          << a.name << ": program bytes differ across factory calls";
      const RunResult ra = sim::Run(a, RunMode::kScalar, {});
      const RunResult rb = sim::Run(b, RunMode::kScalar, {});
      EXPECT_TRUE(ra.output_ok) << a.name;
      EXPECT_EQ(ra.output_digest, rb.output_digest)
          << a.name << ": golden digest differs across factory calls";
    }
  }
}

TEST(Generator, ProgramsArePinned) {
  // The splitmix64 stream decides every generated program, so a change to
  // it would silently change every generated cell of a sweep. Seed 7 of
  // each class: the FNV-1a of the scalar disassembly and the scalar run's
  // output digest.
  struct Pin {
    LoopClass cls;
    std::uint64_t program;
    std::uint64_t output;
  };
  constexpr Pin kPins[] = {
      {LoopClass::kCounted, 0x6dce3acd6100bd99ull, 0x28409c44c43ddb54ull},
      {LoopClass::kSentinel, 0x5a0ef7be6fb27098ull, 0x4fc16b3acbefa074ull},
      {LoopClass::kConditional, 0xc1b3015e704ca6f4ull, 0x5dc5e9d4af303f0full},
      {LoopClass::kNested, 0x32a4c3605a3024b0ull, 0x85a879629324268dull},
      {LoopClass::kStrideVariant, 0xca52ca367fc080e8ull,
       0xe7b634d756930ac4ull},
      {LoopClass::kEarlyExit, 0xeb8cb68385cfda00ull, 0xa9eacd904e76f2eeull},
  };
  for (const Pin& pin : kPins) {
    const Workload wl = MakeGenerated(7, pin.cls);
    const std::string program = wl.scalar.Disassemble();
    mem::Fnv1a f;
    f.Bytes(program.data(), program.size());
    EXPECT_EQ(f.h, pin.program) << wl.name;
    const RunResult r = sim::Run(wl, RunMode::kScalar, {});
    EXPECT_TRUE(r.output_ok) << wl.name;
    EXPECT_EQ(r.output_digest, pin.output) << wl.name;
  }
}

TEST(Generator, DifferentSeedsDifferentPrograms) {
  // Trip counts, constants and op chains are all drawn from the seed, so
  // distinct seeds should essentially never collide.
  for (const LoopClass cls : kAllClasses) {
    std::set<std::string> programs;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      programs.insert(MakeGenerated(seed, cls).scalar.Disassemble());
    }
    EXPECT_GT(programs.size(), 6u)
        << "class " << std::string(ToString(cls))
        << ": seeds 1..8 produced too many identical programs";
  }
}

TEST(Generator, CarriesProvenanceAndStreamBytes) {
  for (const LoopClass cls : kAllClasses) {
    const Workload wl = MakeGenerated(42, cls);
    ASSERT_TRUE(wl.gen.has_value()) << wl.name;
    EXPECT_EQ(wl.gen->seed, 42u);
    EXPECT_EQ(wl.gen->loop_class, std::string(ToString(cls)));
    EXPECT_GT(wl.gen->count, 0u);
    EXPECT_GT(wl.stream_bytes, 0u) << wl.name;
    EXPECT_FALSE(wl.outputs.empty()) << wl.name;
  }
}

TEST(Generator, GeneratedSetRoundRobinsClassesAndSeeds) {
  const auto set = GeneratedSet(100, 13);
  ASSERT_EQ(set.size(), 13u);
  for (int i = 0; i < 13; ++i) {
    ASSERT_TRUE(set[i].gen.has_value());
    EXPECT_EQ(set[i].gen->seed, 100u + i);
    EXPECT_EQ(set[i].gen->loop_class,
              std::string(ToString(static_cast<LoopClass>(i % 6))));
  }
}

// --- one test per grammar class: the tracker path it must exercise ------

RunResult RunDsa(std::uint64_t seed, LoopClass cls) {
  const Workload wl = MakeGenerated(seed, cls);
  const RunResult r = sim::Run(wl, RunMode::kDsa, {});
  EXPECT_TRUE(r.output_ok) << wl.name;
  EXPECT_TRUE(r.dsa.has_value()) << wl.name;
  return r;
}

TEST(GeneratorClasses, CountedTakesTheCountPath) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const RunResult r = RunDsa(seed, LoopClass::kCounted);
    EXPECT_GE(r.dsa->loops_by_class.at(engine::LoopClass::kCount), 1u);
    EXPECT_GE(r.dsa->takeovers, 1u);
  }
}

TEST(GeneratorClasses, SentinelTakesTheSentinelPath) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const RunResult r = RunDsa(seed, LoopClass::kSentinel);
    EXPECT_GE(r.dsa->loops_by_class.at(engine::LoopClass::kSentinel), 1u);
    EXPECT_GE(r.dsa->takeovers, 1u);
  }
}

TEST(GeneratorClasses, ConditionalTakesTheMappingPath) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const RunResult r = RunDsa(seed, LoopClass::kConditional);
    EXPECT_GE(r.dsa->loops_by_class.at(engine::LoopClass::kConditional), 1u);
    EXPECT_GE(r.dsa->takeovers, 1u);
  }
}

TEST(GeneratorClasses, NestedClassifiesInnerCountAndOuterLoop) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const RunResult r = RunDsa(seed, LoopClass::kNested);
    EXPECT_GE(r.dsa->loops_by_class.at(engine::LoopClass::kCount), 1u);
    EXPECT_GE(r.dsa->loops_by_class.at(engine::LoopClass::kOuter), 1u);
    EXPECT_GE(r.dsa->takeovers, 1u);
  }
}

TEST(GeneratorClasses, StrideVariantRejectsOnNonUnitStride) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const RunResult r = RunDsa(seed, LoopClass::kStrideVariant);
    EXPECT_EQ(r.dsa->takeovers, 0u);
    EXPECT_GE(
        r.dsa->rejects_by_reason.at(engine::RejectReason::kNonUnitStride), 1u);
  }
}

TEST(GeneratorClasses, EarlyExitTakesTheConditionalExitPath) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const RunResult r = RunDsa(seed, LoopClass::kEarlyExit);
    EXPECT_GE(r.dsa->loops_by_class.at(engine::LoopClass::kConditional), 1u);
    EXPECT_GE(r.dsa->takeovers, 1u);
  }
}

// --- 64-seed mini differential sweep: fast path vs --reference twin ----

class DifferentialSweep : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialSweep, FastAndReferenceTwinAgreeBitForBit) {
  const std::uint64_t seed = 1000 + GetParam();
  const LoopClass cls = static_cast<LoopClass>(GetParam() % kNumLoopClasses);
  const Workload wl = MakeGenerated(seed, cls);

  const RunResult fast = sim::Run(wl, RunMode::kDsa, {});
  SystemConfig ref_cfg;
  ref_cfg.reference_path = true;
  const RunResult ref = sim::Run(wl, RunMode::kDsa, ref_cfg);

  EXPECT_TRUE(fast.output_ok) << wl.name;
  EXPECT_TRUE(ref.output_ok) << wl.name;
  EXPECT_EQ(fast.cycles, ref.cycles)
      << wl.name << ": fast path and reference twin disagree on cycles";
  EXPECT_EQ(fast.output_digest, ref.output_digest)
      << wl.name << ": fast path and reference twin disagree on outputs";
  ASSERT_TRUE(fast.dsa.has_value());
  ASSERT_TRUE(ref.dsa.has_value());
  EXPECT_EQ(fast.dsa->takeovers, ref.dsa->takeovers) << wl.name;
  EXPECT_EQ(fast.dsa->rollbacks, ref.dsa->rollbacks) << wl.name;
}

INSTANTIATE_TEST_SUITE_P(Seeds64, DifferentialSweep, ::testing::Range(0, 64));

}  // namespace
}  // namespace dsa::workloads::gen
