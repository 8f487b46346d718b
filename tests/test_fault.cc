// Fault-injection + speculation-guard tests: the --faults grammar, the
// deterministic injector, bit-identical rollback recovery for every fault
// kind at the first / middle / last opportunity on the fast and reference
// paths, loop blacklisting after repeated misspeculation, DSA-cache
// corruption detection, the BatchRunner watchdog + retry policy, and the
// DsaError context that the harness attaches at the System boundary.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "prog/assembler.h"
#include "sim/error.h"
#include "sim/oracle.h"
#include "sim/runner.h"
#include "sim/system.h"
#include "trace/trace.h"
#include "workloads/workloads.h"

namespace dsa::sim {
namespace {

using fault::FaultKind;
using fault::FaultPlan;
using fault::ParseFaultPlan;

// ---------------------------------------------------------------------------
// Grammar.

TEST(FaultPlanGrammar, EmptySpecDisablesInjection) {
  const FaultPlan plan = ParseFaultPlan("");
  EXPECT_FALSE(plan.enabled());
  EXPECT_TRUE(plan.specs.empty());
}

TEST(FaultPlanGrammar, RoundTripsThroughFormat) {
  const char* spec = "cidp@0,bitflip@2+3,mem@5+;seed=9";
  const FaultPlan plan = ParseFaultPlan(spec);
  ASSERT_EQ(plan.specs.size(), 3u);
  EXPECT_EQ(plan.specs[0].kind, FaultKind::kCidpMispredict);
  EXPECT_EQ(plan.specs[0].trigger, 0u);
  EXPECT_EQ(plan.specs[0].count, 1u);
  EXPECT_EQ(plan.specs[1].kind, FaultKind::kLaneBitflip);
  EXPECT_EQ(plan.specs[1].trigger, 2u);
  EXPECT_EQ(plan.specs[1].count, 3u);
  EXPECT_EQ(plan.specs[2].kind, FaultKind::kMemFault);
  EXPECT_EQ(plan.specs[2].count, UINT64_MAX);
  EXPECT_TRUE(plan.seed_explicit);
  EXPECT_EQ(plan.seed, 9u);
  EXPECT_EQ(fault::FormatFaultPlan(plan), spec);
}

TEST(FaultPlanGrammar, RejectsMalformedSpecs) {
  for (const char* bad : {"bogus@1", "cidp", "cidp@", "cidp@x", "cidp@1+0",
                          "cidp@1,", ",cidp@1", "cidp@1;sd=3",
                          "cidp@1;seed=", "cidp@1;seed=x",
                          // 2^64 and beyond: refused, never wrapped.
                          "cidp@18446744073709551616",
                          "cidp@0+18446744073709551617",
                          "cidp@0;seed=18446744073709551621"}) {
    EXPECT_THROW(ParseFaultPlan(bad), std::invalid_argument) << bad;
  }
}

TEST(FaultPlanGrammar, AcceptsTheLargest64BitNumbers) {
  const FaultPlan plan = ParseFaultPlan(
      "cidp@18446744073709551615+18446744073709551614;"
      "seed=18446744073709551615");
  ASSERT_EQ(plan.specs.size(), 1u);
  EXPECT_EQ(plan.specs[0].trigger, UINT64_MAX);
  EXPECT_EQ(plan.specs[0].count, UINT64_MAX - 1);
  EXPECT_EQ(plan.seed, UINT64_MAX);
}

// ---------------------------------------------------------------------------
// Injector determinism.

TEST(FaultInjector, SamePlanReplaysIdentically) {
  const FaultPlan plan = ParseFaultPlan("cidp@1+2,mem@0;seed=42");
  fault::FaultInjector a(plan);
  fault::FaultInjector b(plan);
  for (int i = 0; i < 16; ++i) {
    for (int k = 0; k < fault::kNumFaultKinds; ++k) {
      const FaultKind kind = static_cast<FaultKind>(k);
      EXPECT_EQ(a.Fire(kind), b.Fire(kind));
      EXPECT_EQ(a.Rand(kind), b.Rand(kind));
    }
  }
  EXPECT_EQ(a.fired(), b.fired());
  EXPECT_EQ(a.opportunities(), b.opportunities());
}

TEST(FaultInjector, SeedSelectsDistinctRandStreams) {
  fault::FaultInjector a(ParseFaultPlan("cidp@0;seed=1"));
  fault::FaultInjector b(ParseFaultPlan("cidp@0;seed=2"));
  EXPECT_NE(a.Rand(FaultKind::kCidpMispredict),
            b.Rand(FaultKind::kCidpMispredict));
  // Per-kind streams of one injector differ too.
  EXPECT_NE(a.Rand(FaultKind::kLaneBitflip), a.Rand(FaultKind::kMemFault));
}

TEST(FaultInjector, FireMatchesTriggerWindow) {
  fault::FaultInjector inj(ParseFaultPlan("lane@2+2"));
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) fired.push_back(inj.Fire(FaultKind::kWrongLane));
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, true, false, false}));
  EXPECT_EQ(inj.total_fired(), 2u);
}

// ---------------------------------------------------------------------------
// Bit-identical recovery: every workload x every fault kind x triggers
// {first, middle, last opportunity}, on the fast path and --reference.

const std::vector<Workload>& RecoverySuite() {
  // Small instances keep the full sweep quick; every builder is exercised.
  static const std::vector<Workload> wls = [] {
    std::vector<Workload> v;
    v.push_back(workloads::MakeVecAdd(1024));
    v.push_back(workloads::MakeMatMul(24));
    v.push_back(workloads::MakeRgbGray(4096));
    v.push_back(workloads::MakeGaussian(48, 32));
    v.push_back(workloads::MakeSusanE(4096));
    v.push_back(workloads::MakeQSort(512));
    v.push_back(workloads::MakeDijkstra(32));
    v.push_back(workloads::MakeBitCount(2048));
    v.push_back(workloads::MakeStrCopy(1500));
    v.push_back(workloads::MakeShiftAdd(1024, 8));
    return v;
  }();
  return wls;
}

using RecoveryCase = std::tuple<int, bool>;  // workload index, reference path

class RecoveryIsBitIdentical : public ::testing::TestWithParam<RecoveryCase> {};

TEST_P(RecoveryIsBitIdentical, EveryKindEveryTrigger) {
  const auto [idx, reference] = GetParam();
  const Workload& wl = RecoverySuite().at(idx);
  SystemConfig cfg;
  cfg.reference_path = reference;

  const RunResult base = ::dsa::sim::Run(wl, RunMode::kDsa, cfg);
  ASSERT_TRUE(base.output_ok);

  // Probe run: every kind armed with an unreachable trigger counts the
  // opportunities without firing anything — and must be invisible.
  SystemConfig probe = cfg;
  probe.faults = ParseFaultPlan(
      "cidp@999999999,cache@999999999,lane@999999999,sentinel@999999999,"
      "bitflip@999999999,mem@999999999;seed=11");
  const RunResult pr = ::dsa::sim::Run(wl, RunMode::kDsa, probe);
  ASSERT_TRUE(pr.faults.has_value());
  EXPECT_EQ(pr.faults->total_fired(), 0u);
  EXPECT_EQ(pr.output_digest, base.output_digest)
      << "armed-but-silent injector perturbed " << wl.name;

  for (int k = 0; k < fault::kNumFaultKinds; ++k) {
    const std::uint64_t opp = pr.faults->opportunities[k];
    if (opp == 0) continue;  // kind never applicable to this workload
    const std::string kind =
        std::string(ToString(static_cast<FaultKind>(k)));
    const std::set<std::uint64_t> triggers = {0, opp / 2, opp - 1};
    for (const std::uint64_t t : triggers) {
      SystemConfig fcfg = cfg;
      fcfg.faults =
          ParseFaultPlan(kind + "@" + std::to_string(t) + ";seed=11");
      const RunResult fr = ::dsa::sim::Run(wl, RunMode::kDsa, fcfg);
      ASSERT_TRUE(fr.faults.has_value());
      EXPECT_TRUE(fr.output_ok)
          << wl.name << " " << kind << "@" << t << " broke the golden check";
      EXPECT_EQ(fr.output_digest, base.output_digest)
          << wl.name << " " << kind << "@" << t
          << " diverged from the fault-free digest (fired "
          << fr.faults->total_fired() << ")";
    }
  }
}

std::string RecoveryCaseName(
    const ::testing::TestParamInfo<RecoveryCase>& info) {
  const auto [idx, reference] = info.param;
  std::string n = RecoverySuite().at(idx).name +
                  (reference ? "_reference" : "_fast");
  for (char& c : n) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return n;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RecoveryIsBitIdentical,
    ::testing::Combine(::testing::Range(0, 10), ::testing::Bool()),
    RecoveryCaseName);

// ---------------------------------------------------------------------------
// Rollback, blacklisting, cache corruption.

TEST(SpeculationGuard, RepeatedMisspeculationBlacklistsTheLoop) {
  const Workload wl = workloads::MakeDijkstra(64);
  const RunResult base = ::dsa::sim::Run(wl, RunMode::kDsa, {});
  SystemConfig cfg;
  cfg.faults = ParseFaultPlan("cidp@0+;seed=3");  // misspeculate every plan
  const RunResult r = ::dsa::sim::Run(wl, RunMode::kDsa, cfg);
  ASSERT_TRUE(r.dsa.has_value());
  EXPECT_GE(r.dsa->rollbacks, cfg.dsa.blacklist_strikes);
  EXPECT_GE(r.dsa->blacklisted_loops, 1u);
  EXPECT_LE(r.dsa->blacklisted_loops, r.dsa->rollbacks);
  // The run still completes and still produces the scalar-exact output.
  EXPECT_TRUE(r.output_ok);
  EXPECT_EQ(r.output_digest, base.output_digest);
}

TEST(SpeculationGuard, CacheCorruptionIsDetectedAndDiscarded) {
  const Workload wl = workloads::MakeMatMul(32);
  const RunResult base = ::dsa::sim::Run(wl, RunMode::kDsa, {});
  SystemConfig cfg;
  cfg.faults = ParseFaultPlan("cache@0+;seed=5");
  const RunResult r = ::dsa::sim::Run(wl, RunMode::kDsa, cfg);
  ASSERT_TRUE(r.dsa.has_value());
  ASSERT_TRUE(r.faults.has_value());
  EXPECT_GT(r.faults->fired[static_cast<int>(FaultKind::kCacheCorrupt)], 0u);
  EXPECT_GT(r.dsa->cache_corruptions_detected, 0u);
  EXPECT_TRUE(r.output_ok);
  EXPECT_EQ(r.output_digest, base.output_digest);
}

TEST(SpeculationGuard, RollbackEmitsTraceEventsAndPassesOracle) {
  const Workload wl = workloads::MakeVecAdd(1024);
  SystemConfig cfg;
  cfg.trace.enabled = true;
  cfg.faults = ParseFaultPlan("bitflip@0;seed=7");
  const RunResult r = ::dsa::sim::Run(wl, RunMode::kDsa, cfg);
  ASSERT_TRUE(r.dsa.has_value());
  ASSERT_TRUE(r.trace != nullptr);
  EXPECT_EQ(r.dsa->rollbacks, 1u);
  EXPECT_EQ(r.trace->kind_counts[static_cast<int>(
                trace::EventKind::kFaultInjected)],
            1u);
  EXPECT_EQ(r.trace->kind_counts[static_cast<int>(
                trace::EventKind::kMisspecRollback)],
            1u);
  // The oracle's trace cross-checks must hold with rollbacks in play.
  EXPECT_TRUE(oracle::CheckInvariants(r, "rollback-trace").empty());
}

// ---------------------------------------------------------------------------
// BatchRunner hardening: watchdog, retry policy, faulted-cell JSON.

Workload InfiniteLoopWorkload() {
  // r0 = 1; while (r0 > 0) {} — never halts, so only the step budget can
  // end the run.
  prog::Assembler as;
  as.Movi(0, 1);
  const auto loop = as.NewLabel();
  as.Bind(loop);
  as.Cmpi(0, 0);
  as.B(isa::Cond::kGt, loop);
  as.Halt();
  Workload wl;
  wl.name = "InfiniteLoop";
  wl.mem_bytes = 1 << 16;
  wl.scalar = as.Finish();
  wl.check = [](const mem::Memory&) { return true; };
  return wl;
}

TEST(BatchRunnerWatchdog, StepBudgetFaultsTheCellAndSparesSiblings) {
  RunnerOptions opts;
  opts.jobs = 2;
  opts.repeats = 1;
  opts.oracle = false;
  opts.max_cell_steps = 20000;
  BatchRunner runner(opts);
  const std::string bad =
      runner.Submit(InfiniteLoopWorkload(), RunMode::kScalar);
  const std::string good =
      runner.Submit(workloads::MakeVecAdd(512), RunMode::kScalar);
  const BatchReport report = runner.Finish();

  EXPECT_EQ(report.faulted_cells, 1u);
  const JobOutcome& sick = runner.outcomes().at(bad);
  EXPECT_EQ(sick.cell_status, "faulted");
  EXPECT_TRUE(sick.runs.empty());
  EXPECT_NE(sick.error.find("step-limit"), std::string::npos) << sick.error;
  // kStepLimit is deterministic: no retry was attempted.
  EXPECT_EQ(sick.attempts, 1u);
  const JobOutcome& healthy = runner.outcomes().at(good);
  EXPECT_EQ(healthy.cell_status, "ok");
  ASSERT_EQ(healthy.runs.size(), 1u);
  EXPECT_TRUE(healthy.result().output_ok);

  // The poisoned cell is visible in the JSON, not silently dropped.
  const std::string path = ::testing::TempDir() + "BENCH_watchdog_test.json";
  ASSERT_TRUE(WriteBenchJson(path, "watchdog_test", runner, report));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  std::remove(path.c_str());
  EXPECT_NE(json.find("\"faulted_cells\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"cell_status\": \"faulted\""), std::string::npos);
  EXPECT_NE(json.find("\"cell_status\": \"ok\""), std::string::npos);
  EXPECT_NE(json.find("step-limit"), std::string::npos);
}

TEST(BatchRunnerRetry, TransientErrorsGetBoundedRetries) {
  std::atomic<int> calls{0};
  RunnerOptions opts;
  opts.jobs = 1;
  opts.repeats = 1;
  opts.oracle = false;
  opts.max_retries = 2;
  opts.retry_backoff_ms = 0;
  opts.run_fn = [&](const Workload& wl, RunMode mode,
                    const SystemConfig& cfg) {
    if (calls.fetch_add(1) == 0) {
      throw DsaError(DsaErrorCode::kTransient, "flaky harness hiccup");
    }
    return ::dsa::sim::Run(wl, mode, cfg);
  };
  BatchRunner runner(opts);
  const std::string key =
      runner.Submit(workloads::MakeVecAdd(256), RunMode::kScalar);
  (void)runner.Finish();
  const JobOutcome& out = runner.outcomes().at(key);
  EXPECT_EQ(out.cell_status, "ok");
  EXPECT_EQ(out.attempts, 2u);
  ASSERT_EQ(out.runs.size(), 1u);
  EXPECT_TRUE(out.result().output_ok);
}

TEST(BatchRunnerRetry, RetriesExhaustToFaultedCell) {
  RunnerOptions opts;
  opts.jobs = 1;
  opts.repeats = 1;
  opts.oracle = false;
  opts.max_retries = 1;
  opts.retry_backoff_ms = 0;
  opts.run_fn = [](const Workload&, RunMode,
                   const SystemConfig&) -> RunResult {
    throw DsaError(DsaErrorCode::kTransient, "never recovers");
  };
  BatchRunner runner(opts);
  const std::string key =
      runner.Submit(workloads::MakeVecAdd(256), RunMode::kScalar);
  const BatchReport report = runner.Finish();
  const JobOutcome& out = runner.outcomes().at(key);
  EXPECT_EQ(out.cell_status, "faulted");
  EXPECT_EQ(out.attempts, 2u);  // first try + one retry
  EXPECT_EQ(report.faulted_cells, 1u);
}

// ---------------------------------------------------------------------------
// DsaError context at the System boundary.

TEST(DsaErrorBoundary, StepLimitCarriesWorkloadAndStepContext) {
  const Workload wl = workloads::MakeVecAdd(4096);
  SystemConfig cfg;
  cfg.max_steps = 1000;
  try {
    (void)::dsa::sim::Run(wl, RunMode::kScalar, cfg);
    FAIL() << "expected DsaError";
  } catch (const DsaError& e) {
    EXPECT_EQ(e.code(), DsaErrorCode::kStepLimit);
    EXPECT_FALSE(e.transient());
    EXPECT_EQ(e.workload(), "VecAdd");
    EXPECT_GT(e.step(), 1000u);
    EXPECT_NE(std::string(e.what()).find("[step-limit]"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("workload=VecAdd"),
              std::string::npos);
  }
}

TEST(DsaErrorBoundary, OutOfRangeAccessIsWrappedWithContext) {
  // A plain load far outside the 64 kB image, and a fused ldr+ldr pair
  // whose second member runs off its end: the fault's pc is the second
  // member's on the fast path as on the reference twin.
  prog::Assembler plain;
  plain.Movi(0, 0x7ffffff0);
  plain.Ldr(1, 0, 4);
  plain.Halt();
  prog::Assembler pair;
  pair.Movi(0, 65532);
  pair.Ldr(1, 0);
  pair.Ldr(2, 0, 0, 4);
  pair.Halt();
  for (prog::Assembler* as : {&plain, &pair}) {
    Workload wl;
    wl.name = "oob";
    wl.mem_bytes = 1 << 16;
    wl.scalar = as->Finish();
    wl.check = [](const mem::Memory&) { return true; };
    std::string what[2];
    for (const bool reference : {false, true}) {
      SystemConfig cfg;
      cfg.reference_path = reference;
      try {
        (void)::dsa::sim::Run(wl, RunMode::kScalar, cfg);
        ADD_FAILURE() << "expected DsaError";
      } catch (const DsaError& e) {
        EXPECT_EQ(e.code(), DsaErrorCode::kMemOutOfRange);
        EXPECT_EQ(e.workload(), "oob");
        EXPECT_EQ(e.loop_pc(), wl.scalar.size() - 2);
        EXPECT_EQ(e.step(), wl.scalar.size() - 1);
        EXPECT_NE(std::string(e.what()).find("[mem-out-of-range]"),
                  std::string::npos);
        what[reference] = e.what();
      }
    }
    EXPECT_EQ(what[0], what[1]);
  }
}

}  // namespace
}  // namespace dsa::sim
