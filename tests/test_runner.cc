// BatchRunner tests: the worker pool it runs on, baseline memoization (the
// scalar run of a workload executes once per batch no matter how many
// tables ask for it), JSON emission round-trip, and determinism of the
// batch results across worker counts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/pool.h"
#include "sim/runner.h"
#include "workloads/workloads.h"

namespace dsa::sim {
namespace {

Workload SmallVecAdd() { return workloads::MakeVecAdd(512); }

// run_fn seam that counts real executions per job key.
RunnerOptions CountingOptions(std::atomic<int>& counter, int jobs = 2,
                              int repeats = 1) {
  RunnerOptions o;
  o.jobs = jobs;
  o.repeats = repeats;
  o.run_fn = [&counter](const Workload& wl, RunMode mode,
                        const SystemConfig& cfg) {
    ++counter;
    return Run(wl, mode, cfg);
  };
  return o;
}

// The worker pool the runner and the serving daemon run on: it runs
// every submitted task, and destruction runs the tasks still queued
// before it joins.
TEST(WorkerPoolTest, ExecutesSubmittedTasks) {
  std::atomic<bool> open{false};
  std::atomic<int> ran{0};
  std::thread opener;
  {
    WorkerPool pool(2);
    for (int i = 0; i < 2; ++i) {
      pool.Submit([&open, &ran] {
        while (!open.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        ++ran;
      });
    }
    for (int i = 0; i < 16; ++i) pool.Submit([&ran] { ++ran; });
    // Both threads hold a gated task, so the other 16 wait in the queue.
    EXPECT_EQ(ran.load(), 0);
    // The gate opens 50 ms from now, while the pool is being destroyed.
    opener = std::thread([&open] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      open = true;
    });
  }
  opener.join();
  EXPECT_EQ(ran.load(), 18);
}

// A raised drain flag cancels a cell before its first attempt: run_fn is
// never called, and the cell carries the one drain message.
TEST(ExecuteCellTest, DrainCancelsBeforeTheFirstAttempt) {
  std::atomic<int> calls{0};
  std::atomic<bool> drain{true};
  RunnerOptions o = CountingOptions(calls);
  o.drain = &drain;
  const BatchJob job{SmallVecAdd(), RunMode::kDsa, {}, "", ""};
  JobOutcome out;
  ExecuteCell(job, o, out);
  EXPECT_EQ(out.cell_status, "cancelled");
  EXPECT_EQ(out.attempts, 0u);
  EXPECT_TRUE(out.runs.empty());
  EXPECT_EQ(out.key, JobKey(job));
  EXPECT_NE(out.error.find("drain"), std::string::npos) << out.error;
  EXPECT_EQ(calls.load(), 0);
}

TEST(BatchRunner, ExecutesAllModesAndReportsCleanOracle) {
  RunnerOptions o;
  o.jobs = 4;
  BatchRunner runner(o);
  const Workload wl = SmallVecAdd();
  const auto keys = runner.SubmitMatrix(wl);
  const BatchReport report = runner.Finish();
  EXPECT_TRUE(report.ok()) << oracle::FormatViolations(report.violations);
  EXPECT_EQ(report.distinct_jobs, 4u);
  EXPECT_EQ(report.executed_runs, 4u * 2u);  // default repeats = 2
  for (const std::string& k : keys) {
    EXPECT_GT(runner.Result(k).cycles, 0u) << k;
    EXPECT_TRUE(runner.Result(k).output_ok) << k;
  }
  // All four modes computed the same output buffers.
  const std::uint64_t digest = runner.Result(keys[0]).output_digest;
  for (const std::string& k : keys) {
    EXPECT_EQ(runner.Result(k).output_digest, digest) << k;
  }
}

TEST(BatchRunner, MemoizesRepeatedSubmissions) {
  std::atomic<int> executions{0};
  BatchRunner runner(CountingOptions(executions));
  const Workload wl = SmallVecAdd();
  const std::string k1 = runner.Submit(wl, RunMode::kScalar);
  // The same experiment, submitted as if by three more tables.
  const std::string k2 = runner.Submit(wl, RunMode::kScalar);
  const std::string k3 = runner.Submit(wl, RunMode::kScalar);
  runner.SubmitMatrix(wl);  // scalar cell memoized, 3 new cells
  EXPECT_EQ(k1, k2);
  EXPECT_EQ(k2, k3);
  const BatchReport report = runner.Finish();
  EXPECT_EQ(executions.load(), 4);  // scalar once + autovec/handvec/dsa
  EXPECT_EQ(report.distinct_jobs, 4u);
  EXPECT_EQ(report.memo_hits, 3u);
}

TEST(BatchRunner, TagsKeepDistinctConfigsApart) {
  std::atomic<int> executions{0};
  BatchRunner runner(CountingOptions(executions));
  const Workload wl = SmallVecAdd();
  SystemConfig a;
  SystemConfig b;
  b.dsa = engine::DsaConfig::Original();
  const std::string ka = runner.Submit(wl, RunMode::kDsa, a, "ext");
  const std::string kb = runner.Submit(wl, RunMode::kDsa, b, "orig");
  EXPECT_NE(ka, kb);
  (void)runner.Finish();
  EXPECT_EQ(executions.load(), 2);
}

TEST(BatchRunner, RepeatsFeedDeterminismOracle) {
  std::atomic<int> executions{0};
  BatchRunner runner(CountingOptions(executions, /*jobs=*/2, /*repeats=*/3));
  runner.Submit(SmallVecAdd(), RunMode::kDsa);
  const BatchReport report = runner.Finish();
  EXPECT_TRUE(report.ok()) << oracle::FormatViolations(report.violations);
  EXPECT_EQ(executions.load(), 3);
  EXPECT_EQ(report.executed_runs, 3u);
  EXPECT_EQ(report.distinct_jobs, 1u);
}

TEST(BatchRunner, JobErrorSurfacesOnGet) {
  RunnerOptions o;
  o.jobs = 1;
  o.repeats = 1;
  o.run_fn = [](const Workload&, RunMode, const SystemConfig&) -> RunResult {
    throw std::runtime_error("injected failure");
  };
  BatchRunner runner(o);
  const std::string key = runner.Submit(SmallVecAdd(), RunMode::kScalar);
  EXPECT_THROW(runner.Get(key), std::runtime_error);
  const BatchReport report = runner.Finish();
  EXPECT_FALSE(report.ok());
}

// The batch result must not depend on how many workers executed it.
TEST(BatchRunner, WorkerCountDoesNotChangeResults) {
  std::map<std::string, std::uint64_t> cycles_by_key[2];
  const int worker_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    RunnerOptions o;
    o.jobs = worker_counts[i];
    o.repeats = 1;
    BatchRunner runner(o);
    for (const Workload& wl : workloads::Article1Set()) {
      runner.SubmitMatrix(wl);
    }
    const BatchReport report = runner.Finish();
    ASSERT_TRUE(report.ok()) << oracle::FormatViolations(report.violations);
    for (const auto& [key, outcome] : runner.outcomes()) {
      cycles_by_key[i][key] = outcome.result().cycles;
    }
  }
  EXPECT_EQ(cycles_by_key[0], cycles_by_key[1]);
}

TEST(BatchRunner, WritesWellFormedJson) {
  RunnerOptions o;
  o.jobs = 2;
  BatchRunner runner(o);
  runner.SubmitMatrix(SmallVecAdd());
  const BatchReport report = runner.Finish();
  const std::string path = ::testing::TempDir() + "BENCH_runner_test.json";
  ASSERT_TRUE(WriteBenchJson(path, "runner_test", runner, report));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();

  // Structural sanity without a JSON library: balanced braces/brackets
  // and the schema fields the tooling greps for.
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
  for (const char* needle :
       {"\"schema\": \"dsa-bench-json/6\"", "\"bench\": \"runner_test\"",
        "\"oracle\"", "\"ok\": true", "\"results\"", "\"cycles\"",
        "\"speedup_vs_scalar\"", "\"energy\"", "\"output_digest\"",
        "\"host\"", "\"mips\"", "\"dsa\"", "\"takeovers\"",
        "\"phases\"", "\"dispatch_ms\"", "\"observe_ms\"", "\"mem_ms\"",
        "\"neon_ms\"",
        "\"cell_status\": \"ok\"", "\"faulted_cells\": 0",
        "\"restored_cells\": 0", "\"cancelled_cells\": 0",
        "\"run_status\": \"complete\"", "\"rollbacks\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
  std::remove(path.c_str());
}

// The scalar cell doubles as the equivalence reference: its speedup in
// the JSON is 1 and every other mode reports a speedup relative to it.
TEST(BatchRunner, JsonSpeedupsAreRelativeToScalarBaseline) {
  RunnerOptions o;
  o.jobs = 1;
  o.repeats = 1;
  BatchRunner runner(o);
  const Workload wl = SmallVecAdd();
  const auto keys = runner.SubmitMatrix(wl);
  const BatchReport report = runner.Finish();
  const std::string path = ::testing::TempDir() + "BENCH_speedup_test.json";
  ASSERT_TRUE(WriteBenchJson(path, "speedup_test", runner, report));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  std::remove(path.c_str());

  const double expected =
      SpeedupOver(runner.Result(keys[0]), runner.Result(keys[3]));
  // Find the DSA result object and its speedup value.
  const size_t pos = json.find("\"mode\": \"neon-dsa\"");
  ASSERT_NE(pos, std::string::npos);
  const size_t sp = json.find("\"speedup_vs_scalar\":", pos);
  ASSERT_NE(sp, std::string::npos);
  const size_t colon = json.find(':', sp);
  const double got = std::atof(json.c_str() + colon + 1);
  EXPECT_NEAR(got, expected, 1e-3);
}

}  // namespace
}  // namespace dsa::sim
