// Resilience-layer tests (src/resilience, docs/RESILIENCE.md): the CRC
// and frame codec, crash/deadline/OOM classification of isolated cells,
// circuit-breaker state transitions, the graceful drain and the host-I/O
// fault injector. Everything runs against the real BatchRunner — the
// same seams the bench drivers use. Resuming from the cell store is
// tested with the store, in test_serve.cc.
#include <gtest/gtest.h>
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "resilience/breaker.h"
#include "resilience/iofault.h"
#include "resilience/isolate.h"
#include "resilience/journal.h"
#include "resilience/mini_json.h"
#include "resilience/supervisor.h"
#include "sim/error.h"
#include "sim/runner.h"
#include "workloads/workloads.h"

// RLIMIT_AS-based OOM containment cannot run under ASan/TSan: the
// sanitizers reserve terabyte-scale shadow mappings that any address-
// space cap breaks.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DSA_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DSA_UNDER_SANITIZER 1
#endif
#endif
#ifndef DSA_UNDER_SANITIZER
#define DSA_UNDER_SANITIZER 0
#endif

namespace dsa::resilience {
namespace {

using sim::BatchReport;
using sim::BatchRunner;
using sim::JobOutcome;
using sim::RunMode;
using sim::RunnerOptions;
using sim::SystemConfig;
using sim::Workload;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "resilience_" + name + "_" +
         std::to_string(::getpid());
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// CRC and mini_json plumbing.

TEST(Crc32, MatchesIeeeReferenceVector) {
  // The canonical IEEE 802.3 check value for "123456789".
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(MiniJson, PreservesNumberTextExactly) {
  JsonValue v;
  ASSERT_TRUE(ParseJson(
      R"({"u": 18446744073709551615, "d": 0.71384199999999998, "s": "a\"b"})",
      v));
  EXPECT_EQ(v.Find("u")->AsU64(), 18446744073709551615ull);
  EXPECT_EQ(v.Find("u")->raw, "18446744073709551615");
  EXPECT_EQ(v.Find("d")->raw, "0.71384199999999998");
  EXPECT_EQ(v.Find("s")->AsString(), "a\"b");
  // Dump re-emits numbers verbatim: no precision loss through a
  // parse -> dump round trip.
  const std::string dumped = DumpJson(v);
  EXPECT_NE(dumped.find("18446744073709551615"), std::string::npos);
  EXPECT_NE(dumped.find("0.71384199999999998"), std::string::npos);
}

TEST(MiniJson, RejectsMalformedInput) {
  JsonValue v;
  std::string err;
  EXPECT_FALSE(ParseJson("{\"a\": 1", v, &err));
  EXPECT_FALSE(ParseJson("{\"a\": 1} trailing", v, &err));
  EXPECT_FALSE(ParseJson("", v, &err));
}

// ---------------------------------------------------------------------------
// Frame codec: the one byte layout behind the DSAI pipe and DSAS socket.

TEST(FrameCodec, EncodesTheDocumentedByteLayout) {
  const std::string frame = EncodeFrame("DSAI", 'R', "{}");
  std::string expected = "DSAI";
  expected += std::string("\x03\0\0\0", 4);  // payload length, LE
  const std::uint32_t crc = Crc32("R{}", 3);
  for (int i = 0; i < 4; ++i) expected += static_cast<char>(crc >> (8 * i));
  expected += "R{}";
  EXPECT_EQ(frame, expected);

  char type = 0;
  std::string json;
  ASSERT_TRUE(DecodeFrame(frame, "DSAI", type, json));
  EXPECT_EQ(type, 'R');
  EXPECT_EQ(json, "{}");
  EXPECT_FALSE(DecodeFrame(frame, "DSAS", type, json));  // foreign magic
  for (std::size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(DecodeFrame(frame.substr(0, len), "DSAI", type, json))
        << "torn at " << len;
  }
  std::string flipped = frame;
  flipped.back() ^= 0x01;
  EXPECT_FALSE(DecodeFrame(flipped, "DSAI", type, json));  // CRC mismatch
}

// ---------------------------------------------------------------------------
// Isolation: crash/deadline/OOM classification with surviving siblings.

#if defined(__unix__) || defined(__APPLE__)

TEST(Isolate, ClassifiesSignalDeathAsCrashedWhileSiblingsComplete) {
  ASSERT_TRUE(IsolationAvailable());
  SupervisorOptions so;
  so.isolate = true;
  so.install_signal_drain = false;
  Supervisor sup(so);
  ASSERT_TRUE(sup.Init());
  RunnerOptions o;
  o.jobs = 2;
  o.repeats = 1;
  o.oracle = false;  // failed cells on purpose; no equivalence sweep
  o.retry_backoff_ms = 0;
  // Install the crashing run_fn before Attach so the isolation wrapper
  // executes it inside the forked child.
  o.run_fn = [](const Workload& wl, RunMode m, const SystemConfig& c) {
    if (m == RunMode::kDsa) ::raise(SIGKILL);  // dies inside the child
    return sim::Run(wl, m, c);
  };
  sup.Attach(o);
  BatchRunner runner(o);
  const Workload wl = workloads::MakeVecAdd(512);
  const std::string crashed = runner.Submit(wl, RunMode::kDsa, {});
  const std::string ok = runner.Submit(wl, RunMode::kScalar, {});
  const BatchReport report = runner.Finish();
  EXPECT_EQ(runner.outcomes().at(crashed).cell_status, "crashed");
  EXPECT_NE(runner.outcomes().at(crashed).error.find("signal"),
            std::string::npos);
  EXPECT_EQ(runner.outcomes().at(ok).cell_status, "ok");
  EXPECT_GT(runner.outcomes().at(ok).result().cycles, 0u);
  EXPECT_EQ(report.faulted_cells, 1u);
}

TEST(Isolate, ClassifiesSegfaultAsCrashed) {
  ASSERT_TRUE(IsolationAvailable());
  SupervisorOptions so;
  so.isolate = true;
  so.install_signal_drain = false;
  Supervisor sup(so);
  ASSERT_TRUE(sup.Init());
  RunnerOptions o;
  o.jobs = 1;
  o.repeats = 1;
  o.oracle = false;
  o.retry_backoff_ms = 0;
  o.run_fn = [](const Workload& wl, RunMode m,
                const SystemConfig& c) -> sim::RunResult {
    if (m == RunMode::kDsa) {
      // A real wild access. Under ASan the child exits non-zero with a
      // report instead of dying on SIGSEGV; both classify as "crashed".
      volatile int* p = nullptr;
      *p = 42;  // NOLINT
    }
    return sim::Run(wl, m, c);
  };
  sup.Attach(o);
  BatchRunner runner(o);
  const Workload wl = workloads::MakeVecAdd(512);
  const std::string crashed = runner.Submit(wl, RunMode::kDsa, {});
  const std::string ok = runner.Submit(wl, RunMode::kScalar, {});
  (void)runner.Finish();
  EXPECT_EQ(runner.outcomes().at(crashed).cell_status, "crashed");
  EXPECT_EQ(runner.outcomes().at(ok).cell_status, "ok");
}

TEST(Isolate, KillsCellsPastTheirDeadline) {
  ASSERT_TRUE(IsolationAvailable());
  SupervisorOptions so;
  so.isolate = true;
  so.deadline_ms = 150;
  so.install_signal_drain = false;
  Supervisor sup(so);
  ASSERT_TRUE(sup.Init());
  RunnerOptions o;
  o.jobs = 2;
  o.repeats = 1;
  o.oracle = false;
  o.retry_backoff_ms = 0;
  o.run_fn = [](const Workload& wl, RunMode m, const SystemConfig& c) {
    if (m == RunMode::kDsa) {
      std::this_thread::sleep_for(std::chrono::seconds(30));
    }
    return sim::Run(wl, m, c);
  };
  sup.Attach(o);
  BatchRunner runner(o);
  const Workload wl = workloads::MakeVecAdd(512);
  const auto t0 = std::chrono::steady_clock::now();
  const std::string hung = runner.Submit(wl, RunMode::kDsa, {});
  const std::string ok = runner.Submit(wl, RunMode::kScalar, {});
  (void)runner.Finish();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_EQ(runner.outcomes().at(hung).cell_status, "timeout");
  EXPECT_NE(runner.outcomes().at(hung).error.find("deadline"),
            std::string::npos);
  EXPECT_EQ(runner.outcomes().at(ok).cell_status, "ok");
  // The deadline kill must fire in deadline time, not sleep time.
  EXPECT_LT(elapsed.count(), 10000);
}

#if !DSA_UNDER_SANITIZER
TEST(Isolate, ClassifiesAllocationBeyondTheMemoryCapAsOom) {
  ASSERT_TRUE(IsolationAvailable());
  SupervisorOptions so;
  so.isolate = true;
  so.mem_limit_mb = 128;
  so.install_signal_drain = false;
  Supervisor sup(so);
  ASSERT_TRUE(sup.Init());
  RunnerOptions o;
  o.jobs = 1;
  o.repeats = 1;
  o.oracle = false;
  o.retry_backoff_ms = 0;
  o.run_fn = [](const Workload& wl, RunMode m, const SystemConfig& c) {
    if (m == RunMode::kDsa) {
      // Far beyond the 128 MB cap; throws bad_alloc inside the child.
      std::vector<char> big(1ull << 31, 1);
      if (big[12345] == 0) std::abort();
    }
    return sim::Run(wl, m, c);
  };
  sup.Attach(o);
  BatchRunner runner(o);
  const Workload wl = workloads::MakeVecAdd(512);
  const std::string oom = runner.Submit(wl, RunMode::kDsa, {});
  const std::string ok = runner.Submit(wl, RunMode::kScalar, {});
  (void)runner.Finish();
  EXPECT_EQ(runner.outcomes().at(oom).cell_status, "oom");
  EXPECT_EQ(runner.outcomes().at(ok).cell_status, "ok");
}
#endif  // !DSA_UNDER_SANITIZER

TEST(Isolate, PreservesDeterministicChildErrors) {
  // A DsaError raised inside the child must cross the pipe with its code
  // intact so retry/status policy matches in-process behavior.
  IsolateOptions opts;
  try {
    (void)RunIsolated(
        []() -> sim::RunResult {
          throw sim::DsaError(sim::DsaErrorCode::kStepLimit, "over budget");
        },
        opts, "unit");
    FAIL() << "expected DsaError";
  } catch (const sim::DsaError& e) {
    EXPECT_EQ(e.code(), sim::DsaErrorCode::kStepLimit);
    EXPECT_NE(std::string(e.what()).find("over budget"), std::string::npos);
  }
}

TEST(Isolate, ReturnsIdenticalResultsToInProcessExecution) {
  const Workload wl = workloads::MakeVecAdd(512);
  const SystemConfig cfg;
  sim::RunResult in_process = sim::Run(wl, RunMode::kDsa, cfg);
  IsolateOptions opts;
  sim::RunResult isolated = RunIsolated(
      [&] { return sim::Run(wl, RunMode::kDsa, cfg); }, opts, "unit");
  // Host wall time is the one legitimately volatile field.
  in_process.host_wall_ms = 0;
  isolated.host_wall_ms = 0;
  EXPECT_EQ(SerializeRunResult(isolated), SerializeRunResult(in_process));
}

#endif  // __unix__ || __APPLE__

// ---------------------------------------------------------------------------
// Circuit breaker.

TEST(Breaker, OpensAfterThresholdAndRecoversThroughHalfOpen) {
  CircuitBreaker b(/*threshold=*/2, /*probe_after=*/2);
  ASSERT_TRUE(b.enabled());
  // Two consecutive failures trip the breaker.
  ASSERT_TRUE(b.Allow("wl"));
  b.Record("wl", false);
  ASSERT_TRUE(b.Allow("wl"));
  b.Record("wl", false);
  // Open: refuses cells, counts skips, half-opens after probe_after.
  EXPECT_FALSE(b.Allow("wl"));
  EXPECT_FALSE(b.Allow("wl"));
  // Half-open: exactly one probe is admitted; siblings keep skipping.
  EXPECT_TRUE(b.Allow("wl"));
  EXPECT_FALSE(b.Allow("wl"));
  // Probe failure goes straight back to open (second trip).
  b.Record("wl", false);
  EXPECT_FALSE(b.Allow("wl"));
  EXPECT_FALSE(b.Allow("wl"));
  // Next probe succeeds: closed again, cells flow.
  EXPECT_TRUE(b.Allow("wl"));
  b.Record("wl", true);
  EXPECT_TRUE(b.Allow("wl"));

  const auto census = b.Census();
  ASSERT_EQ(census.size(), 1u);
  EXPECT_EQ(census[0].workload, "wl");
  EXPECT_EQ(census[0].state, "closed");
  EXPECT_EQ(census[0].trips, 2u);
  EXPECT_EQ(census[0].skipped, 5u);
}

TEST(Breaker, DisabledBreakerAdmitsEverything) {
  CircuitBreaker b(/*threshold=*/0, /*probe_after=*/2);
  EXPECT_FALSE(b.enabled());
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(b.Allow("wl"));
    b.Record("wl", false);
  }
  EXPECT_TRUE(b.Census().empty());
}

TEST(Breaker, SkipsCellsOfAFailingWorkloadInTheRunner) {
  SupervisorOptions so;
  so.breaker_threshold = 2;
  so.breaker_probe_after = 2;
  so.install_signal_drain = false;
  Supervisor sup(so);
  ASSERT_TRUE(sup.Init());
  RunnerOptions o;
  o.jobs = 1;  // serialize so the transition sequence is deterministic
  o.repeats = 1;
  o.oracle = false;
  o.max_retries = 0;
  o.retry_backoff_ms = 0;
  o.run_fn = [](const Workload& wl, RunMode m,
                const SystemConfig& c) -> sim::RunResult {
    (void)wl;
    (void)m;
    (void)c;
    throw sim::DsaError(sim::DsaErrorCode::kInternal, "always broken");
  };
  sup.Attach(o);
  BatchRunner runner(o);
  const Workload wl = workloads::MakeVecAdd(512);
  std::vector<std::string> keys;
  for (int i = 0; i < 6; ++i) {
    keys.push_back(
        runner.Submit(wl, RunMode::kDsa, {}, "cfg" + std::to_string(i)));
  }
  (void)runner.Finish();
  // Cells 0-1 execute and fail (threshold 2 -> open), 2-3 are skipped
  // (then half-open), 4 is the probe (fails -> open), 5 is skipped.
  EXPECT_EQ(runner.outcomes().at(keys[0]).cell_status, "faulted");
  EXPECT_EQ(runner.outcomes().at(keys[1]).cell_status, "faulted");
  EXPECT_EQ(runner.outcomes().at(keys[2]).cell_status, "skipped");
  EXPECT_EQ(runner.outcomes().at(keys[3]).cell_status, "skipped");
  EXPECT_EQ(runner.outcomes().at(keys[4]).cell_status, "faulted");
  EXPECT_EQ(runner.outcomes().at(keys[5]).cell_status, "skipped");
  const auto census = sup.breaker().Census();
  ASSERT_EQ(census.size(), 1u);
  EXPECT_EQ(census[0].trips, 2u);
  EXPECT_EQ(census[0].skipped, 3u);
}

// ---------------------------------------------------------------------------
// Graceful drain.

TEST(Drain, CancelsQueuedCellsAndMarksTheBatchInterrupted) {
  std::atomic<bool> drain{false};
  RunnerOptions o;
  o.jobs = 1;  // serialize: first cell executes, then the flag is up
  o.repeats = 1;
  o.drain = &drain;
  o.run_fn = [&drain](const Workload& wl, RunMode m, const SystemConfig& c) {
    drain.store(true);  // as if SIGINT arrived mid-cell
    return sim::Run(wl, m, c);
  };
  BatchRunner runner(o);
  const Workload wl = workloads::MakeVecAdd(512);
  const auto keys = runner.SubmitMatrix(wl);
  const BatchReport report = runner.Finish();
  EXPECT_TRUE(report.interrupted);
  EXPECT_EQ(report.cancelled_cells, 3u);
  EXPECT_EQ(runner.outcomes().at(keys[0]).cell_status, "ok");
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(runner.outcomes().at(keys[i]).cell_status, "cancelled") << i;
  }
  // Cancelled cells are an interruption, not a correctness violation:
  // the partial report still validates.
  EXPECT_TRUE(report.ok());
}

TEST(Drain, SupervisorReportsInterruptedRunStatus) {
  Supervisor::DrainFlag().store(false);
  SupervisorOptions so;
  so.install_signal_drain = false;
  so.breaker_threshold = 0;
  Supervisor sup(so);
  ASSERT_TRUE(sup.Init());
  RunnerOptions o;
  o.jobs = 1;
  o.repeats = 1;
  sup.Attach(o);
  EXPECT_EQ(o.drain, &Supervisor::DrainFlag());
  BatchRunner runner(o);
  (void)runner.Submit(workloads::MakeVecAdd(512), RunMode::kScalar, {});
  const BatchReport report = runner.Finish();
  EXPECT_EQ(sup.Extras(report).run_status, "complete");
  Supervisor::DrainFlag().store(true);
  EXPECT_EQ(sup.Extras(report).run_status, "interrupted");
  Supervisor::DrainFlag().store(false);
}

// ---------------------------------------------------------------------------
// mini_json binary-safety: JsonEscape -> ParseJson is byte-exact for
// arbitrary (including non-UTF-8) input — the serving daemon embeds
// simulation error strings in its responses and relies on this.

TEST(MiniJson, EverySingleByteRoundTripsThroughEscapeAndParse) {
  for (int b = 0; b < 256; ++b) {
    const std::string original(1, static_cast<char>(b));
    std::string text = "\"";
    text += JsonEscape(original);
    text += '"';
    JsonValue v;
    std::string err;
    ASSERT_TRUE(ParseJson(text, v, &err)) << "byte " << b << ": " << err;
    ASSERT_TRUE(v.is_string()) << "byte " << b;
    EXPECT_EQ(v.AsString(), original) << "byte " << b;
  }
}

TEST(MiniJson, FullBinaryStringRoundTripsByteExactly) {
  std::string original;
  for (int b = 0; b < 256; ++b) original.push_back(static_cast<char>(b));
  // Stress the validator's resynchronization: valid UTF-8 islands between
  // stretches of garbage.
  original += "\xC3\xA9 plain \xF0\x9F\x99\x82 text \xFF\xFE";
  std::string text = "\"";
  text += JsonEscape(original);
  text += '"';
  JsonValue v;
  ASSERT_TRUE(ParseJson(text, v));
  EXPECT_EQ(v.AsString(), original);
}

TEST(MiniJson, MalformedUtf8IsEscapedToPureAscii) {
  // Lone continuation byte, truncated two-byte sequence, overlong
  // encoding of '/': each must come out as \u00XX escapes, never as raw
  // high bytes that would make the emitted JSON invalid UTF-8.
  const std::vector<std::string> cases = {"\xFF", "\xC3", "\xC0\xAF",
                                          "ok\x80stray"};
  for (const std::string& bad : cases) {
    const std::string escaped = JsonEscape(bad);
    for (const char c : escaped) {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
      EXPECT_LT(static_cast<unsigned char>(c), 0x7Fu);
    }
    std::string text = "\"";
    text += escaped;
    text += '"';
    JsonValue v;
    ASSERT_TRUE(ParseJson(text, v));
    EXPECT_EQ(v.AsString(), bad);
  }
}

TEST(MiniJson, WellFormedUtf8PassesThroughUnescaped) {
  const std::string utf8 = "caf\xC3\xA9 \xE2\x82\xAC \xF0\x9F\x99\x82";
  EXPECT_EQ(JsonEscape(utf8), utf8);
}

// ---------------------------------------------------------------------------
// Emitted bytes. Stored cells and downstream tools read the record codec
// and the bench report byte for byte, so both are pinned; and no report
// may carry a byte that is not well-formed UTF-8.

// A hand-built result with every optional block the emitters know.
sim::RunResult PinnedResult() {
  sim::RunResult r;
  r.workload = "Pin \"q\"\\";
  r.mode = RunMode::kDsa;
  r.output_ok = true;
  r.cycles = 123456;
  r.cpu = {1000, 700, 300, 210, 90, 64, 5, 1400, 333, 44, 120, 17};
  r.l1 = {900, 100};
  r.l2 = {80, 20};
  r.dram_accesses = 20;
  r.energy = {1.5, 0.25, 0.125, 1.0 / 3.0, 2e-7, 12345.678, 0.1};
  r.output_digest = 0x0123456789abcdefull;
  r.host_steps = 4242;
  r.host_wall_ms = 1.25;
  r.host_phases = {0.5, 0.25, 0.125, 0.0625};
  engine::DsaStats d;
  d.loops_by_class = {{engine::LoopClass::kCount, 2},
                      {engine::LoopClass::kSentinel, 1}};
  d.entries_by_class = {{engine::LoopClass::kCount, 9}};
  d.rejects_by_reason = {{engine::RejectReason::kNonUnitStride, 3}};
  d.stage_activations = {6, 5, 4, 3, 2, 1};
  d.analysis_cycles = 11;
  d.observed_instructions = 12;
  d.takeovers = 13;
  d.cache_hit_takeovers = 14;
  d.fusions_formed = 15;
  d.fusion_demotions = 16;
  d.sentinel_respeculations = 17;
  d.vectorized_iterations = 18;
  d.scalar_covered_instrs = 19;
  d.vector_instrs_issued = 20;
  d.array_map_accesses = 21;
  d.vc_accesses = 22;
  d.dsa_cache_accesses = 23;
  d.rollbacks = 24;
  d.blacklisted_loops = 25;
  d.cache_corruptions_detected = 26;
  r.dsa = d;
  fault::FaultReport fr;
  fr.plan = fault::ParseFaultPlan("cidp@0,bitflip@2+3;seed=7");
  fr.opportunities = {1, 2, 3, 4, 5, 6};
  fr.fired = {1, 0, 0, 0, 3, 0};
  r.faults = fr;
  r.stream_bytes = 4096;
  r.gen = sim::GenInfo{99, "sentinel", 64};
  return r;
}

sim::JobOutcome PinnedOutcome() {
  sim::JobOutcome out;
  out.key = "Pin@neon-dsa/tag";
  out.workload_key = "Pin";
  out.mode = RunMode::kDsa;
  out.config_tag = "tag";
  out.runs = {PinnedResult(), PinnedResult()};
  out.wall_ms = 2.5;
  out.attempts = 2;
  return out;
}

// The per-cell wall_ms is measured; everything else in the report below
// is a pure function of the pinned result.
std::string MaskCellWallMs(const std::string& json) {
  static const std::regex kCellWall(R"("wall_ms": [-0-9.e+]+, "runs")");
  return std::regex_replace(json, kCellWall, R"("wall_ms": 0, "runs")");
}

// Runs the cells of `modes` (VecAdd 512) through `run_fn` and returns the
// bench report WriteBenchJson wrote for them.
std::string BenchReportFor(
    const std::vector<RunMode>& modes,
    const std::function<sim::RunResult(const Workload&, RunMode,
                                       const SystemConfig&)>& run_fn,
    const sim::BenchJsonExtras* extras) {
  RunnerOptions o;
  o.jobs = 1;
  o.repeats = 1;
  o.oracle = false;
  o.run_fn = run_fn;
  BatchRunner runner(o);
  const Workload wl = workloads::MakeVecAdd(512);
  for (const RunMode m : modes) (void)runner.Submit(wl, m, {});
  BatchReport report = runner.Finish();
  report.wall_ms = 0;
  const std::string path = TempPath("pinned_report.json");
  EXPECT_TRUE(sim::WriteBenchJson(path, "pin", runner, report, extras));
  std::string json = Slurp(path);
  std::remove(path.c_str());
  return json;
}

bool AllAscii(const std::string& s) {
  return std::all_of(s.begin(), s.end(), [](char c) {
    return static_cast<unsigned char>(c) < 0x80;
  });
}

TEST(EmittedBytes, SerializeRunResultIsPinned) {
  EXPECT_EQ(SerializeRunResult(PinnedResult()),
            "{\"workload\":\"Pin \\\"q\\\"\\\\\",\"mode\":3,\"output_ok\":true,"
            "\"cycles\":123456,\"cpu\":[1000,700,300,210,90,64,5,1400,333,44,"
            "120,17],\"l1\":[900,100],\"l2\":[80,20],\"dram\":20,"
            "\"energy\":[1.5,0.25,0.125,0.33333333333333331,"
            "1.9999999999999999e-07,12345.678,0.10000000000000001],"
            "\"digest\":\"0x0123456789abcdef\",\"host_steps\":4242,"
            "\"host_wall_ms\":1.25,\"dsa\":{\"counters\":[11,12,13,14,15,16,17,"
            "18,19,20,21,22,23,24,25,26],\"stages\":[6,5,4,3,2,1],"
            "\"loops\":[[0,2],[4,1]],\"entries\":[[0,9]],\"rejects\":[[3,3]]},"
            "\"faults\":{\"plan\":\"cidp@0,bitflip@2+3;seed=7\","
            "\"opportunities\":[1,2,3,4,5,6],\"fired\":[1,0,0,0,3,0]}}");
}

TEST(EmittedBytes, SerializeOutcomeIsPinned) {
  EXPECT_EQ(SerializeOutcome(PinnedOutcome()),
            "{\"kind\":\"cell\",\"key\":\"Pin@neon-dsa/tag\",\"status\":\"ok\","
            "\"attempts\":2,\"wall_ms\":2.5,\"runs\":2,"
            "\"result\":{\"workload\":\"Pin \\\"q\\\"\\\\\",\"mode\":3,"
            "\"output_ok\":true,\"cycles\":123456,\"cpu\":[1000,700,300,210,90,"
            "64,5,1400,333,44,120,17],\"l1\":[900,100],\"l2\":[80,20],"
            "\"dram\":20,\"energy\":[1.5,0.25,0.125,0.33333333333333331,"
            "1.9999999999999999e-07,12345.678,0.10000000000000001],"
            "\"digest\":\"0x0123456789abcdef\",\"host_steps\":4242,"
            "\"host_wall_ms\":1.25,\"dsa\":{\"counters\":[11,12,13,14,15,16,17,"
            "18,19,20,21,22,23,24,25,26],\"stages\":[6,5,4,3,2,1],"
            "\"loops\":[[0,2],[4,1]],\"entries\":[[0,9]],\"rejects\":[[3,3]]},"
            "\"faults\":{\"plan\":\"cidp@0,bitflip@2+3;seed=7\","
            "\"opportunities\":[1,2,3,4,5,6],\"fired\":[1,0,0,0,3,0]}}}");
}

TEST(EmittedBytes, BenchReportIsPinned) {
  sim::BenchJsonExtras extras;
  extras.cache_dir = "/tmp/pin-cache";
  extras.cache_stores = 2;
  extras.cache_fsync_failures = 1;
  extras.breaker_enabled = true;
  extras.breaker = {{"VecAdd", "half-open", 1, 2, 3}};
  const std::string json = BenchReportFor(
      {RunMode::kScalar, RunMode::kHandVec, RunMode::kDsa},
      [](const Workload&, RunMode mode, const SystemConfig&) {
        if (mode == RunMode::kHandVec) {
          throw std::runtime_error("pinned \"failure\"\n\ttab");
        }
        return PinnedResult();
      },
      &extras);
  EXPECT_EQ(MaskCellWallMs(json),
            "{\"schema\": \"dsa-bench-json/6\", \"bench\": \"pin\","
            " \"jobs\": 1, \"repeats\": 1, \"wall_ms\": 0,"
            " \"distinct_jobs\": 3, \"executed_runs\": 2, \"faulted_cells\": 1,"
            " \"memo_hits\": 0, \"restored_cells\": 0, \"cancelled_cells\": 0,"
            " \"run_status\": \"complete\","
            " \"cache\": {\"dir\": \"/tmp/pin-cache\", \"restored\": 0,"
            " \"stores\": 2, \"store_failures\": 0, \"fsync_failures\": 1,"
            " \"warning\": \"[io-fault] 0 store failure(s),"
            " 1 fsync failure(s): cell-store durability not guaranteed\"},"
            " \"breaker\": {\"enabled\": true,"
            " \"workloads\": [{\"workload\": \"VecAdd\","
            " \"state\": \"half-open\", \"failures\": 1, \"trips\": 2,"
            " \"skipped\": 3}]}, \"oracle\": {\"enabled\": false,"
            " \"ok\": false,"
            " \"violations\": [{\"job\": \"VecAdd@neon-handvec\","
            " \"check\": \"run.exception\","
            " \"detail\": \"pinned \\\"failure\\\"\\u000a\\u0009tab\"}]},"
            " \"results\": [\n"
            "  {\"job\": \"VecAdd@arm-original\","
            " \"workload\": \"Pin \\\"q\\\"\\\\\", \"mode\": \"arm-original\","
            " \"config\": \"\", \"cell_status\": \"ok\", \"attempts\": 1,"
            " \"cycles\": 123456, \"speedup_vs_scalar\": 1,"
            " \"output_ok\": true, \"output_digest\": \"0x0123456789abcdef\","
            " \"wall_ms\": 0, \"runs\": 1, \"host\": {\"mips\": 3.3936,"
            " \"wall_ms\": 1.25, \"steps\": 4242,"
            " \"phases\": {\"dispatch_ms\": 0.5, \"observe_ms\": 0.25,"
            " \"mem_ms\": 0.125, \"neon_ms\": 0.0625}},"
            " \"stream\": {\"bytes\": 4096, \"gbps\": 0.0331778},"
            " \"gen\": {\"seed\": 99, \"class\": \"sentinel\", \"count\": 64},"
            " \"cpu\": {\"retired_total\": 1000, \"retired_scalar\": 700,"
            " \"retired_vector\": 300, \"branches\": 64, \"mispredicts\": 5,"
            " \"mem_stall_cycles\": 333, \"other_stall_cycles\": 44,"
            " \"neon_busy_cycles\": 120, \"dsa_overhead_cycles\": 17},"
            " \"l1\": {\"hits\": 900, \"misses\": 100}, \"l2\": {\"hits\": 80,"
            " \"misses\": 20}, \"dram_accesses\": 20,"
            " \"energy\": {\"core_dynamic\": 1.5, \"core_static\": 0.25,"
            " \"neon_dynamic\": 0.125, \"neon_static\": 0.333333,"
            " \"cache_dram\": 2e-07, \"dsa_dynamic\": 12345.7,"
            " \"dsa_static\": 0.1, \"total\": 12348},"
            " \"faults\": {\"plan\": \"cidp@0,bitflip@2+3;seed=7\","
            " \"seed\": 7, \"total_fired\": 4, \"opportunities\": {\"cidp\": 1,"
            " \"cache\": 2, \"lane\": 3, \"sentinel\": 4, \"bitflip\": 5,"
            " \"mem\": 6}, \"fired\": {\"cidp\": 1, \"cache\": 0, \"lane\": 0,"
            " \"sentinel\": 0, \"bitflip\": 3, \"mem\": 0}},"
            " \"detection_latency_pct\": 1.1, \"dsa\": {\"takeovers\": 13,"
            " \"cache_hit_takeovers\": 14, \"vectorized_iterations\": 18,"
            " \"scalar_covered_instrs\": 19, \"vector_instrs_issued\": 20,"
            " \"analysis_cycles\": 11, \"fusions_formed\": 15,"
            " \"fusion_demotions\": 16, \"sentinel_respeculations\": 17,"
            " \"rollbacks\": 24, \"blacklisted_loops\": 25,"
            " \"cache_corruptions_detected\": 26,"
            " \"stage_activations\": {\"loop-detection\": 6,"
            " \"data-collection\": 5, \"dependency-analysis\": 4,"
            " \"store-id/execution\": 3, \"mapping\": 2,"
            " \"speculative-execution\": 1}, \"loops_by_class\": {\"count\": 2,"
            " \"sentinel\": 1}}}\n"
            "  , {\"job\": \"VecAdd@neon-dsa\","
            " \"workload\": \"Pin \\\"q\\\"\\\\\", \"mode\": \"neon-dsa\","
            " \"config\": \"\", \"cell_status\": \"ok\", \"attempts\": 1,"
            " \"cycles\": 123456, \"speedup_vs_scalar\": 1,"
            " \"output_ok\": true, \"output_digest\": \"0x0123456789abcdef\","
            " \"wall_ms\": 0, \"runs\": 1, \"host\": {\"mips\": 3.3936,"
            " \"wall_ms\": 1.25, \"steps\": 4242,"
            " \"phases\": {\"dispatch_ms\": 0.5, \"observe_ms\": 0.25,"
            " \"mem_ms\": 0.125, \"neon_ms\": 0.0625}},"
            " \"stream\": {\"bytes\": 4096, \"gbps\": 0.0331778},"
            " \"gen\": {\"seed\": 99, \"class\": \"sentinel\", \"count\": 64},"
            " \"cpu\": {\"retired_total\": 1000, \"retired_scalar\": 700,"
            " \"retired_vector\": 300, \"branches\": 64, \"mispredicts\": 5,"
            " \"mem_stall_cycles\": 333, \"other_stall_cycles\": 44,"
            " \"neon_busy_cycles\": 120, \"dsa_overhead_cycles\": 17},"
            " \"l1\": {\"hits\": 900, \"misses\": 100}, \"l2\": {\"hits\": 80,"
            " \"misses\": 20}, \"dram_accesses\": 20,"
            " \"energy\": {\"core_dynamic\": 1.5, \"core_static\": 0.25,"
            " \"neon_dynamic\": 0.125, \"neon_static\": 0.333333,"
            " \"cache_dram\": 2e-07, \"dsa_dynamic\": 12345.7,"
            " \"dsa_static\": 0.1, \"total\": 12348},"
            " \"faults\": {\"plan\": \"cidp@0,bitflip@2+3;seed=7\","
            " \"seed\": 7, \"total_fired\": 4, \"opportunities\": {\"cidp\": 1,"
            " \"cache\": 2, \"lane\": 3, \"sentinel\": 4, \"bitflip\": 5,"
            " \"mem\": 6}, \"fired\": {\"cidp\": 1, \"cache\": 0, \"lane\": 0,"
            " \"sentinel\": 0, \"bitflip\": 3, \"mem\": 0}},"
            " \"detection_latency_pct\": 1.1, \"dsa\": {\"takeovers\": 13,"
            " \"cache_hit_takeovers\": 14, \"vectorized_iterations\": 18,"
            " \"scalar_covered_instrs\": 19, \"vector_instrs_issued\": 20,"
            " \"analysis_cycles\": 11, \"fusions_formed\": 15,"
            " \"fusion_demotions\": 16, \"sentinel_respeculations\": 17,"
            " \"rollbacks\": 24, \"blacklisted_loops\": 25,"
            " \"cache_corruptions_detected\": 26,"
            " \"stage_activations\": {\"loop-detection\": 6,"
            " \"data-collection\": 5, \"dependency-analysis\": 4,"
            " \"store-id/execution\": 3, \"mapping\": 2,"
            " \"speculative-execution\": 1}, \"loops_by_class\": {\"count\": 2,"
            " \"sentinel\": 1}}}\n"
            "  , {\"job\": \"VecAdd@neon-handvec\", \"workload\": \"VecAdd\","
            " \"mode\": \"neon-handvec\", \"config\": \"\","
            " \"cell_status\": \"faulted\", \"attempts\": 1, \"runs\": 0,"
            " \"error\": \"pinned \\\"failure\\\"\\u000a\\u0009tab\"}\n"
            "]}\n");
}

TEST(EmittedBytes, InvalidUtf8InACellErrorIsEscapedInTheReport) {
  const std::string error = "bad byte \xff here";
  const std::string json = BenchReportFor(
      {RunMode::kScalar},
      [&error](const Workload&, RunMode, const SystemConfig&)
          -> sim::RunResult { throw std::runtime_error(error); },
      nullptr);
  // The only non-ASCII input byte is not UTF-8, so it must be escaped.
  EXPECT_TRUE(AllAscii(json));
  JsonValue doc;
  ASSERT_TRUE(ParseJson(json, doc));
  const JsonValue* results = doc.Find("results");
  ASSERT_TRUE(results != nullptr && results->array.size() == 1);
  ASSERT_NE(results->array[0].Find("error"), nullptr);
  EXPECT_EQ(results->array[0].Find("error")->AsString(), error);
}

TEST(EmittedBytes, InvalidUtf8InTheCacheDirIsEscapedInTheReport) {
  sim::BenchJsonExtras extras;
  extras.cache_dir = "/tmp/cache\xff";
  const std::string json = BenchReportFor(
      {RunMode::kScalar},
      [](const Workload&, RunMode, const SystemConfig&) {
        return PinnedResult();
      },
      &extras);
  EXPECT_TRUE(AllAscii(json));
  JsonValue doc;
  ASSERT_TRUE(ParseJson(json, doc));
  const JsonValue* cache = doc.Find("cache");
  ASSERT_TRUE(cache != nullptr && cache->Find("dir") != nullptr);
  EXPECT_EQ(cache->Find("dir")->AsString(), extras.cache_dir);
}

// ---------------------------------------------------------------------------
// Breaker half-open wedge (regression): a probe cell that dies with a
// *non*-DsaError used to escape the supervisor's wrapper without a
// Record(false), leaving probe_in_flight latched — the breaker sat in
// half-open forever, admitting nothing and never re-opening. The fix
// records the probe failure on any escape path.

TEST(Breaker, ProbeDyingWithNonDsaErrorReopensInsteadOfWedging) {
  SupervisorOptions so;
  so.breaker_threshold = 2;
  so.breaker_probe_after = 2;
  so.install_signal_drain = false;
  Supervisor sup(so);
  ASSERT_TRUE(sup.Init());
  RunnerOptions o;
  o.jobs = 1;  // serialize so the transition sequence is deterministic
  o.repeats = 1;
  o.oracle = false;
  o.max_retries = 0;
  o.retry_backoff_ms = 0;
  // Not a DsaError: the class of escape that used to bypass Record().
  o.run_fn = [](const Workload&, RunMode,
                const SystemConfig&) -> sim::RunResult {
    throw std::runtime_error("probe dies outside the DsaError taxonomy");
  };
  sup.Attach(o);
  BatchRunner runner(o);
  const Workload wl = workloads::MakeVecAdd(512);
  std::vector<std::string> keys;
  for (int i = 0; i < 6; ++i) {
    keys.push_back(
        runner.Submit(wl, RunMode::kDsa, {}, "cfg" + std::to_string(i)));
  }
  (void)runner.Finish();
  // Cells 0-1 fail (-> open, trip 1), 2-3 are skipped (-> half-open),
  // cell 4 is the probe: its runtime_error must count as a probe failure
  // and re-open the breaker (trip 2), so cell 5 is skipped — not wedged
  // behind a probe_in_flight that never clears.
  EXPECT_EQ(runner.outcomes().at(keys[0]).cell_status, "faulted");
  EXPECT_EQ(runner.outcomes().at(keys[1]).cell_status, "faulted");
  EXPECT_EQ(runner.outcomes().at(keys[2]).cell_status, "skipped");
  EXPECT_EQ(runner.outcomes().at(keys[3]).cell_status, "skipped");
  EXPECT_EQ(runner.outcomes().at(keys[4]).cell_status, "faulted");
  EXPECT_EQ(runner.outcomes().at(keys[5]).cell_status, "skipped");
  const auto census = sup.breaker().Census();
  ASSERT_EQ(census.size(), 1u);
  EXPECT_EQ(census[0].state, "open");  // wedged would read "half-open"
  EXPECT_EQ(census[0].trips, 2u);
  EXPECT_EQ(census[0].skipped, 3u);
}

// ---------------------------------------------------------------------------
// Host-I/O fault injection (iofault.h, docs/FAULTS.md).

// The injector is process-global; every test must leave it disarmed.
struct IoFaultPlanGuard {
  ~IoFaultPlanGuard() { ClearIoFaultPlan(); }
};

TEST(IoFaultPlan, KindTokensRoundTrip) {
  for (int k = 0; k < kNumIoFaultKinds; ++k) {
    const auto kind = static_cast<IoFaultKind>(k);
    IoFaultKind parsed;
    ASSERT_TRUE(ParseIoFaultKind(ToString(kind), parsed)) << ToString(kind);
    EXPECT_EQ(parsed, kind);
  }
  IoFaultKind out;
  EXPECT_FALSE(ParseIoFaultKind("sigbus", out));
  EXPECT_FALSE(ParseIoFaultKind("", out));
}

TEST(IoFaultPlan, GrammarRoundTripsThroughFormat) {
  for (const char* spec :
       {"enospc@0", "fsync-fail@0+", "short-write@2+3;seed=42",
        "eio@1,rename-fail@0+2", "open-fail@7;seed=1"}) {
    const IoFaultPlan plan = ParseIoFaultPlan(spec);
    ASSERT_TRUE(plan.enabled()) << spec;
    const std::string canonical = FormatIoFaultPlan(plan);
    const IoFaultPlan again = ParseIoFaultPlan(canonical);
    EXPECT_EQ(FormatIoFaultPlan(again), canonical) << spec;
    EXPECT_EQ(again.specs.size(), plan.specs.size());
    EXPECT_EQ(again.seed, plan.seed);
  }
  EXPECT_EQ(ParseIoFaultPlan("short-write@2+3;seed=42").seed, 42u);
  EXPECT_TRUE(ParseIoFaultPlan("fsync-fail@0+").specs[0].count == UINT64_MAX);
}

TEST(IoFaultPlan, RefusesMalformedSpecs) {
  for (const char* bad :
       {"enospc", "enospc@", "@3", "frobnicate@0", "enospc@x",
        "enospc@0+x", "enospc@0;seed=", "enospc@0;seed=12x", ",",
        "enospc@18446744073709551616"}) {
    EXPECT_THROW((void)ParseIoFaultPlan(bad), std::invalid_argument) << bad;
  }
}

TEST(IoFaultInjector, PassthroughWhenDisarmed) {
  IoFaultPlanGuard guard;
  ClearIoFaultPlan();
  EXPECT_FALSE(IoFaultsActive());
  const std::string path = TempPath("iofault_passthrough");
  const int fd = IoOpen(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0666);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(IoWrite(fd, "abc", 3), 3);
  EXPECT_EQ(IoFsync(fd), 0);
  ::close(fd);
  const std::string moved = path + ".moved";
  EXPECT_EQ(IoRename(path.c_str(), moved.c_str()), 0);
  std::remove(moved.c_str());
}

// Replays one fixed syscall script against the installed plan and
// records which calls failed — the determinism contract is that the
// same (plan, seed) yields the same verdict sequence every time.
std::string RunFaultScript() {
  const std::string path = TempPath("iofault_script");
  std::string verdicts;
  for (int i = 0; i < 6; ++i) {
    const int fd = IoOpen(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0666);
    if (fd < 0) {
      verdicts += 'O';  // open refused
      continue;
    }
    const ssize_t n = IoWrite(fd, "0123456789", 10);
    verdicts += n == 10 ? '.' : (n > 0 ? 'S' : 'W');
    verdicts += IoFsync(fd) == 0 ? '.' : 'F';
    ::close(fd);
    const std::string to = path + ".pub";
    verdicts += IoRename(path.c_str(), to.c_str()) == 0 ? '.' : 'R';
    std::remove(to.c_str());
  }
  std::remove(path.c_str());
  return verdicts;
}

TEST(IoFaultInjector, SamePlanSameSeedSameSequence) {
  IoFaultPlanGuard guard;
  const char* spec =
      "eio@1+2,short-write@0+,fsync-fail@2,rename-fail@4+;seed=99";
  InstallIoFaultPlan(ParseIoFaultPlan(spec));
  ASSERT_TRUE(IoFaultsActive());
  const std::string first = RunFaultScript();
  const IoFaultCensus census1 = GetIoFaultCensus();

  InstallIoFaultPlan(ParseIoFaultPlan(spec));  // reinstall resets counters
  const std::string second = RunFaultScript();
  const IoFaultCensus census2 = GetIoFaultCensus();

  EXPECT_EQ(first, second);
  EXPECT_EQ(census1.opportunities, census2.opportunities);
  EXPECT_EQ(census1.fired, census2.fired);
  EXPECT_GT(census1.total_fired(), 0u);
  // The armed kinds actually fired: eio twice, fsync once, renames from
  // opportunity 4 on.
  EXPECT_EQ(census1.fired[static_cast<int>(IoFaultKind::kEio)], 2u);
  EXPECT_EQ(census1.fired[static_cast<int>(IoFaultKind::kFsyncFail)], 1u);
  EXPECT_GE(census1.fired[static_cast<int>(IoFaultKind::kRenameFail)], 1u);
}

TEST(IoFaultInjector, ShortWriteAlwaysMakesProgress) {
  IoFaultPlanGuard guard;
  InstallIoFaultPlan(ParseIoFaultPlan("short-write@0+;seed=3"));
  const std::string path = TempPath("iofault_short");
  const int fd = IoOpen(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0666);
  ASSERT_GE(fd, 0);
  // Every shortened write still lands >= 1 byte, so a standard retry
  // loop terminates with the full payload on disk.
  const std::string payload(64, 'z');
  std::size_t off = 0;
  int calls = 0;
  while (off < payload.size()) {
    const ssize_t n = IoWrite(fd, payload.data() + off, payload.size() - off);
    ASSERT_GT(n, 0);
    ASSERT_LE(static_cast<std::size_t>(n), payload.size() - off);
    off += static_cast<std::size_t>(n);
    ++calls;
  }
  ::close(fd);
  EXPECT_GT(calls, 1);  // at least one write actually got shortened
  EXPECT_EQ(Slurp(path), payload);
  std::remove(path.c_str());
}

TEST(IoFaultInjector, ErrnoMatchesTheRealSyscall) {
  IoFaultPlanGuard guard;
  InstallIoFaultPlan(ParseIoFaultPlan("enospc@0"));
  const std::string path = TempPath("iofault_errno");
  const int fd = IoOpen(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0666);
  ASSERT_GE(fd, 0);
  errno = 0;
  EXPECT_EQ(IoWrite(fd, "x", 1), -1);
  EXPECT_EQ(errno, ENOSPC);
  EXPECT_EQ(IoWrite(fd, "x", 1), 1);  // count exhausted: passthrough
  ::close(fd);
  std::remove(path.c_str());

  InstallIoFaultPlan(ParseIoFaultPlan("open-fail@0"));
  errno = 0;
  EXPECT_LT(IoOpen(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0666), 0);
  EXPECT_EQ(errno, EMFILE);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dsa::resilience
