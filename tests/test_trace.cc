// Tracer tests: schema stability (the trace library's stage table must
// mirror the engine's Stage enum), zero-cost-off guarantees, the ring
// overflow policy, event ordering on a real traced run, the Chrome
// exporter round-trip, the oracle's trace-vs-counters cross-check, and
// tracing's observer property (identical cycles/outputs on and off).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/stats.h"
#include "resilience/mini_json.h"
#include "sim/oracle.h"
#include "sim/report.h"
#include "sim/system.h"
#include "trace/chrome_export.h"
#include "trace/trace.h"
#include "workloads/workloads.h"

namespace dsa {
namespace {

using sim::RunMode;
using sim::RunResult;
using sim::SystemConfig;
using trace::Event;
using trace::EventKind;
using trace::TraceDump;
using trace::Tracer;

RunResult TracedDsaRun(const sim::Workload& wl, std::uint32_t capacity =
                                                    trace::TraceConfig{}.capacity) {
  SystemConfig cfg;
  cfg.trace.enabled = true;
  cfg.trace.capacity = capacity;
  return Run(wl, RunMode::kDsa, cfg);
}

bool HasCheck(const std::vector<sim::oracle::Violation>& v,
              const char* check) {
  return std::any_of(v.begin(), v.end(),
                     [check](const sim::oracle::Violation& x) {
                       return x.check == check;
                     });
}

// --- schema stability -------------------------------------------------------

TEST(TraceSchema, StageTableMirrorsEngineEnum) {
  ASSERT_EQ(trace::kNumStages, engine::kNumStages);
  for (int s = 0; s < engine::kNumStages; ++s) {
    EXPECT_EQ(trace::kStageNames[s],
              engine::ToString(static_cast<engine::Stage>(s)))
        << "stage table drifted at index " << s;
  }
}

TEST(TraceSchema, EventKindNamesAreStable) {
  for (int k = 0; k < trace::kNumEventKinds; ++k) {
    EXPECT_NE(ToString(static_cast<EventKind>(k)), "?")
        << "unnamed event kind " << k;
  }
}

// --- zero-cost when disabled ------------------------------------------------

TEST(Tracer, DisabledTracerNeverAllocates) {
  Tracer off;
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.ring_capacity(), 0u);

  trace::TraceConfig cfg;  // enabled defaults to false
  cfg.capacity = 1u << 20;
  Tracer still_off(cfg);
  EXPECT_EQ(still_off.ring_capacity(), 0u);

  off.Emit(EventKind::kLoopDetected, 0x10);
  EXPECT_EQ(off.emitted(), 0u);
  EXPECT_EQ(off.Dump().events.size(), 0u);
}

TEST(Tracer, DisabledConfigDisablesTheWholeRun) {
  const sim::Workload wl = workloads::MakeVecAdd(256);
  const RunResult r = sim::Run(wl, RunMode::kDsa, SystemConfig{});
  EXPECT_EQ(r.trace, nullptr);
}

// --- ring overflow policy ---------------------------------------------------

TEST(Tracer, RingOverwritesOldestAndKeepsAggregatesExact) {
  trace::TraceConfig cfg;
  cfg.enabled = true;
  cfg.capacity = 4;
  Tracer t(cfg);
  for (std::uint64_t i = 0; i < 10; ++i) {
    t.SetNow(i);
    t.Emit(EventKind::kStageActivation, /*loop_id=*/0x10, /*stage=*/0, i);
  }
  const TraceDump d = t.Dump();
  EXPECT_EQ(d.emitted, 10u);
  EXPECT_EQ(d.dropped, 6u);
  ASSERT_EQ(d.events.size(), 4u);
  // Retained events are the newest four, oldest first.
  for (std::size_t i = 0; i < d.events.size(); ++i) {
    EXPECT_EQ(d.events[i].ts, 6 + i);
  }
  // The aggregate stage counter saw all ten emissions, not just the ring.
  EXPECT_EQ(d.stage_counts[0], 10u);
  EXPECT_EQ(d.kind_counts[static_cast<int>(EventKind::kStageActivation)],
            10u);
}

TEST(Tracer, ZeroCapacityDropsEverythingButCounts) {
  trace::TraceConfig cfg;
  cfg.enabled = true;
  cfg.capacity = 0;
  Tracer t(cfg);
  t.Emit(EventKind::kCacheHit, 0x20);
  const TraceDump d = t.Dump();
  EXPECT_EQ(d.emitted, 1u);
  EXPECT_EQ(d.dropped, 1u);
  EXPECT_TRUE(d.events.empty());
  EXPECT_EQ(d.kind_counts[static_cast<int>(EventKind::kCacheHit)], 1u);
}

// --- event ordering on a real run -------------------------------------------

TEST(TraceRun, EventsAreTimeOrderedAndLifecycleIsWellFormed) {
  const sim::Workload wl = workloads::MakeVecAdd(512);
  const RunResult r = TracedDsaRun(wl);
  ASSERT_NE(r.trace, nullptr);
  const TraceDump& t = *r.trace;
  ASSERT_EQ(t.dropped, 0u);
  ASSERT_GT(t.events.size(), 0u);

  std::uint64_t last_ts = 0;
  std::map<std::uint32_t, bool> detected;
  std::map<std::uint32_t, bool> classified;
  for (const Event& e : t.events) {
    EXPECT_GE(e.ts, last_ts) << "events must be emitted in time order";
    last_ts = e.ts;
    switch (e.kind) {
      case EventKind::kLoopDetected:
        detected[e.loop_id] = true;
        break;
      case EventKind::kLoopClassified:
        // A classification always follows this loop's detection — except
        // for outer-loop records, which are minted wholesale by a takeover
        // that interrupted the outer tracker (still a detected loop).
        EXPECT_TRUE(detected.count(e.loop_id))
            << "loop 0x" << std::hex << e.loop_id
            << " classified but never detected";
        classified[e.loop_id] = true;
        break;
      case EventKind::kTakeoverBegin:
        EXPECT_TRUE(classified.count(e.loop_id))
            << "takeover of an unclassified loop 0x" << std::hex << e.loop_id;
        break;
      case EventKind::kStageActivation:
        EXPECT_LT(e.arg0, static_cast<std::uint64_t>(trace::kNumStages));
        break;
      default:
        break;
    }
  }
  // The run vectorized something: takeover begin/end pairs balance.
  const auto begins =
      t.kind_counts[static_cast<int>(EventKind::kTakeoverBegin)];
  const auto ends = t.kind_counts[static_cast<int>(EventKind::kTakeoverEnd)];
  EXPECT_GT(begins, 0u);
  EXPECT_EQ(begins, ends);
}

// --- exporter round-trip ----------------------------------------------------

TEST(ChromeExport, RoundTripRederivesStageCounts) {
  const sim::Workload wl = workloads::MakeVecAdd(512);
  const RunResult r = TracedDsaRun(wl);
  ASSERT_NE(r.trace, nullptr);
  ASSERT_EQ(r.trace->dropped, 0u);

  const std::string path = ::testing::TempDir() + "trace_roundtrip.json";
  ASSERT_TRUE(trace::WriteChromeTrace(
      path, {trace::ChromeProcess{"vec_add@dsa", r.trace.get()}}));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();

  auto count = [&json](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + needle.size())) {
      ++n;
    }
    return n;
  };

  // Re-derive the per-stage activation counts from the emitted events and
  // compare against the aggregates the tracer kept — and against the
  // engine's own counters, closing the loop.
  ASSERT_TRUE(r.dsa.has_value());
  for (int s = 0; s < trace::kNumStages; ++s) {
    const std::string name =
        "\"stage:" + std::string(trace::kStageNames[s]) + "\"";
    EXPECT_EQ(count(name), r.trace->stage_counts[s]) << "stage " << s;
    EXPECT_EQ(count(name), r.dsa->stage_activations[s]) << "stage " << s;
  }
  // Structural sanity without a JSON parser: takeover B/E balance and the
  // schema marker.
  EXPECT_NE(json.find("\"schema\": \"dsa-trace/1\""), std::string::npos);
  EXPECT_EQ(count("\"ph\": \"B\""), count("\"ph\": \"E\""));
  std::remove(path.c_str());
}

// A process name is arbitrary bytes: a byte that is not well-formed UTF-8
// comes out escaped, so the trace stays valid JSON text, and parses back
// to the original name in both places it appears.
TEST(ChromeExport, InvalidUtf8ProcessNameIsEscaped) {
  const sim::Workload wl = workloads::MakeVecAdd(512);
  const RunResult r = TracedDsaRun(wl);
  ASSERT_NE(r.trace, nullptr);
  const std::string name = "vec_add\xff@dsa";
  const std::string path = ::testing::TempDir() + "trace_utf8.json";
  ASSERT_TRUE(trace::WriteChromeTrace(
      path, {trace::ChromeProcess{name, r.trace.get()}}));
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  std::remove(path.c_str());

  EXPECT_TRUE(std::all_of(json.begin(), json.end(), [](char c) {
    return static_cast<unsigned char>(c) < 0x80;
  }));
  resilience::JsonValue doc;
  ASSERT_TRUE(resilience::ParseJson(json, doc));
  const resilience::JsonValue* events = doc.Find("traceEvents");
  ASSERT_TRUE(events != nullptr && !events->array.empty());
  const resilience::JsonValue* args = events->array[0].Find("args");
  ASSERT_TRUE(args != nullptr && args->Find("name") != nullptr);
  EXPECT_EQ(args->Find("name")->AsString(), name);
  const resilience::JsonValue* meta = doc.Find("metadata");
  ASSERT_NE(meta, nullptr);
  const resilience::JsonValue* procs = meta->Find("processes");
  ASSERT_TRUE(procs != nullptr && procs->array.size() == 1);
  ASSERT_NE(procs->array[0].Find("name"), nullptr);
  EXPECT_EQ(procs->array[0].Find("name")->AsString(), name);
}

// --- oracle cross-check -----------------------------------------------------

TEST(TraceOracle, CleanTracedRunPasses) {
  const sim::Workload wl = workloads::MakeVecAdd(512);
  const RunResult r = TracedDsaRun(wl);
  const auto v = sim::oracle::CheckInvariants(r, "vec_add@dsa");
  EXPECT_TRUE(v.empty()) << sim::oracle::FormatViolations(v);
}

TEST(TraceOracle, CorruptedAggregateIsCaught) {
  const sim::Workload wl = workloads::MakeVecAdd(512);
  RunResult r = TracedDsaRun(wl);
  ASSERT_NE(r.trace, nullptr);
  TraceDump bad = *r.trace;
  ++bad.stage_counts[0];
  r.trace = std::make_shared<const TraceDump>(std::move(bad));
  const auto v = sim::oracle::CheckInvariants(r, "vec_add@dsa");
  EXPECT_TRUE(HasCheck(v, "invariant.trace_stage_aggregate"))
      << sim::oracle::FormatViolations(v);
}

TEST(TraceOracle, CorruptedEventStreamIsCaught) {
  const sim::Workload wl = workloads::MakeVecAdd(512);
  RunResult r = TracedDsaRun(wl);
  ASSERT_NE(r.trace, nullptr);
  ASSERT_EQ(r.trace->dropped, 0u);
  TraceDump bad = *r.trace;
  // Drop one stage-activation event while keeping the aggregates: the
  // event-reconstruction check must notice the stream no longer matches.
  const auto it = std::find_if(bad.events.begin(), bad.events.end(),
                               [](const Event& e) {
                                 return e.kind == EventKind::kStageActivation;
                               });
  ASSERT_NE(it, bad.events.end());
  bad.events.erase(it);
  r.trace = std::make_shared<const TraceDump>(std::move(bad));
  const auto v = sim::oracle::CheckInvariants(r, "vec_add@dsa");
  EXPECT_TRUE(HasCheck(v, "invariant.trace_stage_events"))
      << sim::oracle::FormatViolations(v);
}

TEST(TraceOracle, OverflowedRingStillChecksAggregates) {
  const sim::Workload wl = workloads::MakeVecAdd(512);
  const RunResult r = TracedDsaRun(wl, /*capacity=*/8);
  ASSERT_NE(r.trace, nullptr);
  EXPECT_GT(r.trace->dropped, 0u);
  // Event reconstruction is skipped (the ring is lossy), but the exact
  // aggregates still gate the run.
  const auto v = sim::oracle::CheckInvariants(r, "vec_add@dsa@tiny-ring");
  EXPECT_TRUE(v.empty()) << sim::oracle::FormatViolations(v);
}

// --- tracing is an observer -------------------------------------------------

TEST(TraceRun, TracingDoesNotPerturbTheSimulation) {
  for (const sim::Workload& wl :
       {workloads::MakeVecAdd(512), workloads::MakeDijkstra()}) {
    const RunResult off = sim::Run(wl, RunMode::kDsa, SystemConfig{});
    const RunResult on = TracedDsaRun(wl);
    EXPECT_EQ(off.cycles, on.cycles) << wl.name;
    EXPECT_EQ(off.output_digest, on.output_digest) << wl.name;
    EXPECT_EQ(off.cpu.retired_total, on.cpu.retired_total) << wl.name;
    ASSERT_TRUE(off.dsa.has_value());
    ASSERT_TRUE(on.dsa.has_value());
    for (int s = 0; s < engine::kNumStages; ++s) {
      EXPECT_EQ(off.dsa->stage_activations[s], on.dsa->stage_activations[s])
          << wl.name << " stage " << s;
    }
  }
}

// --- per-loop text profile --------------------------------------------------

TEST(TraceProfile, MentionsEveryTakenOverLoop) {
  const sim::Workload wl = workloads::MakeVecAdd(512);
  const RunResult r = TracedDsaRun(wl);
  const std::string profile = sim::FormatTraceProfile(r);
  ASSERT_FALSE(profile.empty());
  EXPECT_NE(profile.find("takeovers="), std::string::npos);
  EXPECT_NE(profile.find("loop-detection="), std::string::npos);
  EXPECT_NE(profile.find("dropped=0"), std::string::npos);
  // Untraced results produce no profile.
  EXPECT_TRUE(
      sim::FormatTraceProfile(sim::Run(wl, RunMode::kDsa, SystemConfig{})).empty());
}

}  // namespace
}  // namespace dsa
