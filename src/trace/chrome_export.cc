#include "trace/chrome_export.h"

#include <cstdio>

#include "mem/json.h"

namespace dsa::trace {

namespace {

// Track (tid) layout inside each traced process.
constexpr int kTidStages = 1;
constexpr int kTidTakeovers = 2;
constexpr int kTidNeon = 3;
constexpr int kTidLifecycle = 4;

// Cycles (1 GHz -> ns) to Chrome microseconds.
double Us(std::uint64_t cycles) { return static_cast<double>(cycles) / 1000.0; }

constexpr const char* kUs = "%.3f";

// Opens one event: its name, phase, timestamp, pid and tid. The caller
// adds the kind's own fields and closes the object.
void BeginEvent(mem::JsonBuilder& w, int pid, int tid, const char* ph,
                double ts, std::string_view name) {
  w.Whitespace("\n  ").Object();
  w.Key("name").Str(name);
  w.Key("ph").Str(ph);
  w.Key("ts").Num(ts, kUs);
  w.Key("pid").I64(pid);
  w.Key("tid").I64(tid);
}

// Opens the event's "args" object with its "loop" id.
void BeginArgs(mem::JsonBuilder& w, std::uint32_t loop_id) {
  char loop[16];
  std::snprintf(loop, sizeof(loop), "0x%x", loop_id);
  w.Key("args").Object().Key("loop").Str(loop);
}

void MetaEvent(mem::JsonBuilder& w, int pid, int tid, const char* key,
               std::string_view value) {
  w.Whitespace("\n  ").Object();
  w.Key("name").Str(key);
  w.Key("ph").Str("M");
  w.Key("pid").I64(pid);
  if (tid >= 0) w.Key("tid").I64(tid);
  w.Key("args").Object().Key("name").Str(value).End();
  w.End();
}

void WriteEvent(mem::JsonBuilder& w, int pid, bool& takeover_open,
                const Event& e) {
  switch (e.kind) {
    case EventKind::kStageActivation: {
      const std::string_view stage =
          e.arg0 < kNumStages ? kStageNames[e.arg0] : "?";
      char name[64];
      std::snprintf(name, sizeof(name), "stage:%.*s",
                    static_cast<int>(stage.size()), stage.data());
      const std::uint64_t begin = e.dur <= e.ts ? e.ts - e.dur : 0;
      BeginEvent(w, pid, kTidStages, "X", Us(begin), name);
      w.Key("dur").Num(Us(e.dur), kUs);
      BeginArgs(w, e.loop_id);
      w.Key("stage").U64(e.arg0).Key("iteration").U64(e.arg1);
      w.End().End();
      return;
    }
    case EventKind::kTakeoverBegin:
      BeginEvent(w, pid, kTidTakeovers, "B", Us(e.ts), "takeover");
      BeginArgs(w, e.loop_id);
      w.Key("from_cache").U64(e.arg0).Key("max_iterations").U64(e.arg1);
      w.End().End();
      takeover_open = true;
      return;
    case EventKind::kTakeoverEnd:
      BeginEvent(w, pid, kTidTakeovers, "E", Us(e.ts), "takeover");
      BeginArgs(w, e.loop_id);
      w.Key("iterations").U64(e.arg0).Key("covered_instrs").U64(e.arg1);
      w.End().End();
      takeover_open = false;
      return;
    case EventKind::kMisspecRollback:
      // A rolled-back takeover never reaches FinishTakeover, so no
      // kTakeoverEnd follows its kTakeoverBegin; close the Chrome span
      // here so B/E stay balanced. Guard on takeover_open: a ring
      // overflow may have dropped the matching begin.
      if (takeover_open) {
        BeginEvent(w, pid, kTidTakeovers, "E", Us(e.ts), "takeover");
        BeginArgs(w, e.loop_id);
        w.Key("rolled_back").U64(1).Key("strikes").U64(e.arg0);
        w.End().End();
        takeover_open = false;
      }
      break;  // fall through to the lifecycle instant below
    case EventKind::kNeonBurst: {
      const std::uint64_t begin = e.dur <= e.ts ? e.ts - e.dur : 0;
      BeginEvent(w, pid, kTidNeon, "X", Us(begin), "neon-burst");
      w.Key("dur").Num(Us(e.dur), kUs);
      BeginArgs(w, e.loop_id);
      w.Key("instrs").U64(e.arg0).Key("busy_cycles").U64(e.arg1);
      w.End().End();
      return;
    }
    default:
      break;
  }
  BeginEvent(w, pid, kTidLifecycle, "i", Us(e.ts), ToString(e.kind));
  w.Key("s").Str("t");
  BeginArgs(w, e.loop_id);
  w.Key("arg0").U64(e.arg0).Key("arg1").U64(e.arg1);
  w.End().End();
}

}  // namespace

bool WriteChromeTrace(const std::string& path,
                      const std::vector<ChromeProcess>& processes) {
  // Write-then-rename: an interrupted run either leaves the previous trace
  // intact or the complete new one, never a truncated JSON that
  // chrome://tracing rejects (docs/RESILIENCE.md).
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  // The writer is drained to the file after every event, so a ring of up
  // to 2^18 events is never held in memory a second time as text.
  mem::JsonBuilder w(mem::JsonBuilder::Style::kSpaced);
  bool written = true;
  const auto drain = [&] {
    written = written && std::fwrite(w.str().data(), 1, w.str().size(), f) ==
                             w.str().size();
    w.Clear();
  };

  w.Object();
  w.Key("schema").Str("dsa-trace/1");
  w.Key("displayTimeUnit").Str("ns");
  w.Key("traceEvents").Array();
  int pid = 0;
  for (const ChromeProcess& p : processes) {
    if (p.trace == nullptr) continue;
    ++pid;
    MetaEvent(w, pid, -1, "process_name", p.name);
    MetaEvent(w, pid, kTidStages, "thread_name", "DSA stages");
    MetaEvent(w, pid, kTidTakeovers, "thread_name", "NEON takeovers");
    MetaEvent(w, pid, kTidNeon, "thread_name", "NEON issue bursts");
    MetaEvent(w, pid, kTidLifecycle, "thread_name", "loop lifecycle");
    bool takeover_open = false;
    for (const Event& e : p.trace->events) {
      WriteEvent(w, pid, takeover_open, e);
      drain();
    }
  }
  w.Whitespace("\n").End();

  w.Key("metadata").Object().Key("processes").Array();
  pid = 0;
  for (const ChromeProcess& p : processes) {
    if (p.trace == nullptr) continue;
    ++pid;
    w.Whitespace("\n  ").Object();
    w.Key("pid").I64(pid);
    w.Key("name").Str(p.name);
    w.Key("emitted").U64(p.trace->emitted);
    w.Key("dropped").U64(p.trace->dropped);
    w.Key("ring_capacity").U64(p.trace->config.capacity);
    w.Key("stage_activations").Object();
    for (int s = 0; s < kNumStages; ++s) {
      w.Key(kStageNames[s]).U64(p.trace->stage_counts[s]);
    }
    w.End().End();
  }
  w.Whitespace("\n").End().End().End().Whitespace("\n");
  drain();
  if (std::fclose(f) != 0 || !written ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace dsa::trace
