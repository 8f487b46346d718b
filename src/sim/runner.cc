#include "sim/runner.h"

#include <cinttypes>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <utility>

#include "sim/error.h"

namespace dsa::sim {

namespace {

std::string ModeSlug(RunMode m) { return std::string(ToString(m)); }

double ElapsedMs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

std::string WorkloadKey(const BatchJob& job) {
  std::string key = job.workload.name;
  if (!job.workload_tag.empty()) key += "#" + job.workload_tag;
  return key;
}

std::string JobKey(const BatchJob& job) {
  std::string key = WorkloadKey(job) + "@" + ModeSlug(job.mode);
  if (!job.config_tag.empty()) key += "/" + job.config_tag;
  return key;
}

BatchRunner::BatchRunner(RunnerOptions opts)
    : opts_(std::move(opts)), start_(std::chrono::steady_clock::now()) {
  if (opts_.jobs <= 0) {
    opts_.jobs = static_cast<int>(std::thread::hardware_concurrency());
    if (opts_.jobs <= 0) opts_.jobs = 1;
  }
  if (opts_.repeats < 1) opts_.repeats = 1;
  if (!opts_.run_fn) {
    opts_.run_fn = [](const Workload& wl, RunMode mode,
                      const SystemConfig& cfg) { return Run(wl, mode, cfg); };
  }
  workers_.reserve(static_cast<std::size_t>(opts_.jobs));
  for (int i = 0; i < opts_.jobs; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

BatchRunner::~BatchRunner() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::string BatchRunner::Submit(BatchJob job) {
  std::string key = JobKey(job);
  // True, and counted, when the key was already submitted; needs mu_.
  const auto memo_hit = [&] {
    if (jobs_.count(key) == 0) return false;
    ++memo_hits_;
    return true;
  };
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (memo_hit()) return key;
  }
  auto pending = std::make_unique<Pending>();
  pending->key = key;
  // Resume seam, outside the lock: restoring may hash the whole workload,
  // and workers must not stall on it. The restore callback fills the full
  // outcome (runs, stats, status), so downstream consumers cannot tell a
  // restored cell apart from a fresh execution.
  if (opts_.restore_fn && opts_.restore_fn(job, pending->outcome)) {
    JobOutcome& out = pending->outcome;
    out.key = key;
    out.workload_key = WorkloadKey(job);
    out.mode = job.mode;
    out.config_tag = job.config_tag;
    out.restored = true;
    pending->done = true;
  }
  pending->job = std::move(job);
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A concurrent Submit of the same key may have won the race.
    if (memo_hit()) return key;
    if (pending->done) {
      ++restored_cells_;
    } else {
      queue_.push_back(pending.get());
      ++in_flight_;
    }
    jobs_.emplace(key, std::move(pending));
  }
  queue_cv_.notify_one();
  return key;
}

std::array<std::string, 4> BatchRunner::SubmitMatrix(
    const Workload& wl, const SystemConfig& cfg, const std::string& config_tag,
    const std::string& workload_tag) {
  std::array<std::string, 4> keys;
  const RunMode modes[] = {RunMode::kScalar, RunMode::kAutoVec,
                           RunMode::kHandVec, RunMode::kDsa};
  for (int i = 0; i < 4; ++i) {
    keys[i] = Submit(BatchJob{wl, modes[i], cfg, config_tag, workload_tag});
  }
  return keys;
}

void BatchRunner::WorkerLoop() {
  for (;;) {
    Pending* p = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      p = queue_.front();
      queue_.pop_front();
    }
    const bool drained = opts_.drain != nullptr &&
                         opts_.drain->load(std::memory_order_relaxed);
    if (drained) {
      // Graceful drain: never start new work, but let in-flight cells
      // finish so the cell store and the partial report stay consistent.
      JobOutcome& out = p->outcome;
      out.key = p->key;
      out.workload_key = WorkloadKey(p->job);
      out.mode = p->job.mode;
      out.config_tag = p->job.config_tag;
      out.cell_status = "cancelled";
      out.error = "drained: batch interrupted before this cell executed";
    } else {
      Execute(*p);
      if (opts_.on_outcome) opts_.on_outcome(p->outcome);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (drained) interrupted_ = true;
      p->done = true;
      --in_flight_;
    }
    done_cv_.notify_all();
  }
}

void ExecuteCell(const BatchJob& job, const RunnerOptions& opts,
                 JobOutcome& out) {
  out.key = JobKey(job);
  out.workload_key = WorkloadKey(job);
  out.mode = job.mode;
  out.config_tag = job.config_tag;

  // Watchdog: cap the cell's interpreter step budget so a runaway loop
  // trips DsaError{kStepLimit} instead of wedging the worker thread.
  SystemConfig cfg = job.config;
  if (opts.max_cell_steps > 0 &&
      (cfg.max_steps == 0 || cfg.max_steps > opts.max_cell_steps)) {
    cfg.max_steps = opts.max_cell_steps;
  }

  const int repeats = opts.repeats < 1 ? 1 : opts.repeats;
  for (int rep = 0; rep < repeats; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int attempt = 0;; ++attempt) {
      ++out.attempts;
      try {
        out.runs.push_back(opts.run_fn(job.workload, job.mode, cfg));
        break;
      } catch (const DsaError& e) {
        out.error = e.what();
        // Only transient harness failures earn a bounded retry with
        // exponential backoff; deterministic errors (step limit, OOB,
        // bad workload) would fail identically again. Process-level
        // failures map to their own statuses ("crashed"/"timeout"/"oom"/
        // "skipped") so the JSON census can tell them apart.
        if (!e.transient() || attempt >= opts.max_retries) {
          out.cell_status = std::string(CellStatusFor(e.code()));
          return;
        }
        if (opts.retry_backoff_ms > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(
              static_cast<std::int64_t>(opts.retry_backoff_ms) << attempt));
        }
        out.error.clear();
      } catch (const std::exception& e) {
        out.error = e.what();
        out.cell_status = "faulted";
        return;
      }
    }
    if (rep == 0) out.wall_ms = ElapsedMs(t0);
  }
  out.cell_status = "ok";
}

void BatchRunner::Execute(Pending& p) {
  ExecuteCell(p.job, opts_, p.outcome);
  p.outcome.key = p.key;  // the memo key (== JobKey(p.job) by Submit)
}

const JobOutcome& BatchRunner::Get(const std::string& key) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = jobs_.find(key);
  if (it == jobs_.end()) {
    throw std::invalid_argument("BatchRunner::Get: unknown job " + key);
  }
  Pending* p = it->second.get();
  done_cv_.wait(lock, [p] { return p->done; });
  if (!p->outcome.error.empty()) {
    throw std::runtime_error("job " + key + " failed: " + p->outcome.error);
  }
  return p->outcome;
}

const JobOutcome& BatchRunner::Outcome(const std::string& key) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = jobs_.find(key);
  if (it == jobs_.end()) {
    throw std::invalid_argument("BatchRunner::Outcome: unknown job " + key);
  }
  Pending* p = it->second.get();
  done_cv_.wait(lock, [p] { return p->done; });
  return p->outcome;
}

BatchReport BatchRunner::Finish() {
  BatchReport report;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return in_flight_ == 0; });
    outcomes_.clear();
    for (const auto& [key, pending] : jobs_) {
      outcomes_.emplace(key, pending->outcome);
    }
    report.memo_hits = memo_hits_;
    report.restored_cells = restored_cells_;
    report.interrupted = interrupted_;
  }

  report.distinct_jobs = outcomes_.size();
  for (const auto& [key, out] : outcomes_) {
    report.executed_runs += out.runs.size();
    if (out.cell_status != "ok") ++report.faulted_cells;
    if (out.cell_status == "cancelled") {
      // A graceful drain abandoned this cell before it executed; that is
      // an interruption (BatchReport::interrupted, run_status in the
      // JSON), not a correctness violation of anything that ran.
      ++report.cancelled_cells;
      continue;
    }
    if (!out.error.empty()) {
      report.violations.push_back(
          oracle::Violation{key, "run.exception", out.error});
    }
  }

  if (opts_.oracle) {
    // Per-run invariants + determinism between repeated executions.
    for (const auto& [key, out] : outcomes_) {
      if (out.runs.empty()) continue;
      auto v = oracle::CheckInvariants(out.result(), key);
      report.violations.insert(report.violations.end(), v.begin(), v.end());
      for (std::size_t i = 1; i < out.runs.size(); ++i) {
        auto d = oracle::CheckDeterminism(out.runs[0], out.runs[i], key);
        report.violations.insert(report.violations.end(), d.begin(), d.end());
      }
    }
    // Output equivalence across modes of the same workload. The reference
    // is a scalar run when the batch contains one (the paper's baseline);
    // otherwise any member, which still enforces within-group agreement.
    std::map<std::string, std::vector<const JobOutcome*>> groups;
    for (const auto& [key, out] : outcomes_) {
      if (!out.runs.empty()) groups[out.workload_key].push_back(&out);
    }
    for (const auto& [wkey, members] : groups) {
      const JobOutcome* ref = members.front();
      for (const JobOutcome* m : members) {
        if (m->mode == RunMode::kScalar) {
          ref = m;
          break;
        }
      }
      for (const JobOutcome* m : members) {
        if (m == ref) continue;
        auto v = oracle::CheckEquivalence(ref->result(), m->result(), m->key);
        report.violations.insert(report.violations.end(), v.begin(), v.end());
      }
    }
  }

  report.wall_ms = ElapsedMs(start_);
  return report;
}

// ---------------------------------------------------------------------------
// JSON emission.

namespace {

class JsonWriter {
 public:
  explicit JsonWriter(std::FILE* f) : f_(f) {}

  void Raw(const char* s) { std::fputs(s, f_); }
  void Key(const char* name) {
    Comma();
    std::fprintf(f_, "\"%s\": ", name);
    fresh_ = true;
  }
  void Str(const char* name, const std::string& value) {
    Key(name);
    std::fputc('"', f_);
    for (const char c : value) {
      if (c == '"' || c == '\\') std::fputc('\\', f_);
      if (static_cast<unsigned char>(c) < 0x20) {
        std::fprintf(f_, "\\u%04x", c);
      } else {
        std::fputc(c, f_);
      }
    }
    std::fputc('"', f_);
    fresh_ = false;
  }
  void U64(const char* name, std::uint64_t v) {
    Key(name);
    std::fprintf(f_, "%" PRIu64, v);
    fresh_ = false;
  }
  void Dbl(const char* name, double v) {
    Key(name);
    std::fprintf(f_, "%.6g", v);
    fresh_ = false;
  }
  void Bool(const char* name, bool v) {
    Key(name);
    std::fputs(v ? "true" : "false", f_);
    fresh_ = false;
  }
  void Open(const char* name, char bracket) {
    if (name != nullptr) {
      Key(name);
    } else {
      Comma();
    }
    std::fputc(bracket, f_);
    fresh_ = true;
  }
  void Close(char bracket) {
    std::fputc(bracket, f_);
    fresh_ = false;
  }

 private:
  void Comma() {
    if (!fresh_) std::fputs(", ", f_);
    fresh_ = false;
  }

  std::FILE* f_;
  bool fresh_ = true;
};

}  // namespace

bool WriteBenchJson(const std::string& path, const std::string& bench_name,
                    const BatchRunner& runner, const BatchReport& report,
                    const BenchJsonExtras* extras) {
  // Write-then-rename so a reader (or a kill signal) can never observe a
  // half-written report at `path`.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  JsonWriter w(f);

  // Scalar baseline cycles per workload group, for the speedup column.
  std::map<std::string, std::uint64_t> baseline;
  for (const auto& [key, out] : runner.outcomes()) {
    if (out.mode == RunMode::kScalar && !out.runs.empty()) {
      baseline.emplace(out.workload_key, out.result().cycles);
    }
  }

  w.Open(nullptr, '{');
  w.Str("schema", "dsa-bench-json/6");
  w.Str("bench", bench_name);
  w.U64("jobs", static_cast<std::uint64_t>(runner.options().jobs));
  w.U64("repeats", static_cast<std::uint64_t>(runner.options().repeats));
  w.Dbl("wall_ms", report.wall_ms);
  w.U64("distinct_jobs", report.distinct_jobs);
  w.U64("executed_runs", report.executed_runs);
  w.U64("faulted_cells", report.faulted_cells);
  w.U64("memo_hits", report.memo_hits);
  w.U64("restored_cells", report.restored_cells);
  w.U64("cancelled_cells", report.cancelled_cells);
  w.Str("run_status", extras != nullptr ? extras->run_status
                                        : (report.interrupted ? "interrupted"
                                                              : "complete"));
  if (extras != nullptr && !extras->cache_dir.empty()) {
    w.Open("cache", '{');
    w.Str("dir", extras->cache_dir);
    w.U64("restored", report.restored_cells);
    w.U64("stores", extras->cache_stores);
    w.U64("store_failures", extras->cache_store_failures);
    w.U64("fsync_failures", extras->cache_fsync_failures);
    if (extras->cache_store_failures > 0 || extras->cache_fsync_failures > 0) {
      // Typed degradation instead of silent success: the store hit the
      // host's disk limits and some cells may not be durable.
      w.Str("warning",
            "[io-fault] " + std::to_string(extras->cache_store_failures) +
                " store failure(s), " +
                std::to_string(extras->cache_fsync_failures) +
                " fsync failure(s): cell-store durability not guaranteed");
    }
    w.Close('}');
  }
  if (extras != nullptr && extras->breaker_enabled) {
    w.Open("breaker", '{');
    w.Bool("enabled", true);
    w.Open("workloads", '[');
    for (const BreakerCensusEntry& b : extras->breaker) {
      w.Open(nullptr, '{');
      w.Str("workload", b.workload);
      w.Str("state", b.state);
      w.U64("failures", b.failures);
      w.U64("trips", b.trips);
      w.U64("skipped", b.skipped);
      w.Close('}');
    }
    w.Close(']');
    w.Close('}');
  }

  w.Open("oracle", '{');
  w.Bool("enabled", runner.options().oracle);
  w.Bool("ok", report.ok());
  w.Open("violations", '[');
  for (const oracle::Violation& v : report.violations) {
    w.Open(nullptr, '{');
    w.Str("job", v.job);
    w.Str("check", v.check);
    w.Str("detail", v.detail);
    w.Close('}');
  }
  w.Close(']');
  w.Close('}');

  w.Open("results", '[');
  for (const auto& [key, out] : runner.outcomes()) {
    if (out.runs.empty()) {
      // A poisoned cell still shows up — minimal payload, no stats.
      w.Raw("\n  ");
      w.Open(nullptr, '{');
      w.Str("job", key);
      w.Str("workload", out.workload_key);
      w.Str("mode", ModeSlug(out.mode));
      w.Str("config", out.config_tag);
      w.Str("cell_status", out.cell_status);
      w.U64("attempts", out.attempts);
      w.U64("runs", 0);
      if (!out.error.empty()) w.Str("error", out.error);
      w.Close('}');
      continue;
    }
    const RunResult& r = out.result();
    w.Raw("\n  ");
    w.Open(nullptr, '{');
    w.Str("job", key);
    w.Str("workload", r.workload);
    w.Str("mode", ModeSlug(out.mode));
    w.Str("config", out.config_tag);
    w.Str("cell_status", out.cell_status);
    w.U64("attempts", out.attempts);
    if (out.restored) w.Bool("restored", true);
    if (!out.error.empty()) w.Str("error", out.error);
    w.U64("cycles", r.cycles);
    const auto base = baseline.find(out.workload_key);
    if (base != baseline.end() && r.cycles > 0) {
      w.Dbl("speedup_vs_scalar",
            static_cast<double>(base->second) / static_cast<double>(r.cycles));
    }
    w.Bool("output_ok", r.output_ok);
    char digest[32];
    std::snprintf(digest, sizeof(digest), "0x%016" PRIx64, r.output_digest);
    w.Str("output_digest", digest);
    w.Dbl("wall_ms", out.wall_ms);
    w.U64("runs", static_cast<std::uint64_t>(out.runs.size()));

    // Host simulation throughput of the canonical run (schema /2;
    // `dispatch` — the interpreter core that actually ran — added in /5;
    // `phases` — where the host milliseconds went — added in /6).
    w.Open("host", '{');
    w.Dbl("mips", r.host_mips());
    w.Dbl("wall_ms", r.host_wall_ms);
    w.U64("steps", r.host_steps);
    w.Str("dispatch", std::string(cpu::ToString(r.host_dispatch)));
    w.Open("phases", '{');
    w.Dbl("dispatch_ms", r.host_phases.dispatch_ms);
    w.Dbl("observe_ms", r.host_phases.observe_ms);
    w.Dbl("mem_ms", r.host_phases.mem_ms);
    w.Dbl("neon_ms", r.host_phases.neon_ms);
    w.Close('}');
    w.Close('}');

    // Streaming throughput and generator provenance (schema /5), present
    // only on workloads that declare them.
    if (r.stream_bytes > 0) {
      w.Open("stream", '{');
      w.U64("bytes", r.stream_bytes);
      w.Dbl("gbps", r.stream_gbps());
      w.Close('}');
    }
    if (r.gen.has_value()) {
      w.Open("gen", '{');
      w.U64("seed", r.gen->seed);
      w.Str("class", r.gen->loop_class);
      w.U64("count", r.gen->count);
      w.Close('}');
    }

    w.Open("cpu", '{');
    w.U64("retired_total", r.cpu.retired_total);
    w.U64("retired_scalar", r.cpu.retired_scalar);
    w.U64("retired_vector", r.cpu.retired_vector);
    w.U64("branches", r.cpu.branches);
    w.U64("mispredicts", r.cpu.mispredicts);
    w.U64("mem_stall_cycles", r.cpu.mem_stall_cycles);
    w.U64("other_stall_cycles", r.cpu.other_stall_cycles);
    w.U64("neon_busy_cycles", r.cpu.neon_busy_cycles);
    w.U64("dsa_overhead_cycles", r.cpu.dsa_overhead_cycles);
    w.Close('}');

    w.Open("l1", '{');
    w.U64("hits", r.l1.hits);
    w.U64("misses", r.l1.misses);
    w.Close('}');
    w.Open("l2", '{');
    w.U64("hits", r.l2.hits);
    w.U64("misses", r.l2.misses);
    w.Close('}');
    w.U64("dram_accesses", r.dram_accesses);

    w.Open("energy", '{');
    w.Dbl("core_dynamic", r.energy.core_dynamic);
    w.Dbl("core_static", r.energy.core_static);
    w.Dbl("neon_dynamic", r.energy.neon_dynamic);
    w.Dbl("neon_static", r.energy.neon_static);
    w.Dbl("cache_dram", r.energy.cache_dram);
    w.Dbl("dsa_dynamic", r.energy.dsa_dynamic);
    w.Dbl("dsa_static", r.energy.dsa_static);
    w.Dbl("total", r.energy.total());
    w.Close('}');

    if (r.trace != nullptr) {
      w.Open("trace", '{');
      w.U64("emitted", r.trace->emitted);
      w.U64("dropped", r.trace->dropped);
      w.Close('}');
    }

    if (r.faults.has_value()) {
      const fault::FaultReport& fr = *r.faults;
      w.Open("faults", '{');
      w.Str("plan", fault::FormatFaultPlan(fr.plan));
      w.U64("seed", fr.plan.seed);
      w.U64("total_fired", fr.total_fired());
      w.Open("opportunities", '{');
      for (int k = 0; k < fault::kNumFaultKinds; ++k) {
        w.U64(std::string(ToString(static_cast<fault::FaultKind>(k))).c_str(),
              fr.opportunities[k]);
      }
      w.Close('}');
      w.Open("fired", '{');
      for (int k = 0; k < fault::kNumFaultKinds; ++k) {
        w.U64(std::string(ToString(static_cast<fault::FaultKind>(k))).c_str(),
              fr.fired[k]);
      }
      w.Close('}');
      w.Close('}');
    }

    if (r.dsa.has_value()) {
      const engine::DsaStats& d = *r.dsa;
      w.Dbl("detection_latency_pct", r.detection_latency_pct());
      w.Open("dsa", '{');
      w.U64("takeovers", d.takeovers);
      w.U64("cache_hit_takeovers", d.cache_hit_takeovers);
      w.U64("vectorized_iterations", d.vectorized_iterations);
      w.U64("scalar_covered_instrs", d.scalar_covered_instrs);
      w.U64("vector_instrs_issued", d.vector_instrs_issued);
      w.U64("analysis_cycles", d.analysis_cycles);
      w.U64("fusions_formed", d.fusions_formed);
      w.U64("fusion_demotions", d.fusion_demotions);
      w.U64("sentinel_respeculations", d.sentinel_respeculations);
      w.U64("rollbacks", d.rollbacks);
      w.U64("blacklisted_loops", d.blacklisted_loops);
      w.U64("cache_corruptions_detected", d.cache_corruptions_detected);
      w.Open("stage_activations", '{');
      for (int s = 0; s < engine::kNumStages; ++s) {
        w.U64(std::string(ToString(static_cast<engine::Stage>(s))).c_str(),
              d.stage_activations[s]);
      }
      w.Close('}');
      w.Open("loops_by_class", '{');
      for (const auto& [cls, n] : d.loops_by_class) {
        w.U64(std::string(engine::ToString(cls)).c_str(), n);
      }
      w.Close('}');
      w.Close('}');
    }
    w.Close('}');
  }
  w.Raw("\n");
  w.Close(']');
  w.Close('}');
  w.Raw("\n");
  if (std::fclose(f) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace dsa::sim
