#include "sim/runner.h"

#include <cinttypes>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "mem/json.h"
#include "sim/error.h"

namespace dsa::sim {

namespace {

std::string ModeSlug(RunMode m) { return std::string(ToString(m)); }

double ElapsedMs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

// Fills in the defaults: hardware_concurrency workers, at least one
// repeat, sim::Run as the run function.
RunnerOptions Normalized(RunnerOptions opts) {
  if (opts.jobs <= 0) {
    opts.jobs = static_cast<int>(std::thread::hardware_concurrency());
    if (opts.jobs <= 0) opts.jobs = 1;
  }
  if (opts.repeats < 1) opts.repeats = 1;
  if (!opts.run_fn) {
    opts.run_fn = [](const Workload& wl, RunMode mode,
                     const SystemConfig& cfg) { return Run(wl, mode, cfg); };
  }
  return opts;
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
    : opts_(Normalized(std::move(opts))),
      start_(std::chrono::steady_clock::now()),
      pool_(opts_.jobs) {}

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
  Pending* queued = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A concurrent Submit of the same key may have won the race.
    if (memo_hit()) return key;
    if (pending->done) {
      ++restored_cells_;
    } else {
      queued = pending.get();
      ++in_flight_;
    }
    jobs_.emplace(key, std::move(pending));
  }
  if (queued != nullptr) pool_.Submit([this, queued] { RunPending(*queued); });
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

void BatchRunner::RunPending(Pending& p) {
  ExecuteCell(p.job, opts_, p.outcome);
  p.outcome.key = p.key;  // the memo key (== JobKey(p.job) by Submit)
  // A cell the drain cancelled never ran: nothing to publish.
  if (opts_.on_outcome && p.outcome.cell_status != "cancelled") {
    opts_.on_outcome(p.outcome);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    p.done = true;
    --in_flight_;
  }
  done_cv_.notify_all();
}

void ExecuteCell(const BatchJob& job, const RunnerOptions& opts,
                 JobOutcome& out) {
  out.key = JobKey(job);
  out.workload_key = WorkloadKey(job);
  out.mode = job.mode;
  out.config_tag = job.config_tag;

  // Graceful drain: never start new work, but let in-flight cells
  // finish so the cell store and the partial report stay consistent.
  if (opts.drain != nullptr && opts.drain->load(std::memory_order_relaxed)) {
    out.cell_status = "cancelled";
    out.error = "cancelled: drain requested before this cell executed";
    return;
  }

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
      report.interrupted = true;
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

bool WriteBenchJson(const std::string& path, const std::string& bench_name,
                    const BatchRunner& runner, const BatchReport& report,
                    const BenchJsonExtras* extras) {
  constexpr const char* kNum = "%.6g";

  // Scalar baseline cycles per workload group, for the speedup column.
  std::map<std::string, std::uint64_t> baseline;
  for (const auto& [key, out] : runner.outcomes()) {
    if (out.mode == RunMode::kScalar && !out.runs.empty()) {
      baseline.emplace(out.workload_key, out.result().cycles);
    }
  }

  mem::JsonBuilder w(mem::JsonBuilder::Style::kSpaced);
  w.Object();
  w.Key("schema").Str("dsa-bench-json/6");
  w.Key("bench").Str(bench_name);
  w.Key("jobs").U64(static_cast<std::uint64_t>(runner.options().jobs));
  w.Key("repeats").U64(static_cast<std::uint64_t>(runner.options().repeats));
  w.Key("wall_ms").Num(report.wall_ms, kNum);
  w.Key("distinct_jobs").U64(report.distinct_jobs);
  w.Key("executed_runs").U64(report.executed_runs);
  w.Key("faulted_cells").U64(report.faulted_cells);
  w.Key("memo_hits").U64(report.memo_hits);
  w.Key("restored_cells").U64(report.restored_cells);
  w.Key("cancelled_cells").U64(report.cancelled_cells);
  w.Key("run_status").Str(extras != nullptr ? extras->run_status
                          : report.interrupted ? "interrupted"
                                               : "complete");
  if (extras != nullptr && !extras->cache_dir.empty()) {
    w.Key("cache").Object();
    w.Key("dir").Str(extras->cache_dir);
    w.Key("restored").U64(report.restored_cells);
    w.Key("stores").U64(extras->cache_stores);
    w.Key("store_failures").U64(extras->cache_store_failures);
    w.Key("fsync_failures").U64(extras->cache_fsync_failures);
    if (extras->cache_store_failures > 0 || extras->cache_fsync_failures > 0) {
      // Typed degradation instead of silent success: the store hit the
      // host's disk limits and some cells may not be durable.
      w.Key("warning").Str(
          "[io-fault] " + std::to_string(extras->cache_store_failures) +
          " store failure(s), " +
          std::to_string(extras->cache_fsync_failures) +
          " fsync failure(s): cell-store durability not guaranteed");
    }
    w.End();
  }
  if (extras != nullptr && extras->breaker_enabled) {
    w.Key("breaker").Object();
    w.Key("enabled").Bool(true);
    w.Key("workloads").Array();
    for (const BreakerCensusEntry& b : extras->breaker) {
      w.Object();
      w.Key("workload").Str(b.workload);
      w.Key("state").Str(b.state);
      w.Key("failures").U64(b.failures);
      w.Key("trips").U64(b.trips);
      w.Key("skipped").U64(b.skipped);
      w.End();
    }
    w.End().End();
  }

  w.Key("oracle").Object();
  w.Key("enabled").Bool(runner.options().oracle);
  w.Key("ok").Bool(report.ok());
  w.Key("violations").Array();
  for (const oracle::Violation& v : report.violations) {
    w.Object();
    w.Key("job").Str(v.job);
    w.Key("check").Str(v.check);
    w.Key("detail").Str(v.detail);
    w.End();
  }
  w.End().End();

  w.Key("results").Array();
  for (const auto& [key, out] : runner.outcomes()) {
    w.Whitespace("\n  ").Object();
    if (out.runs.empty()) {
      // A poisoned cell still shows up — minimal payload, no stats.
      w.Key("job").Str(key);
      w.Key("workload").Str(out.workload_key);
      w.Key("mode").Str(ModeSlug(out.mode));
      w.Key("config").Str(out.config_tag);
      w.Key("cell_status").Str(out.cell_status);
      w.Key("attempts").U64(out.attempts);
      w.Key("runs").U64(0);
      if (!out.error.empty()) w.Key("error").Str(out.error);
      w.End();
      continue;
    }
    const RunResult& r = out.result();
    w.Key("job").Str(key);
    w.Key("workload").Str(r.workload);
    w.Key("mode").Str(ModeSlug(out.mode));
    w.Key("config").Str(out.config_tag);
    w.Key("cell_status").Str(out.cell_status);
    w.Key("attempts").U64(out.attempts);
    if (out.restored) w.Key("restored").Bool(true);
    if (!out.error.empty()) w.Key("error").Str(out.error);
    w.Key("cycles").U64(r.cycles);
    const auto base = baseline.find(out.workload_key);
    if (base != baseline.end() && r.cycles > 0) {
      w.Key("speedup_vs_scalar")
          .Num(static_cast<double>(base->second) /
                   static_cast<double>(r.cycles),
               kNum);
    }
    w.Key("output_ok").Bool(r.output_ok);
    char digest[24];
    std::snprintf(digest, sizeof(digest), "0x%016" PRIx64, r.output_digest);
    w.Key("output_digest").Str(digest);
    w.Key("wall_ms").Num(out.wall_ms, kNum);
    w.Key("runs").U64(out.runs.size());

    // Host simulation throughput of the canonical run (schema /2;
    // `phases` — where the host milliseconds went — added in /6).
    w.Key("host").Object();
    w.Key("mips").Num(r.host_mips(), kNum);
    w.Key("wall_ms").Num(r.host_wall_ms, kNum);
    w.Key("steps").U64(r.host_steps);
    w.Key("phases").Object();
    w.Key("dispatch_ms").Num(r.host_phases.dispatch_ms, kNum);
    w.Key("observe_ms").Num(r.host_phases.observe_ms, kNum);
    w.Key("mem_ms").Num(r.host_phases.mem_ms, kNum);
    w.Key("neon_ms").Num(r.host_phases.neon_ms, kNum);
    w.End().End();

    // Streaming throughput and generator provenance (schema /5), present
    // only on workloads that declare them.
    if (r.stream_bytes > 0) {
      w.Key("stream").Object();
      w.Key("bytes").U64(r.stream_bytes);
      w.Key("gbps").Num(r.stream_gbps(), kNum);
      w.End();
    }
    if (r.gen.has_value()) {
      w.Key("gen").Object();
      w.Key("seed").U64(r.gen->seed);
      w.Key("class").Str(r.gen->loop_class);
      w.Key("count").U64(r.gen->count);
      w.End();
    }

    w.Key("cpu").Object();
    w.Key("retired_total").U64(r.cpu.retired_total);
    w.Key("retired_scalar").U64(r.cpu.retired_scalar);
    w.Key("retired_vector").U64(r.cpu.retired_vector);
    w.Key("branches").U64(r.cpu.branches);
    w.Key("mispredicts").U64(r.cpu.mispredicts);
    w.Key("mem_stall_cycles").U64(r.cpu.mem_stall_cycles);
    w.Key("other_stall_cycles").U64(r.cpu.other_stall_cycles);
    w.Key("neon_busy_cycles").U64(r.cpu.neon_busy_cycles);
    w.Key("dsa_overhead_cycles").U64(r.cpu.dsa_overhead_cycles);
    w.End();

    w.Key("l1").Object().Key("hits").U64(r.l1.hits);
    w.Key("misses").U64(r.l1.misses).End();
    w.Key("l2").Object().Key("hits").U64(r.l2.hits);
    w.Key("misses").U64(r.l2.misses).End();
    w.Key("dram_accesses").U64(r.dram_accesses);

    w.Key("energy").Object();
    w.Key("core_dynamic").Num(r.energy.core_dynamic, kNum);
    w.Key("core_static").Num(r.energy.core_static, kNum);
    w.Key("neon_dynamic").Num(r.energy.neon_dynamic, kNum);
    w.Key("neon_static").Num(r.energy.neon_static, kNum);
    w.Key("cache_dram").Num(r.energy.cache_dram, kNum);
    w.Key("dsa_dynamic").Num(r.energy.dsa_dynamic, kNum);
    w.Key("dsa_static").Num(r.energy.dsa_static, kNum);
    w.Key("total").Num(r.energy.total(), kNum);
    w.End();

    if (r.trace != nullptr) {
      w.Key("trace").Object();
      w.Key("emitted").U64(r.trace->emitted);
      w.Key("dropped").U64(r.trace->dropped);
      w.End();
    }

    if (r.faults.has_value()) {
      const fault::FaultReport& fr = *r.faults;
      w.Key("faults").Object();
      w.Key("plan").Str(fault::FormatFaultPlan(fr.plan));
      w.Key("seed").U64(fr.plan.seed);
      w.Key("total_fired").U64(fr.total_fired());
      w.Key("opportunities").Object();
      for (int k = 0; k < fault::kNumFaultKinds; ++k) {
        w.Key(ToString(static_cast<fault::FaultKind>(k)))
            .U64(fr.opportunities[k]);
      }
      w.End();
      w.Key("fired").Object();
      for (int k = 0; k < fault::kNumFaultKinds; ++k) {
        w.Key(ToString(static_cast<fault::FaultKind>(k))).U64(fr.fired[k]);
      }
      w.End().End();
    }

    if (r.dsa.has_value()) {
      const engine::DsaStats& d = *r.dsa;
      w.Key("detection_latency_pct").Num(r.detection_latency_pct(), kNum);
      w.Key("dsa").Object();
      w.Key("takeovers").U64(d.takeovers);
      w.Key("cache_hit_takeovers").U64(d.cache_hit_takeovers);
      w.Key("vectorized_iterations").U64(d.vectorized_iterations);
      w.Key("scalar_covered_instrs").U64(d.scalar_covered_instrs);
      w.Key("vector_instrs_issued").U64(d.vector_instrs_issued);
      w.Key("analysis_cycles").U64(d.analysis_cycles);
      w.Key("fusions_formed").U64(d.fusions_formed);
      w.Key("fusion_demotions").U64(d.fusion_demotions);
      w.Key("sentinel_respeculations").U64(d.sentinel_respeculations);
      w.Key("rollbacks").U64(d.rollbacks);
      w.Key("blacklisted_loops").U64(d.blacklisted_loops);
      w.Key("cache_corruptions_detected").U64(d.cache_corruptions_detected);
      w.Key("stage_activations").Object();
      for (int s = 0; s < engine::kNumStages; ++s) {
        w.Key(ToString(static_cast<engine::Stage>(s)))
            .U64(d.stage_activations[s]);
      }
      w.End();
      w.Key("loops_by_class").Object();
      for (const auto& [cls, n] : d.loops_by_class) {
        w.Key(engine::ToString(cls)).U64(n);
      }
      w.End().End();
    }
    w.End();
  }
  w.Whitespace("\n").End().End().Whitespace("\n");

  // The report is built in memory, written with one checked write to a
  // temporary sibling, then renamed, so a reader (or a kill signal) can
  // never observe a half-written report at `path`.
  const std::string& text = w.str();
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  const bool written =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (std::fclose(f) != 0 || !written ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace dsa::sim
