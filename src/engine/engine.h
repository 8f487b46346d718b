// DsaEngine: the Dynamic SIMD Assembler attached to the CPU's retired
// instruction stream (Fig. 9 / Fig. 10). While the ARM core executes, the
// engine probes for vectorizable loops in parallel (Scenario 1); when a
// loop is verified, it returns a TakeoverPlan and the system switches to
// NEON execution of the remaining iterations (Scenario 2).
//
// Functional execution of covered iterations stays on the scalar
// interpreter (Cpu::RunCovered on the threaded core; the reference twin's
// per-step covered loop in sim/system.cc) — exactly the paper's
// trace-level methodology, where "the timing model replaces the scalar
// vectorizable instructions by vector instructions". FinishTakeover()
// performs that replacement; no NEON lanes execute for a takeover.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cpu/cpu.h"
#include "engine/config.h"
#include "engine/dsa_cache.h"
#include "engine/stats.h"
#include "engine/tracker.h"
#include "engine/vector_cost.h"
#include "fault/fault.h"
#include "trace/trace.h"

namespace dsa::engine {

struct TakeoverPlan {
  LoopRecord record;  // the vectorized loop (the inner loop when fused)
  // Upper bound on covered iterations; 0 = run until the loop exits.
  // Sentinel loops bound coverage by the speculative range.
  std::uint64_t max_iterations = 0;
  bool from_cache = false;
  // Coverage region: [coverage_start, coverage_latch] is where the scalar
  // core is suspended; `count_latch` is the branch whose taken retires
  // count vectorized iterations. For plain loops all three equal the
  // record body's range; a fused outer loop covers the whole nest.
  std::uint32_t coverage_start = 0;
  std::uint32_t coverage_latch = 0;
  std::uint32_t count_latch = 0;
  // Best estimate of the covered iteration count at takeover time (trip
  // count for count/DRL loops, speculative window for sentinels); 0 when
  // unknown (fresh takeovers). The speculation guard sizes its store-undo
  // log from this.
  std::uint64_t expected_iterations = 0;
  // Fault injection: a forced CIDP misprediction fired on this plan, so
  // the vectorized execution is semantically wrong and the guard must
  // detect a divergence and roll back.
  bool forced_misprediction = false;
};

class DsaEngine {
 public:
  DsaEngine(const DsaConfig& cfg, const cpu::TimingConfig& timing);

  // Feeds one retired instruction (DSA probing mode). Returns a takeover
  // plan when a loop just became ready for NEON execution; the caller must
  // then run the covered region and call FinishTakeover().
  std::optional<TakeoverPlan> Observe(const cpu::Retired& r,
                                      const cpu::CpuState& state);

  // Applies the timing-model replacement for a covered region:
  // `covered_iterations` loop iterations whose `covered_scalar_instrs`
  // scalar instructions were removed from the timing by the caller.
  void FinishTakeover(const TakeoverPlan& plan,
                      std::uint64_t covered_iterations,
                      std::uint64_t covered_scalar_instrs, cpu::Cpu& cpu,
                      std::uint64_t glue_instrs = 0);

  // Called when a fused covered run met a store in the glue: the outer
  // record loses its fusion and is cooled down, so future entries fall
  // back to per-inner-loop takeovers.
  void DemoteFusion(std::uint32_t outer_latch_pc);

  [[nodiscard]] const DsaStats& stats() const { return stats_; }
  [[nodiscard]] const DsaCache& cache() const { return dsa_cache_; }
  [[nodiscard]] const DsaConfig& config() const { return cfg_; }

  // Attaches an execution tracer (nullptr detaches). The engine, its
  // caches and all trackers created afterwards emit events into it; the
  // caller keeps ownership and must outlive the engine or detach first.
  void set_tracer(trace::Tracer* tracer) {
    tracer_ = tracer;
    dsa_cache_.set_tracer(tracer);
  }
  [[nodiscard]] trace::Tracer* tracer() const { return tracer_; }

  // Forces the original per-retire bookkeeping in Observe() (no idle
  // shortcut, no cooldown-scan skip); stats are identical either way.
  void set_reference_path(bool ref) { reference_path_ = ref; }

  // Attaches a fault injector (nullptr detaches). While attached the DSA
  // cache runs in guarded mode (checksum validation + corruption counter)
  // and the engine fires cidp/cache faults at their trigger sites; the
  // caller keeps ownership.
  void set_fault_injector(fault::FaultInjector* injector) {
    injector_ = injector;
    dsa_cache_.set_validate(injector != nullptr);
    dsa_cache_.set_corruption_counter(
        injector != nullptr ? &stats_.cache_corruptions_detected : nullptr);
  }
  [[nodiscard]] fault::FaultInjector* fault_injector() const {
    return injector_;
  }

  // Called by the system when the speculation guard detected a divergence
  // after the covered run: counts the rollback, charges the squash+restore
  // penalty, records a strike against the loop PC and — after
  // cfg.blacklist_strikes strikes — blacklists it so every later encounter
  // executes purely scalar. Replaces FinishTakeover for the failed plan.
  void RecordRollback(const TakeoverPlan& plan, cpu::Cpu& cpu);

  [[nodiscard]] bool IsBlacklisted(std::uint32_t loop_id) const {
    return blacklist_.count(loop_id) != 0;
  }

  // Batched-observation interface (sim::Run's DSA fast loop). While idle()
  // — no tracker in flight — most retires are provably inert to Observe()
  // (FillObserveClasses below says which) and may be executed unobserved,
  // credited afterwards through ObserveSkipped() so observed_instructions
  // stays exact.
  [[nodiscard]] bool idle() const { return trackers_.empty(); }
  void ObserveSkipped(std::uint64_t n) { stats_.observed_instructions += n; }

  // Lowering-time observation relevance (docs/DISPATCH.md): writes one
  // ObsClass per pc into the CPU's threaded stream, proving per pc how an
  // idle engine would react to a retire there — inert (pure
  // observed_instructions credit), exit-and-observe, or
  // execute-inline-and-observe-only-when-taken. Valid while idle() and
  // until observe_epoch() changes; the epoch bumps on every mutation the
  // classification reads (cooldown set/erase via RecomputeCooldownBounds,
  // blacklist insert), so callers re-fill lazily on epoch mismatch.
  void FillObserveClasses(cpu::Cpu& cpu) const;
  [[nodiscard]] std::uint64_t observe_epoch() const { return obs_epoch_; }

 private:
  struct Cooldown {
    std::uint32_t start_pc = 0;
    bool sentinel_watch = false;
    std::uint64_t covered = 0;          // iterations vector-covered so far
    std::uint64_t extra_iterations = 0; // iterations run scalar afterwards
    std::uint64_t next_range = 0;       // re-speculation window (doubles)
  };

  std::optional<TakeoverPlan> HandleLatch(const cpu::Retired& r,
                                          const cpu::CpuState& state);
  std::optional<TakeoverPlan> PlanFromRecord(const LoopRecord& stored,
                                             const cpu::CpuState& state);
  void StoreRecord(const LoopRecord& rec, bool count_class);
  // Stage counting + the matching trace event (instant; spans are only
  // known to trackers).
  void CountStage(Stage s, std::uint32_t loop_id);
  void RecomputeCooldownBounds();
  void SetCooldown(std::uint32_t latch, const Cooldown& cd) {
    cooldowns_[latch] = cd;
    RecomputeCooldownBounds();
  }

  trace::Tracer* tracer_ = nullptr;
  bool reference_path_ = false;
  fault::FaultInjector* injector_ = nullptr;
  // Speculation-guard strike tracking: rollbacks per loop PC, and the set
  // of PCs degraded to scalar-only execution (per engine = per run).
  std::unordered_map<std::uint32_t, std::uint32_t> strikes_;
  std::unordered_set<std::uint32_t> blacklist_;
  DsaConfig cfg_;
  cpu::TimingConfig timing_;
  DsaCache dsa_cache_;
  VerificationCache vc_;
  DsaStats stats_;

  std::unordered_map<std::uint32_t, std::unique_ptr<LoopTracker>> trackers_;
  std::unordered_map<std::uint32_t, Cooldown> cooldowns_;  // by latch pc

  // PC-interest window for the cooldown scan: while every cooldown has
  // start_pc <= pc < latch the maintenance loop is provably a no-op, so
  // Observe skips it for cd_skip_lo_ <= pc < cd_skip_hi_ (lo = max start,
  // hi = min latch; empty map keeps lo > hi). Recomputed on every
  // cooldowns_ mutation.
  std::uint32_t cd_skip_lo_ = 1;
  std::uint32_t cd_skip_hi_ = 0;
  // Bumped whenever cooldowns_ or blacklist_ change — the two inputs of
  // FillObserveClasses — so sim::Run re-fills the CPU's observation
  // classes exactly when they could have gone stale. Starts at 1 so a
  // caller caching 0 always fills on first use.
  std::uint64_t obs_epoch_ = 1;
  std::vector<std::uint32_t> done_scratch_;  // reused across Observe calls
};

}  // namespace dsa::engine
