// System harness: wires memory, cache hierarchy, the scalar CPU, the NEON
// engine and (in DSA mode) the Dynamic SIMD Assembler; runs one workload
// variant to completion and reports cycles, instruction mix, cache stats,
// DSA stats, and energy (Table 4 system setups). The fast run loops drive
// the Cpu's threaded batched loops (free run, DSA-idle skip, covered
// takeovers including fused nests) and step per retire only while a
// tracker analyzes a loop; reference and traced runs step every retire
// and cover takeovers with their own per-step loop (docs/DISPATCH.md).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "cpu/cpu.h"
#include "energy/energy_model.h"
#include "engine/config.h"
#include "engine/engine.h"
#include "fault/fault.h"
#include "mem/cache.h"
#include "sim/error.h"
#include "sim/workload.h"
#include "trace/trace.h"

namespace dsa::sim {

// The four systems of the evaluation (Table 4).
enum class RunMode {
  kScalar,   // ARM Original Execution (no DLP)
  kAutoVec,  // ARM NEON compiler auto-vectorization
  kHandVec,  // ARM NEON hand-vectorized library code
  kDsa,      // ARM + NEON + Dynamic SIMD Assembler (scalar binary)
};

[[nodiscard]] std::string_view ToString(RunMode m);

struct RunResult {
  std::string workload;
  RunMode mode = RunMode::kScalar;
  bool output_ok = false;
  std::uint64_t cycles = 0;
  cpu::CpuStats cpu;
  mem::CacheStats l1;
  mem::CacheStats l2;
  std::uint64_t dram_accesses = 0;
  std::optional<engine::DsaStats> dsa;
  energy::EnergyBreakdown energy;

  // What the fault injector actually did (kDsa runs with
  // SystemConfig::faults armed only): the plan plus per-kind
  // opportunity/fired counters. The speculation guard's recovery counters
  // live in `dsa` (rollbacks, blacklisted_loops, ...).
  std::optional<fault::FaultReport> faults;

  // FNV-1a digest of the workload's declared output regions (whole memory
  // image if none declared) after the run; the oracle's equivalence unit.
  std::uint64_t output_digest = 0;

  // Structured event trace of the run (DSA mode with cfg.trace.enabled
  // only; null otherwise). Shared so copies of the result stay cheap.
  std::shared_ptr<const trace::TraceDump> trace;

  // Host-side throughput of the run loop: retired steps and the wall time
  // they took. Host-dependent, so never compared by the determinism
  // oracle and never part of FormatReport. host_steps counts every retired
  // step, whether it ran one dispatch at a time or inside a loop chunk,
  // so it equals the reference twin's count (ExpectTwinsIdentical pins
  // that).
  std::uint64_t host_steps = 0;
  double host_wall_ms = 0.0;
  // Iterations the threaded core ran inside loop chunks (cpu::Cpu::
  // chunk_iterations). Test/introspection only: never emitted in JSON and
  // never compared by the oracle.
  std::uint64_t chunk_iterations = 0;
  // Millions of simulated instructions per host second.
  [[nodiscard]] double host_mips() const;

  // Host-side phase attribution of the run loop (the `host.phases` block
  // of dsa-bench-json/6): where the host milliseconds went. dispatch =
  // batched interpreter loops; observe = engine observation (Observe
  // calls, relevance-class fills, per-step spans while a tracker is in
  // flight); mem = cache set walks at either level; neon = covered
  // takeovers — scalar interpretation of the covered region (Cpu::
  // RunCovered) plus FinishTakeover's vector timing replacement, not NEON
  // lane execution (the name predates that). Buckets are disjoint tsc
  // spans of the run, so their sum never exceeds host_wall_ms. Per-step
  // runs (reference/traced) attribute the whole loop to dispatch (mem
  // stays 0 on the reference path, whose walks are untimed). Host
  // metadata: never compared by the oracle, absent from FormatReport.
  struct HostPhases {
    double dispatch_ms = 0.0;
    double observe_ms = 0.0;
    double mem_ms = 0.0;
    double neon_ms = 0.0;
  };
  HostPhases host_phases;

  // Copied from the workload: payload bytes of a streaming kernel (0 for
  // non-streaming workloads) and generator provenance. Deterministic
  // metadata, surfaced as the `stream`/`gen` blocks of the bench JSON.
  std::uint64_t stream_bytes = 0;
  std::optional<GenInfo> gen;
  // Simulated streaming throughput in GB/s at the modeled 1 GHz clock
  // (one byte per cycle == 1 GB/s). Zero for non-streaming workloads.
  [[nodiscard]] double stream_gbps() const;

  // Share of the retired instruction stream the DSA spent analyzing
  // (detection latency, Article 2/3 latency tables). Both numerator and
  // denominator count retired instructions — analysis_cycles ticks once
  // per retire with a tracker in flight — so the ratio is bounded by 100%
  // even when the superscalar core retires more instructions than it
  // spends cycles. Zero for non-DSA modes.
  [[nodiscard]] double detection_latency_pct() const;
};

struct SystemConfig {
  cpu::TimingConfig timing;
  mem::Hierarchy::Config memory;
  engine::DsaConfig dsa;  // used in kDsa mode
  energy::EnergyParams energy;
  trace::TraceConfig trace;  // structured event tracing (kDsa mode)
  // Deterministic fault injection (kDsa mode): when the plan has entries,
  // the run arms a FaultInjector plus the SpeculationGuard, which detects
  // every injected divergence, rolls the takeover back and re-executes the
  // loop scalar — so the final output digest stays bit-identical to the
  // fault-free run (tests/test_fault.cc, docs/FAULTS.md).
  fault::FaultPlan faults;
  std::uint64_t max_steps = 400'000'000;
  // Forces the pre-optimization code paths throughout the stack (CPU
  // branch predictor, cache MRU + range fast paths, engine observation
  // gating) and the per-step run loop with its own covered-region loop —
  // the reference twin of the threaded core. Every simulated stat is
  // bit-identical to the default fast path; tests/test_reference_path.cc
  // asserts it on every workload.
  bool reference_path = false;
};

// Runs one workload variant end to end.
[[nodiscard]] RunResult Run(const Workload& wl, RunMode mode,
                            const SystemConfig& cfg = {});

// Convenience: speedup of `x` over baseline `base` (cycles ratio).
[[nodiscard]] double SpeedupOver(const RunResult& base, const RunResult& x);

}  // namespace dsa::sim
