#include "sim/system.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "engine/speculation_guard.h"
#include "mem/fnv.h"
#include "neon/vector_unit.h"

namespace dsa::sim {

using engine::TakeoverPlan;

std::string_view ToString(RunMode m) {
  switch (m) {
    case RunMode::kScalar: return "arm-original";
    case RunMode::kAutoVec: return "neon-autovec";
    case RunMode::kHandVec: return "neon-handvec";
    case RunMode::kDsa: return "neon-dsa";
  }
  return "?";
}

double RunResult::host_mips() const {
  if (host_steps == 0) return 0.0;
  // Clamp the wall time so a run faster than the clock tick still reports
  // a positive throughput instead of a division blow-up.
  const double ms = host_wall_ms > 1e-9 ? host_wall_ms : 1e-9;
  return static_cast<double>(host_steps) / (1000.0 * ms);
}

double RunResult::stream_gbps() const {
  if (stream_bytes == 0 || cycles == 0) return 0.0;
  // The modeled core runs at 1 GHz, so seconds = cycles * 1e-9 and
  // GB/s (1e9 bytes/s) reduces to bytes per cycle.
  return static_cast<double>(stream_bytes) / static_cast<double>(cycles);
}

double RunResult::detection_latency_pct() const {
  if (!dsa.has_value() || cpu.retired_total == 0) return 0.0;
  return 100.0 * static_cast<double>(dsa->analysis_cycles) /
         static_cast<double>(cpu.retired_total);
}

namespace {

std::uint64_t DigestOutputs(const Workload& wl, const mem::Memory& memory) {
  const std::vector<std::uint8_t>& bytes = memory.raw();
  mem::Fnv1a f;
  if (wl.outputs.empty()) f.Bytes(bytes.data(), bytes.size());
  for (const OutputRegion& region : wl.outputs) {
    const std::size_t end =
        std::min<std::size_t>(bytes.size(),
                              std::size_t{region.addr} + region.bytes);
    if (region.addr >= end) continue;
    f.Bytes(bytes.data() + region.addr, end - region.addr);
  }
  return f.h;
}

// Executes the covered region of a takeover: the remaining loop iterations
// run functionally on the scalar interpreter while their issue bandwidth
// and non-memory stalls are retro-charged as vector execution by
// DsaEngine::FinishTakeover (the paper's timing-model replacement).
// Reference-path twin of cpu::Cpu::RunCovered (which the fast DSA loop
// uses); kept verbatim so --reference exercises the pre-optimization code.
cpu::Cpu::CoveredOutcome RunCovered(cpu::Cpu& cpu, const TakeoverPlan& plan) {
  const std::uint32_t start = plan.coverage_start;
  const std::uint32_t latch = plan.coverage_latch;
  const std::uint32_t inner_start = plan.record.body.start_pc;
  const std::uint32_t inner_latch = plan.record.body.latch_pc;

  const bool fused = start != inner_start || latch != inner_latch;
  const cpu::CpuStats before = cpu.stats();
  cpu::Cpu::CoveredOutcome d;
  int depth = 0;
  while (!cpu.halted()) {
    // Peek: stop when control has left the covered region (function calls
    // inside the body keep the coverage alive through `depth`).
    const std::uint32_t pc = cpu.state().pc;
    if (depth == 0 && (pc < start || pc > latch)) break;

    const cpu::Retired r = cpu.Step();
    if (r.instr == nullptr) break;
    if (r.instr->op == isa::Opcode::kBl) ++depth;
    if (r.instr->op == isa::Opcode::kRet) --depth;

    if (fused && (r.pc < inner_start || r.pc > inner_latch)) {
      ++d.glue_instrs;
      if (r.mem_is_write) {
        // A store between the loops: the Fig. 17 "nothing but glue"
        // assumption does not hold after all. End the fused coverage and
        // let the engine demote the fusion record.
        d.fused_glue_store = true;
        break;
      }
    }

    if (r.pc == plan.count_latch && r.instr->op == isa::Opcode::kB) {
      ++d.iterations;
      if (r.pc == latch && !r.branch_taken) break;
      if (plan.max_iterations != 0 && d.iterations >= plan.max_iterations) {
        break;  // sentinel: speculated range exhausted, back to scalar
      }
    }
  }

  cpu::CpuStats& s = cpu.stats();
  const std::uint64_t d_issue = s.issue_slots - before.issue_slots;
  const std::uint64_t d_other =
      s.other_stall_cycles - before.other_stall_cycles;
  const std::uint64_t d_retired = s.retired_total - before.retired_total;
  const std::uint64_t d_branches = s.branches - before.branches;
  const std::uint64_t d_mispred = s.mispredicts - before.mispredicts;

  // Remove the scalar cost of the covered instructions; keep memory stalls
  // (the same lines move under vector execution).
  s.issue_slots -= d_issue;
  s.other_stall_cycles -= d_other;
  s.retired_total -= d_retired;
  s.retired_scalar -= d_retired;
  s.branches -= d_branches;
  s.mispredicts -= d_mispred;

  d.retired = d_retired;
  return d;
}

// Phase stopwatch (RunResult::HostPhases): charges the tsc span [t0, now)
// minus the cache-walk tsc accrued inside it — the walks are owned by the
// mem bucket — to `bucket`. Clamped defensively: a core migration can skew
// rdtsc, and a negative span must not wrap the unsigned accumulator.
void ChargePhase(std::uint64_t& bucket, std::uint64_t t0, std::uint64_t walk0,
                 const mem::Hierarchy& hierarchy) {
  const std::uint64_t span = mem::HostTsc() - t0;
  const std::uint64_t walks = hierarchy.walk_tsc() - walk0;
  if (span > walks) bucket += span - walks;
}

[[noreturn]] void ThrowStepLimit(const Workload& wl, const cpu::Cpu& cpu,
                                 std::uint64_t steps) {
  throw DsaError(DsaErrorCode::kStepLimit,
                 "step limit exceeded on " + wl.name,
                 DsaError::Context{wl.name, cpu.state().pc, steps});
}

// Scalar re-execution after a speculation-guard rollback: the checkpoint
// put the PC back at the loop entry, so plain interpreter steps run the
// whole loop (and, for a fused nest, the whole covered region) to its real
// exit — the documented degradation semantics of a misspeculated takeover.
// The DSA observes nothing during the squash-and-replay, but the retires
// are credited via ObserveSkipped by the caller so observed_instructions
// stays exact. Returns the number of re-executed instructions.
std::uint64_t ReexecuteScalar(cpu::Cpu& cpu, const TakeoverPlan& plan,
                              const Workload& wl, std::uint64_t max_steps,
                              std::uint64_t& steps) {
  const std::uint32_t start = plan.coverage_start;
  const std::uint32_t latch = plan.coverage_latch;
  std::uint64_t redone = 0;
  int depth = 0;
  while (!cpu.halted()) {
    const std::uint32_t pc = cpu.state().pc;
    if (depth == 0 && (pc < start || pc > latch)) break;
    if (++steps > max_steps) ThrowStepLimit(wl, cpu, steps);
    const cpu::Retired r = cpu.Step();
    if (r.instr == nullptr) break;
    if (r.instr->op == isa::Opcode::kBl) ++depth;
    if (r.instr->op == isa::Opcode::kRet) --depth;
    ++redone;
  }
  return redone;
}

}  // namespace

RunResult Run(const Workload& wl, RunMode mode, const SystemConfig& cfg) {
  const prog::Program* program = nullptr;
  switch (mode) {
    case RunMode::kScalar:
    case RunMode::kDsa:
      program = &wl.scalar;
      break;
    case RunMode::kAutoVec:
      program = &wl.autovec;
      break;
    case RunMode::kHandVec:
      program = &wl.handvec;
      break;
  }
  if (program == nullptr || program->empty()) {
    throw std::invalid_argument("workload variant not provided: " + wl.name);
  }

  mem::Memory memory(wl.mem_bytes);
  if (wl.init) wl.init(memory);
  mem::Hierarchy hierarchy(cfg.memory);
  hierarchy.set_reference_path(cfg.reference_path);
  // Time the cache set walks for host.phases attribution. Off on the
  // reference path: its per-access walks would pay one tsc read each,
  // and reference runs report their whole loop under dispatch anyway.
  hierarchy.set_time_walks(!cfg.reference_path);
  cpu::Cpu cpu(*program, memory, hierarchy, cfg.timing, cfg.reference_path);

  std::optional<engine::DsaEngine> engine;
  std::optional<fault::FaultInjector> injector;
  if (mode == RunMode::kDsa) {
    engine.emplace(cfg.dsa, cfg.timing);
    engine->set_reference_path(cfg.reference_path);
    if (cfg.faults.enabled()) {
      injector.emplace(cfg.faults);
      engine->set_fault_injector(&*injector);
    }
  }

  // The tracer outlives the engine's raw pointer into it; disabled configs
  // never allocate. Explicit-SIMD modes trace their NEON bursts from the
  // retire stream; DSA mode additionally traces the whole engine pipeline.
  std::optional<trace::Tracer> tracer;
  neon::BurstAggregator bursts(cfg.timing.neon);
  if (cfg.trace.enabled) {
    tracer.emplace(cfg.trace);
    if (engine.has_value()) engine->set_tracer(&*tracer);
  }
  const auto emit_burst = [&](const neon::IssueBurst& b) {
    tracer->EmitAt(b.end_cycle, trace::EventKind::kNeonBurst, /*loop_id=*/0,
                   b.instrs, b.busy_cycles, b.busy_cycles);
  };

  // Checkpoint/rollback protection around every takeover of a
  // fault-injected run (docs/FAULTS.md).
  std::optional<engine::SpeculationGuard> guard;
  if (injector.has_value()) {
    guard.emplace(cfg.dsa, *injector,
                  tracer.has_value() ? &*tracer : nullptr);
  }

  std::uint64_t steps = 0;
  // Host phase buckets (RunResult::HostPhases), in raw tsc ticks; converted
  // to ms at the end against the run's own tsc/wall ratio. The spans are
  // disjoint and the walk tsc they contain is subtracted out, so the four
  // buckets can never sum past the wall time.
  std::uint64_t tsc_dispatch = 0;
  std::uint64_t tsc_observe = 0;
  std::uint64_t tsc_neon = 0;
  const auto host_t0 = std::chrono::steady_clock::now();
  const std::uint64_t host_tsc0 = mem::HostTsc();
  try {
    // Fast loops: without a per-retire consumer the interpreter batches
    // instructions inside the Cpu (no Retired materialization, no per-step
    // call). The reference path and traced runs keep the original per-step
    // loop; every path produces bit-identical simulated results
    // (tests/test_reference_path.cc and the differential oracle).
    const bool per_step = cfg.reference_path || tracer.has_value();
    if (!per_step && !engine.has_value()) {
      const std::uint64_t w0 = hierarchy.walk_tsc();
      const std::uint64_t t0 = mem::HostTsc();
      cpu.RunFree(cfg.max_steps, steps);
      ChargePhase(tsc_dispatch, t0, w0, hierarchy);
      if (steps > cfg.max_steps) ThrowStepLimit(wl, cpu, steps);
    } else if (!per_step) {
      // DSA fast loop: while the engine is idle, run unobserved up to the
      // next retire its filter cares about; per-step only while a tracker
      // is analyzing a loop body. The filter is the engine's
      // observation-relevance classes, re-filled lazily whenever its epoch
      // moves.
      std::uint64_t obs_epoch = 0;  // engine epochs start at 1: always fill
      while (!cpu.halted()) {
        cpu::Retired r;
        if (engine->idle()) {
          if (engine->observe_epoch() != obs_epoch) {
            const std::uint64_t t0 = mem::HostTsc();
            engine->FillObserveClasses(cpu);
            obs_epoch = engine->observe_epoch();
            tsc_observe += mem::HostTsc() - t0;
          }
          std::uint64_t skipped = 0;
          const std::uint64_t w0 = hierarchy.walk_tsc();
          const std::uint64_t t0 = mem::HostTsc();
          r = cpu.RunToInteresting(cfg.max_steps, steps, skipped);
          ChargePhase(tsc_dispatch, t0, w0, hierarchy);
          if (skipped != 0) engine->ObserveSkipped(skipped);
          if (steps > cfg.max_steps) ThrowStepLimit(wl, cpu, steps);
          if (r.instr == nullptr) break;  // halted before anything interesting
        } else {
          if (++steps > cfg.max_steps) ThrowStepLimit(wl, cpu, steps);
          const std::uint64_t w0 = hierarchy.walk_tsc();
          const std::uint64_t t0 = mem::HostTsc();
          r = cpu.Step();
          // Tracker-window retires: the per-step structure exists to feed
          // the trackers, so the whole span is observation time.
          ChargePhase(tsc_observe, t0, w0, hierarchy);
          if (r.instr == nullptr) break;
        }
        const std::uint64_t obs_t0 = mem::HostTsc();
        std::optional<TakeoverPlan> plan = engine->Observe(r, cpu.state());
        tsc_observe += mem::HostTsc() - obs_t0;
        if (plan.has_value()) {
          const std::uint64_t w0 = hierarchy.walk_tsc();
          const std::uint64_t t0 = mem::HostTsc();
          if (guard.has_value()) guard->Arm(*plan, cpu);
          const cpu::Cpu::CoveredOutcome d = cpu.RunCovered(
              plan->coverage_start, plan->coverage_latch,
              plan->record.body.start_pc, plan->record.body.latch_pc,
              plan->count_latch, plan->max_iterations);
          if (guard.has_value() &&
              guard->CheckAfterCovered(*plan, cpu, d.iterations)) {
            guard->Rollback(cpu);
            engine->RecordRollback(*plan, cpu);
            engine->ObserveSkipped(
                ReexecuteScalar(cpu, *plan, wl, cfg.max_steps, steps));
          } else {
            engine->FinishTakeover(*plan, d.iterations, d.retired, cpu,
                                   d.glue_instrs);
            if (d.fused_glue_store) engine->DemoteFusion(plan->coverage_latch);
          }
          ChargePhase(tsc_neon, t0, w0, hierarchy);
        }
      }
    } else {
      // Reference / traced per-step loop: one Step() and one observation per
      // retired instruction, exactly the pre-optimization structure. Phase
      // attribution stays coarse here — the whole loop is one dispatch span
      // (minus timed walks on traced runs) — because wrapping every Step()
      // of the slow twin in tsc reads would only distort the comparison.
      const std::uint64_t loop_w0 = hierarchy.walk_tsc();
      const std::uint64_t loop_t0 = mem::HostTsc();
      while (!cpu.halted()) {
        if (++steps > cfg.max_steps) ThrowStepLimit(wl, cpu, steps);
        const cpu::Retired r = cpu.Step();
        if (r.instr == nullptr) break;
        if (tracer.has_value()) {
          const std::uint64_t now = cpu.Cycles();
          tracer->SetNow(now);
          if (const auto b = bursts.Observe(r.instr->op, now)) {
            emit_burst(*b);
          }
        }
        if (engine.has_value()) {
          std::optional<TakeoverPlan> plan = engine->Observe(r, cpu.state());
          if (plan.has_value()) {
            if (tracer.has_value()) {
              tracer->Emit(trace::EventKind::kTakeoverBegin,
                           plan->record.loop_id, plan->from_cache ? 1 : 0,
                           plan->max_iterations);
            }
            if (guard.has_value()) guard->Arm(*plan, cpu);
            const cpu::Cpu::CoveredOutcome d = RunCovered(cpu, *plan);
            if (tracer.has_value()) tracer->SetNow(cpu.Cycles());
            if (guard.has_value() &&
                guard->CheckAfterCovered(*plan, cpu, d.iterations)) {
              guard->Rollback(cpu);
              engine->RecordRollback(*plan, cpu);
              engine->ObserveSkipped(
                  ReexecuteScalar(cpu, *plan, wl, cfg.max_steps, steps));
              // No kTakeoverEnd: the takeover was squashed, and the oracle
              // balances kTakeoverBegin against takeovers + rollbacks.
            } else {
              engine->FinishTakeover(*plan, d.iterations, d.retired, cpu,
                                     d.glue_instrs);
              if (tracer.has_value()) {
                // Re-stamp: FinishTakeover charged the NEON/overhead cycles,
                // so the end marker sits after the replaced region.
                tracer->SetNow(cpu.Cycles());
                tracer->Emit(trace::EventKind::kTakeoverEnd,
                             plan->record.loop_id, d.iterations, d.retired);
              }
              if (d.fused_glue_store) engine->DemoteFusion(plan->coverage_latch);
            }
          }
        }
      }
      ChargePhase(tsc_dispatch, loop_t0, loop_w0, hierarchy);
    }

  } catch (const DsaError&) {
    throw;
  } catch (const std::out_of_range& e) {
    // A raw range failure escaping the Memory accessors carries no
    // execution context; re-throw with the workload, the faulting PC
    // and the interpreter step count attached (docs/FAULTS.md).
    throw DsaError(DsaErrorCode::kMemOutOfRange, e.what(),
                   DsaError::Context{wl.name, cpu.state().pc, steps});
  }
  RunResult res;
  res.workload = wl.name;
  res.mode = mode;
  res.stream_bytes = wl.stream_bytes;
  res.gen = wl.gen;
  res.host_wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - host_t0)
                         .count();
  // tsc -> ms against this run's own ratio, so frequency scaling (or the
  // steady_clock fallback of HostTsc) cancels out of the attribution.
  const std::uint64_t host_tsc_span = mem::HostTsc() - host_tsc0;
  if (host_tsc_span > 0) {
    const double ms_per_tick =
        res.host_wall_ms / static_cast<double>(host_tsc_span);
    res.host_phases.dispatch_ms =
        static_cast<double>(tsc_dispatch) * ms_per_tick;
    res.host_phases.observe_ms = static_cast<double>(tsc_observe) * ms_per_tick;
    res.host_phases.neon_ms = static_cast<double>(tsc_neon) * ms_per_tick;
    res.host_phases.mem_ms =
        static_cast<double>(hierarchy.walk_tsc()) * ms_per_tick;
  }
  res.host_steps = cpu.host_steps();
  res.cycles = cpu.Cycles();
  res.cpu = cpu.stats();
  res.l1 = hierarchy.l1().stats();
  res.l2 = hierarchy.l2().stats();
  res.dram_accesses = hierarchy.dram_accesses();
  if (engine.has_value()) res.dsa = engine->stats();
  if (injector.has_value()) res.faults = injector->report();
  if (tracer.has_value()) {
    tracer->SetNow(cpu.Cycles());
    if (const auto b = bursts.Flush()) emit_burst(*b);
    res.trace = std::make_shared<const trace::TraceDump>(tracer->Dump());
    if (engine.has_value()) engine->set_tracer(nullptr);
  }
  res.output_ok = wl.check ? wl.check(memory) : true;
  res.output_digest = DigestOutputs(wl, memory);

  const bool neon_present = mode != RunMode::kScalar;
  res.energy = energy::ComputeEnergy(
      cfg.energy, res.cpu, hierarchy, res.cycles,
      res.dsa.has_value() ? &*res.dsa : nullptr, neon_present);
  return res;
}

double SpeedupOver(const RunResult& base, const RunResult& x) {
  if (x.cycles == 0) return 0.0;
  return static_cast<double>(base.cycles) / static_cast<double>(x.cycles);
}

}  // namespace dsa::sim
