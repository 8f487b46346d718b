// The content-addressed cell store — the repository's one persistence
// format (docs/SERVING.md). One file per completed cell, keyed by the
// job key, the workload digest, the config digest, the engine version
// and the bench-schema version. The serving daemon answers repeated
// cells from it across restarts, including a kill -9 mid-sweep, and the
// CLI drivers resume killed sweeps from it (`--cache DIR`, AttachCache).
// Any engine or schema change invalidates the whole store by
// construction: the version labels are part of the key hash, so stale
// entries are simply never addressed again, and a cell simulated under
// one config can never answer for another.
//
// Entry format: one CRC-framed line, `CCCCCCCC <json>\n`, where the JSON
// carries the full key for verification plus the cell's serialized
// JobOutcome (resilience/journal.h). Writes go to a temporary sibling,
// fsync, then an atomic rename — a torn write can never be observed
// under the final name. A corrupt entry is quarantined (renamed to
// `<name>.quarantine`) and recomputed instead of trusted.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "sim/runner.h"

namespace dsa::serve {

// Version labels baked into every cache key. Bump kEngineVersion on any
// change that can alter simulated results (timing, energy, engine
// behaviour); kBenchSchema tracks the serialized-outcome contract
// (docs/BENCH_SCHEMA.md) and must match the schema WriteBenchJson emits.
inline constexpr std::string_view kEngineVersion = "dsa-engine/9";
inline constexpr std::string_view kBenchSchema = "dsa-bench-json/6";
inline constexpr std::string_view kCacheEntrySchema = "dsa-serve-cache/1";

// FNV-1a 64-bit digest of the workload's complete definition: name,
// memory size, all three program variants instruction by instruction,
// declared output regions, streaming payload size, generator provenance,
// and the initial memory image the init hook writes. Two workloads with
// equal digests run the same simulation.
[[nodiscard]] std::uint64_t WorkloadDigest(const sim::Workload& wl);

// FNV-1a 64-bit digest over every SystemConfig field the simulation
// reads (timing, memory hierarchy, DSA structures/features/latencies,
// energy parameters, fault plan, step budget, reference path, trace
// enablement).
[[nodiscard]] std::uint64_t ConfigDigest(const sim::SystemConfig& cfg);

struct CacheKey {
  std::string job_key;  // "name[#wtag]@mode[/ctag]" (sim::JobKey)
  std::uint64_t workload_digest = 0;
  std::uint64_t config_digest = 0;
  std::string engine_version{kEngineVersion};
  std::string bench_schema{kBenchSchema};

  // Content address: 16 lowercase hex digits of the combined key hash,
  // plus the ".cell" suffix.
  [[nodiscard]] std::string FileName() const;

  bool operator==(const CacheKey&) const = default;
};

// The full key for one batch job (digests computed here).
[[nodiscard]] CacheKey KeyFor(const sim::BatchJob& job);

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;        // absent or version-mismatched entries
  std::uint64_t stores = 0;        // entries promoted to disk
  std::uint64_t quarantined = 0;   // corrupt entries moved aside
  std::uint64_t store_failures = 0;
  // fsync(2) refused durability during a store: the tmp-file fsync (also
  // counted as a store_failure — the entry is never published) or the
  // directory fsync after the rename (the entry IS published and valid,
  // but the rename itself may not survive a power cut). Either way the
  // daemon degrades to recompute-without-promote instead of pretending
  // the disk accepted the entry.
  std::uint64_t fsync_failures = 0;
};

// Startup cache scrub census (docs/SERVING.md): every `*.cell` entry is
// structurally verified before the daemon serves from the directory.
struct ScrubStats {
  std::uint64_t checked = 0;      // entries examined
  std::uint64_t ok = 0;           // structurally valid entries kept
  std::uint64_t quarantined = 0;  // corrupt entries moved aside on boot
};

class ResultCache {
 public:
  ResultCache() = default;

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  // Creates `dir` if needed. False with `error` filled when the
  // directory cannot be created or is not writable.
  [[nodiscard]] bool Open(const std::string& dir, std::string* error = nullptr);

  [[nodiscard]] bool open() const { return !dir_.empty(); }
  [[nodiscard]] const std::string& dir() const { return dir_; }

  // Looks the key up. True fills `out` with the recorded outcome
  // (cell_status "ok" by construction — only completed cells are
  // stored). A corrupt entry is quarantined and reported as a miss; a
  // well-formed entry whose stored key fields disagree with `key` (hash
  // collision, copied file) is a miss too. Load and Scrub share one entry
  // parser: Scrub keeps an entry exactly when Load would not quarantine
  // it.
  [[nodiscard]] bool Load(const CacheKey& key, sim::JobOutcome& out);

  // Promotes one completed cell to disk (atomic tmp + rename, fsync'd
  // before the rename so a kill -9 right after Store returns can never
  // lose or tear the entry). Call only for cell_status == "ok". Host I/O
  // routes through the injectable fault shims (resilience/iofault.h), so
  // every failure mode — ENOSPC, EIO, short writes, fsync refusal, a
  // failed rename — has a deterministic rehearsal path.
  [[nodiscard]] bool Store(const CacheKey& key, const sim::JobOutcome& out);

  // Boot-time integrity sweep: parses every `*.cell` entry in the
  // directory as Load does and quarantines (renames to
  // `<name>.quarantine`) anything corrupt, so a
  // torn or bit-rotted entry is caught before the daemon starts serving
  // rather than on first Load. Returns the census; also retrievable via
  // scrub_stats(). Quarantines here are NOT double-counted into
  // CacheStats::quarantined (that counter tracks serving-time findings).
  ScrubStats Scrub();

  [[nodiscard]] CacheStats stats() const;
  [[nodiscard]] ScrubStats scrub_stats() const;

 private:
  std::string dir_;
  mutable std::mutex mu_;
  CacheStats stats_;
  ScrubStats scrub_stats_;
};

// Backs a BatchRunner with the store — the CLI drivers' `--cache DIR`
// (docs/RESILIENCE.md). restore_fn answers every job whose full key is
// already stored with `ro.repeats` runs, without executing it; on_outcome
// stores each cell that finishes "ok" (fsynced before it is published,
// so a kill -9 never loses or tears one). A killed sweep resumes by
// re-running it over the same directory. Attach after setting
// `ro.repeats`; chains onto any on_outcome already installed. `cache`
// must outlive the runner.
void AttachCache(ResultCache& cache, sim::RunnerOptions& ro);

// Copies the store's census into the bench JSON's `cache` block.
void ReportCache(const ResultCache& cache, sim::BenchJsonExtras& extras);

}  // namespace dsa::serve
