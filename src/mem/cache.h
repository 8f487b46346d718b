// Set-associative cache timing model with true-LRU replacement, matching the
// paper's Table 4 setup (64 kB L1, 512 kB L2, LRU). The model is
// timing-only: data always lives in the flat Memory; the cache tracks which
// lines would be resident and charges hit/miss latencies.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dsa::mem {

// Host-side cycle stamp for the phase stopwatch (docs/PERF.md): raw rdtsc
// on x86 (a couple of ns, monotonic enough for deltas), steady_clock ticks
// elsewhere. Units are arbitrary — the sim layer converts accumulated
// deltas to milliseconds by calibrating one tsc span against the run's
// wall clock, so no frequency query is needed.
inline std::uint64_t HostTsc() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_ia32_rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

struct CacheConfig {
  std::uint32_t size_bytes = 64 * 1024;
  std::uint32_t line_bytes = 64;
  std::uint32_t ways = 4;
  std::uint32_t hit_latency = 1;  // cycles
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  [[nodiscard]] std::uint64_t accesses() const { return hits + misses; }
  [[nodiscard]] double miss_rate() const {
    return accesses() == 0 ? 0.0
                           : static_cast<double>(misses) / accesses();
  }
};

class Cache {
 public:
  struct Way {
    std::uint32_t tag = 0;
    bool valid = false;
    std::uint64_t last_use = 0;  // for true LRU
  };

  explicit Cache(const CacheConfig& cfg);

  // Touches the line containing addr. Returns true on hit. On miss the line
  // is filled, evicting the first invalid way of its set, else the LRU way.
  //
  // A repeated access to a resident line takes the inline way-predicted
  // shortcut through the residency map instead of the set-associative
  // walk; the side effects (tick advance, LRU stamp, hit count) are
  // identical, so stats and residency cannot diverge.
  // set_reference_path(true) disables the shortcut.
  bool Access(std::uint32_t addr) {
    if (fast_path_) {
      const std::uint64_t line = addr >> line_shift_;
      const Resident& r = res_[line & (kResidencyEntries - 1)];
      if (r.line == line) {
        ++tick_;
        r.way->last_use = tick_;
        ++stats_.hits;
        return true;
      }
    }
    return AccessWalk(addr);
  }

  // Deferred-hit interface (the threaded core's way-predicted runs,
  // docs/DISPATCH.md). ResidentWay is a pure residency probe — no stats,
  // no LRU stamp — returning the way holding `line` (addr >> line_shift())
  // when the residency map knows it, else nullptr (which also covers the
  // reference path, where runs must never form). A caller may then defer
  // resident hits instead of calling Access(): it numbers them 1..n in
  // arrival order, calls StampDeferred(way, k) for every way it hit with
  // the number k of that way's last hit (a smaller k for the same way is
  // harmless: the largest wins), and settles all n with
  // CommitDeferred(n). The result is exactly the state of n Access() hits
  // in that order: a resident hit touches only its own way's stamp, the
  // tick and the hit count, and victim choice compares stamps only
  // within a set, so hits to different ways commute. The caller
  // guarantees nothing else touched this cache since the first deferred
  // hit, so every way it hit is still resident.
  [[nodiscard]] Way* ResidentWay(std::uint64_t line) {
    if (!fast_path_) return nullptr;
    const Resident& r = res_[line & (kResidencyEntries - 1)];
    return r.line == line ? r.way : nullptr;
  }
  void StampDeferred(Way* way, std::uint64_t k) {
    way->last_use = std::max(way->last_use, tick_ + k);
  }
  void CommitDeferred(std::uint64_t n) {
    tick_ += n;
    stats_.hits += n;
  }
  [[nodiscard]] std::uint32_t line_shift() const { return line_shift_; }

  // True if the line containing addr is currently resident (no LRU update).
  [[nodiscard]] bool Probe(std::uint32_t addr) const;

  // Physical way currently holding addr's line, -1 if not resident. Test
  // introspection for fill-order/victim-choice checks; no LRU update.
  [[nodiscard]] int WayOf(std::uint32_t addr) const;

  void Flush();

  // Forces the pre-optimization full set walk on every access.
  void set_reference_path(bool ref) { fast_path_ = !ref; }

  // Host attribution of set-walk time (the `mem` phase of host.phases):
  // off by default so reference runs and tests pay nothing.
  void set_time_walks(bool on) { time_walks_ = on; }
  [[nodiscard]] std::uint64_t walk_tsc() const { return walk_tsc_; }

  [[nodiscard]] const CacheConfig& config() const { return cfg_; }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] std::uint32_t num_sets() const { return num_sets_; }

 private:
  bool AccessWalk(std::uint32_t addr);
  bool AccessWalkImpl(std::uint32_t addr);

  // line_bytes and num_sets_ are validated powers of two, so index/tag
  // extraction is shift/mask work instead of two divisions.
  [[nodiscard]] std::uint32_t SetIndex(std::uint32_t addr) const {
    return (addr >> line_shift_) & (num_sets_ - 1);
  }
  [[nodiscard]] std::uint32_t Tag(std::uint32_t addr) const {
    return (addr >> line_shift_) >> set_shift_;
  }

  CacheConfig cfg_;
  std::uint32_t num_sets_;
  std::uint32_t line_shift_ = 0;  // log2(line_bytes)
  std::uint32_t set_shift_ = 0;   // log2(num_sets_)
  std::vector<Way> ways_;  // num_sets_ * cfg_.ways, row-major by set
  CacheStats stats_;
  std::uint64_t tick_ = 0;
  // Residency map: a direct-mapped line -> way table in front of the set
  // walk. res_[line & mask].line == line implies that way holds the line
  // (ways_ never reallocates, so the pointer stays valid until the line is
  // evicted, which invalidates the entry in O(1): a way holds one line at
  // a time, so at most one map entry ever points at it). Sized to cover a
  // 512 kB footprint at 64 B lines so streaming kernels rarely collide;
  // empty entries hold kNoLine, which no 32-bit address can shift into.
  struct Resident {
    std::uint64_t line = kNoLine;
    Way* way = nullptr;
  };
  static constexpr std::size_t kResidencyEntries = 8192;  // power of two
  static constexpr std::uint64_t kNoLine = ~std::uint64_t{0};
  std::vector<Resident> res_;
  bool fast_path_ = true;
  bool time_walks_ = false;
  std::uint64_t walk_tsc_ = 0;
};

// Two-level hierarchy: L1 -> L2 -> DRAM. Access() returns the latency in
// cycles for an access at addr and updates both levels.
class Hierarchy {
 public:
  struct Config {
    CacheConfig l1{64 * 1024, 64, 4, 1};
    CacheConfig l2{512 * 1024, 64, 8, 8};
    std::uint32_t dram_latency = 60;
    // Next-line stream prefetch into L1 on a miss (embedded cores commonly
    // ship one); keeps streaming kernels from being purely DRAM-bound.
    bool next_line_prefetch = true;
  };

  explicit Hierarchy(const Config& cfg)
      : cfg_(cfg), l1_(cfg.l1), l2_(cfg.l2),
        line_mask_(cfg.l1.line_bytes - 1) {}

  std::uint32_t Access(std::uint32_t addr) {
    if (l1_.Access(addr)) return cfg_.l1.hit_latency;
    return AccessMiss(addr);
  }

  // A 16-byte vector access may straddle two lines; charge both. Accesses
  // contained in one L1 line (the overwhelmingly common case) skip the
  // line-walking loop.
  std::uint32_t AccessRange(std::uint32_t addr, std::uint32_t bytes) {
    if (fast_path_ && (addr & line_mask_) + bytes <= line_mask_ + 1) {
      return Access(addr & ~line_mask_);
    }
    return AccessRangeWalk(addr, bytes);
  }

  void Flush() {
    l1_.Flush();
    l2_.Flush();
  }

  // Forces the pre-optimization paths in both cache levels and in
  // AccessRange; simulated latencies and stats are identical either way.
  void set_reference_path(bool ref) {
    fast_path_ = !ref;
    l1_.set_reference_path(ref);
    l2_.set_reference_path(ref);
  }

  // L1 geometry + the deferred-hit interface for the threaded core's
  // way-predicted runs (cpu.h). Everything the core may do to the cache
  // is expressed through Cache's own invariant-preserving API.
  [[nodiscard]] Cache& l1_runs() { return l1_; }
  [[nodiscard]] std::uint32_t l1_line_mask() const { return line_mask_; }
  [[nodiscard]] std::uint32_t l1_hit_latency() const {
    return cfg_.l1.hit_latency;
  }

  // Phase stopwatch: accumulated host-tsc spent inside set walks at either
  // level (the `mem` bucket of host.phases; sim/system.cc).
  void set_time_walks(bool on) {
    l1_.set_time_walks(on);
    l2_.set_time_walks(on);
  }
  [[nodiscard]] std::uint64_t walk_tsc() const {
    return l1_.walk_tsc() + l2_.walk_tsc();
  }

  [[nodiscard]] const Cache& l1() const { return l1_; }
  [[nodiscard]] const Cache& l2() const { return l2_; }
  [[nodiscard]] std::uint64_t dram_accesses() const { return dram_accesses_; }

 private:
  std::uint32_t AccessMiss(std::uint32_t addr);
  std::uint32_t AccessRangeWalk(std::uint32_t addr, std::uint32_t bytes);

  Config cfg_;
  Cache l1_;
  Cache l2_;
  std::uint32_t line_mask_;
  bool fast_path_ = true;
  std::uint64_t dram_accesses_ = 0;
};

}  // namespace dsa::mem
