// The DSA's two private memories (Fig. 9):
//  - DSA Cache: loop ID -> LoopRecord for previously analyzed loops
//    (vectorizable or known non-vectorizable), LRU-replaced, 8 kB.
//  - Verification Cache: the data addresses observed during the Data
//    Collection stage, 1 kB; overflowing it aborts the analysis.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "engine/config.h"
#include "engine/loop_info.h"
#include "trace/trace.h"

namespace dsa::engine {

// Integrity seal over a record's payload (every field but the checksum
// slot itself). In guarded mode Insert/Reseal stamp it and lookups
// validate it.
[[nodiscard]] std::uint64_t ChecksumOf(const LoopRecord& rec);

class DsaCache {
 public:
  explicit DsaCache(std::uint32_t max_entries) : max_entries_(max_entries) {}

  // Optional execution tracer; hits/misses/inserts/evictions are emitted
  // as cache events when set.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

  // Guarded mode (fault-injected runs): every lookup validates the
  // record's checksum and a mismatch drops the entry — counted into
  // `*counter` and reported as a kCacheCorruption trace event — so a
  // corrupted record degrades to a re-analysis instead of driving a
  // takeover from garbage. Only guarded mode seals records, so switch it
  // on before the first Insert.
  void set_validate(bool on) { validate_ = on; }
  void set_corruption_counter(std::uint64_t* counter) {
    corruptions_ = counter;
  }

  // Returns nullptr on miss. A hit refreshes LRU position.
  [[nodiscard]] const LoopRecord* Lookup(std::uint32_t loop_id);
  [[nodiscard]] LoopRecord* LookupMutable(std::uint32_t loop_id);

  // Inserts or replaces; evicts the LRU record when full. Seals the
  // stored copy in guarded mode.
  void Insert(const LoopRecord& rec);

  // Re-stamps the checksum after an in-place mutation through
  // LookupMutable. Required in guarded mode; a no-op otherwise.
  void Reseal(std::uint32_t loop_id);

  // True when a record for `loop_id` exists (no LRU refresh, no counters).
  [[nodiscard]] bool Contains(std::uint32_t loop_id) const {
    return map_.count(loop_id) != 0;
  }

  // Fault-injection hook: XORs `payload` into the stored record's
  // speculative/addressing fields without resealing, so the next guarded
  // lookup sees a corrupted entry. No-op when the record is absent.
  void Corrupt(std::uint32_t loop_id, std::uint64_t payload);

  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t accesses() const { return hits_ + misses_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

 private:
  void Seal(LoopRecord& rec) const {
    if (validate_) rec.checksum = ChecksumOf(rec);
  }

  std::uint32_t max_entries_;
  trace::Tracer* tracer_ = nullptr;
  bool validate_ = false;
  std::uint64_t* corruptions_ = nullptr;
  std::list<LoopRecord> lru_;  // front = most recent
  std::unordered_map<std::uint32_t, std::list<LoopRecord>::iterator> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

class VerificationCache {
 public:
  explicit VerificationCache(std::uint32_t max_entries)
      : max_entries_(max_entries) {}

  void Clear() { entries_.clear(); overflowed_ = false; }

  // Stores one data address; returns false (and flags overflow) when full.
  bool Store(std::uint32_t addr) {
    ++accesses_;
    if (entries_.size() >= max_entries_) {
      overflowed_ = true;
      return false;
    }
    entries_.push_back(addr);
    return true;
  }

  [[nodiscard]] bool Contains(std::uint32_t addr) const {
    for (const std::uint32_t a : entries_) {
      if (a == addr) return true;
    }
    return false;
  }

  [[nodiscard]] bool overflowed() const { return overflowed_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::uint64_t accesses() const { return accesses_; }

 private:
  std::uint32_t max_entries_;
  std::vector<std::uint32_t> entries_;
  bool overflowed_ = false;
  std::uint64_t accesses_ = 0;
};

}  // namespace dsa::engine
