#include "engine/dsa_cache.h"

#include "mem/fnv.h"

namespace dsa::engine {

std::uint64_t ChecksumOf(const LoopRecord& rec) {
  // Every payload struct is destructured with a binding of its exact
  // arity, so a field added to any of them fails to compile here until
  // the seal folds it in.
  mem::Fnv1a f;
  const auto& [loop_id, cls, reject, body, induction_reg, induction_delta,
               limit_reg, limit_imm, latch_cond, latch_cmp_rn, latch_cmp_rm,
               latch_cmp_imm, latch_cmp_is_imm, latch_diff_delta,
               speculative_range, dep_distance, fused_outer, inner_latch_pc,
               checksum] = rec;
  static_cast<void>(checksum);  // the seal itself
  f.Fields(loop_id, cls, reject, induction_reg, induction_delta, limit_reg,
           limit_imm, latch_cond, latch_cmp_rn, latch_cmp_rm, latch_cmp_imm,
           latch_cmp_is_imm, latch_diff_delta, speculative_range,
           dep_distance, fused_outer, inner_latch_pc);
  const auto& [start_pc, latch_pc, vec_type, loads, stores, alu_ops, mul_ops,
               body_instrs, scalar_per_iter, has_function_call, conditions] =
      body;
  f.Fields(start_pc, latch_pc, vec_type, alu_ops, mul_ops, body_instrs,
           scalar_per_iter, has_function_call);
  for (const std::vector<MemStream>* streams : {&loads, &stores}) {
    f.U64(streams->size());
    for (const MemStream& s : *streams) {
      const auto& [pc, is_write, elem_bytes, base_addr, stride,
                   loop_invariant, addr_reg, addr_offset] = s;
      f.Fields(pc, is_write, elem_bytes, base_addr, stride, loop_invariant,
               addr_reg, addr_offset);
    }
  }
  f.U64(conditions.size());
  for (const CondRegion& c : conditions) {
    const auto& [first_pc, last_pc, vector_ops, mem_streams] = c;
    f.Fields(first_pc, last_pc, vector_ops, mem_streams);
  }
  return f.h;
}

const LoopRecord* DsaCache::Lookup(std::uint32_t loop_id) {
  return LookupMutable(loop_id);
}

LoopRecord* DsaCache::LookupMutable(std::uint32_t loop_id) {
  const auto it = map_.find(loop_id);
  if (it == map_.end()) {
    ++misses_;
    if (tracer_) tracer_->Emit(trace::EventKind::kCacheMiss, loop_id);
    return nullptr;
  }
  if (validate_ && it->second->checksum != ChecksumOf(*it->second)) {
    // Corrupted or aliased entry: drop it and report a miss so the engine
    // re-analyzes the loop from scratch instead of speculating on garbage.
    if (corruptions_ != nullptr) ++*corruptions_;
    if (tracer_) tracer_->Emit(trace::EventKind::kCacheCorruption, loop_id);
    lru_.erase(it->second);
    map_.erase(it);
    ++misses_;
    if (tracer_) tracer_->Emit(trace::EventKind::kCacheMiss, loop_id);
    return nullptr;
  }
  ++hits_;
  if (tracer_) tracer_->Emit(trace::EventKind::kCacheHit, loop_id);
  lru_.splice(lru_.begin(), lru_, it->second);
  return &*it->second;
}

void DsaCache::Insert(const LoopRecord& rec) {
  const auto it = map_.find(rec.loop_id);
  if (it != map_.end()) {
    *it->second = rec;
    Seal(*it->second);
    lru_.splice(lru_.begin(), lru_, it->second);
    if (tracer_) {
      tracer_->Emit(trace::EventKind::kCacheInsert, rec.loop_id,
                    static_cast<std::uint64_t>(rec.cls));
    }
    return;
  }
  if (map_.size() >= max_entries_ && !lru_.empty()) {
    const std::uint32_t victim = lru_.back().loop_id;
    map_.erase(victim);
    lru_.pop_back();
    ++evictions_;
    if (tracer_) tracer_->Emit(trace::EventKind::kCacheEvict, victim);
  }
  lru_.push_front(rec);
  Seal(lru_.front());
  map_[rec.loop_id] = lru_.begin();
  if (tracer_) {
    tracer_->Emit(trace::EventKind::kCacheInsert, rec.loop_id,
                  static_cast<std::uint64_t>(rec.cls));
  }
}

void DsaCache::Reseal(std::uint32_t loop_id) {
  const auto it = map_.find(loop_id);
  if (it != map_.end()) Seal(*it->second);
}

void DsaCache::Corrupt(std::uint32_t loop_id, std::uint64_t payload) {
  const auto it = map_.find(loop_id);
  if (it == map_.end()) return;
  LoopRecord& rec = *it->second;
  // Hit the fields a real bit-flip would silently poison a takeover with:
  // the speculative window and a stream base address.
  rec.speculative_range ^= static_cast<std::uint32_t>(payload);
  if (!rec.body.loads.empty()) {
    rec.body.loads.front().base_addr ^=
        static_cast<std::uint32_t>(payload >> 32);
  }
}

}  // namespace dsa::engine
