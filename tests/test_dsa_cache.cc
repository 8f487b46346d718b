#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/dsa_cache.h"

namespace dsa::engine {
namespace {

LoopRecord Rec(std::uint32_t id) {
  LoopRecord r;
  r.loop_id = id;
  r.cls = LoopClass::kCount;
  return r;
}

TEST(DsaCache, MissThenHit) {
  DsaCache c(4);
  EXPECT_EQ(c.Lookup(10), nullptr);
  c.Insert(Rec(10));
  const LoopRecord* r = c.Lookup(10);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->loop_id, 10u);
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(DsaCache, InsertReplacesExisting) {
  DsaCache c(4);
  c.Insert(Rec(10));
  LoopRecord r2 = Rec(10);
  r2.cls = LoopClass::kSentinel;
  c.Insert(r2);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.Lookup(10)->cls, LoopClass::kSentinel);
}

TEST(DsaCache, LruEviction) {
  DsaCache c(2);
  c.Insert(Rec(1));
  c.Insert(Rec(2));
  (void)c.Lookup(1);  // 2 becomes LRU
  c.Insert(Rec(3));  // evicts 2
  EXPECT_NE(c.Lookup(1), nullptr);
  EXPECT_EQ(c.Lookup(2), nullptr);
  EXPECT_NE(c.Lookup(3), nullptr);
  EXPECT_EQ(c.evictions(), 1u);
}

TEST(DsaCache, CapacityFromConfig) {
  DsaConfig cfg;
  EXPECT_EQ(cfg.dsa_cache_entries(), 8u * 1024 / 32);
  EXPECT_EQ(cfg.verification_cache_entries(), 256u);
}

TEST(DsaCache, MutableLookupAllowsInPlaceUpdate) {
  DsaCache c(4);
  c.Insert(Rec(5));
  LoopRecord* r = c.LookupMutable(5);
  ASSERT_NE(r, nullptr);
  r->speculative_range = 64;
  EXPECT_EQ(c.Lookup(5)->speculative_range, 64u);
}

// A record with every payload field set and two entries in each vector.
LoopRecord FullRecord() {
  LoopRecord r;
  r.loop_id = 40;
  r.cls = LoopClass::kSentinel;
  r.reject = RejectReason::kNone;
  r.induction_reg = 3;
  r.induction_delta = -1;
  r.limit_reg = 5;
  r.limit_imm = 64;
  r.latch_cond = isa::Cond::kGt;
  r.latch_cmp_rn = 3;
  r.latch_cmp_rm = 5;
  r.latch_cmp_imm = 7;
  r.latch_cmp_is_imm = true;
  r.latch_diff_delta = -1;
  r.speculative_range = 96;
  r.dep_distance = 8;
  r.fused_outer = true;
  r.inner_latch_pc = 52;
  BodySummary& b = r.body;
  b.start_pc = 40;
  b.latch_pc = 48;
  b.vec_type = isa::VecType::kI16;
  b.loads = {MemStream{41, false, 2, 0x1000, 2, false, 0, 0},
             MemStream{42, false, 2, 0x3000, 2, false, 1, 4}};
  b.stores = {MemStream{44, true, 2, 0x8000, 2, false, 2, 0},
              MemStream{45, true, 2, 0x9000, 2, false, 6, 2}};
  b.alu_ops = 2;
  b.mul_ops = 1;
  b.body_instrs = 9;
  b.scalar_per_iter = 4;
  b.has_function_call = true;
  b.conditions = {CondRegion{43, 44, 1, 1}, CondRegion{45, 46, 2, 0}};
  return r;
}

// Changes any integer, bool or enum field in place.
template <typename T>
void Flip(T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    v = !v;
  } else if constexpr (std::is_enum_v<T>) {
    v = static_cast<T>(static_cast<std::underlying_type_t<T>>(v) ^ 1);
  } else {
    v ^= 1;
  }
}

#define FLIP(field) {#field, [](LoopRecord& r) { Flip(r.field); }}

TEST(DsaCache, EveryPayloadFieldIsSealed) {
  // One in-place mutation per payload field, made through LookupMutable
  // without a Reseal: the next validating lookup must drop the record and
  // count one corruption.
  const std::vector<std::pair<std::string, std::function<void(LoopRecord&)>>>
      mutations = {
          FLIP(loop_id), FLIP(cls), FLIP(reject), FLIP(induction_reg),
          FLIP(induction_delta), FLIP(limit_reg), FLIP(limit_imm),
          FLIP(latch_cond), FLIP(latch_cmp_rn), FLIP(latch_cmp_rm),
          FLIP(latch_cmp_imm), FLIP(latch_cmp_is_imm),
          FLIP(latch_diff_delta), FLIP(speculative_range),
          FLIP(dep_distance), FLIP(fused_outer), FLIP(inner_latch_pc),
          FLIP(body.start_pc), FLIP(body.latch_pc), FLIP(body.vec_type),
          FLIP(body.alu_ops), FLIP(body.mul_ops), FLIP(body.body_instrs),
          FLIP(body.scalar_per_iter), FLIP(body.has_function_call),
          FLIP(body.loads[1].pc), FLIP(body.loads[1].is_write),
          FLIP(body.loads[1].elem_bytes), FLIP(body.loads[1].base_addr),
          FLIP(body.loads[1].stride), FLIP(body.loads[1].loop_invariant),
          FLIP(body.loads[1].addr_reg), FLIP(body.loads[1].addr_offset),
          FLIP(body.stores[1].pc), FLIP(body.stores[1].is_write),
          FLIP(body.stores[1].elem_bytes), FLIP(body.stores[1].base_addr),
          FLIP(body.stores[1].stride), FLIP(body.stores[1].loop_invariant),
          FLIP(body.stores[1].addr_reg), FLIP(body.stores[1].addr_offset),
          FLIP(body.conditions[1].first_pc), FLIP(body.conditions[1].last_pc),
          FLIP(body.conditions[1].vector_ops),
          FLIP(body.conditions[1].mem_streams),
          {"a load moved to the stores",
           [](LoopRecord& r) {
             r.body.stores.insert(r.body.stores.begin(), r.body.loads.back());
             r.body.loads.pop_back();
           }},
          {"a condition dropped",
           [](LoopRecord& r) { r.body.conditions.pop_back(); }},
      };
  const std::uint32_t id = FullRecord().loop_id;
  for (const auto& [name, mutate] : mutations) {
    SCOPED_TRACE(name);
    DsaCache c(4);
    c.set_validate(true);
    std::uint64_t corruptions = 0;
    c.set_corruption_counter(&corruptions);
    c.Insert(FullRecord());
    LoopRecord* stored = c.LookupMutable(id);
    ASSERT_NE(stored, nullptr);
    mutate(*stored);
    EXPECT_EQ(c.Lookup(id), nullptr);
    EXPECT_EQ(corruptions, 1u);
    EXPECT_FALSE(c.Contains(id));
  }
}

#undef FLIP

TEST(DsaCache, ResealedMutationStillHits) {
  DsaCache c(4);
  c.set_validate(true);
  std::uint64_t corruptions = 0;
  c.set_corruption_counter(&corruptions);
  c.Insert(FullRecord());
  c.LookupMutable(40)->speculative_range = 128;
  c.Reseal(40);
  const LoopRecord* r = c.Lookup(40);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->speculative_range, 128u);
  EXPECT_EQ(corruptions, 0u);
}

TEST(VerificationCache, StoresUntilFull) {
  VerificationCache vc(3);
  EXPECT_TRUE(vc.Store(0x100));
  EXPECT_TRUE(vc.Store(0x104));
  EXPECT_TRUE(vc.Store(0x108));
  EXPECT_FALSE(vc.Store(0x10C));
  EXPECT_TRUE(vc.overflowed());
  EXPECT_EQ(vc.size(), 3u);
}

TEST(VerificationCache, ContainsFindsStoredAddresses) {
  VerificationCache vc(8);
  vc.Store(0x100);
  vc.Store(0x200);
  EXPECT_TRUE(vc.Contains(0x100));
  EXPECT_TRUE(vc.Contains(0x200));
  EXPECT_FALSE(vc.Contains(0x300));
}

TEST(VerificationCache, ClearResetsOverflow) {
  VerificationCache vc(1);
  vc.Store(1);
  vc.Store(2);
  EXPECT_TRUE(vc.overflowed());
  vc.Clear();
  EXPECT_FALSE(vc.overflowed());
  EXPECT_EQ(vc.size(), 0u);
  EXPECT_TRUE(vc.Store(3));
}

}  // namespace
}  // namespace dsa::engine
