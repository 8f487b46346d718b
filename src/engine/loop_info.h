// Loop metadata produced by the DSA analysis stages and consumed by the
// vector timing model (vector_cost) and the DSA Cache.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "isa/opcode.h"

namespace dsa::engine {

// Loop taxonomy of Chapter 4 (plus bookkeeping classes).
enum class LoopClass : std::uint8_t {
  kCount,          // fixed/affine trip count readable at runtime entry
  kFunction,       // count loop containing a non-inline call
  kOuter,          // outer loop of a nest (vectorized through its inner loop)
  kConditional,    // body contains data-dependent if/else regions
  kSentinel,       // latch depends on loaded data (DRL type B)
  kDynamicRange,   // trip count computed at runtime before entry (DRL type A)
  kPartial,        // carries a cross-iteration dependency; windowed vect.
  kNonVectorizable,
};

// Why a loop was classified non-vectorizable (Table 1 inhibiting factors).
enum class RejectReason : std::uint8_t {
  kNone,
  kCrossIterationDep,     // true data dependency, window too small
  kCarryAroundScalar,     // Table 1 line 5
  kNonUnitStride,         // Table 1 line 7: indirect / strided access
  kMixedElementSizes,     // Table 1 line 9
  kNoVectorOps,           // nothing to vectorize
  kUnsupportedOp,         // e.g. integer division
  kTraceOverflow,         // body larger than analysis buffers
  kVerificationCacheFull, // more data addresses than the VC holds
  kContainsInnerLoop,     // outer loop, handled via its inner loop
  kTooFewIterations,      // loop exited before analysis completed
  kNoArrayMapsLeft,       // conditional loop needs more maps than available
  kFeatureDisabled,       // loop class not supported by this DSA variant
  kRangeUnknown,          // latch not an affine count and not sentinel-like
};

[[nodiscard]] std::string_view ToString(LoopClass c);
[[nodiscard]] std::string_view ToString(RejectReason r);

// One streaming memory access inside the loop body (a load or store pc).
struct MemStream {
  std::uint32_t pc = 0;
  bool is_write = false;
  std::uint32_t elem_bytes = 4;
  std::uint32_t base_addr = 0;   // address observed in iteration 2
  std::int64_t stride = 0;       // addr(iter3) - addr(iter2)
  bool loop_invariant = false;   // stride == 0 (becomes a vdup)
  // Addressing-mode fields: on a DSA-cache hit the engine reads the fresh
  // stream base straight from the register file (base = regs[addr_reg] +
  // addr_offset at the first latch), so NEON activates without an extra
  // revalidation iteration (Article 1 Fig. 5).
  int addr_reg = -1;
  std::int32_t addr_offset = 0;
};

// One conditionally-executed pc region of a conditional loop.
struct CondRegion {
  std::uint32_t first_pc = 0;  // region id, as in Fig. 20
  std::uint32_t last_pc = 0;
  std::uint32_t vector_ops = 0;
  std::uint32_t mem_streams = 0;
};

// Summary of one loop body: the streams and op counts that price its
// vectorized execution. One chunk of the NEON code the DSA issues
// (Section 4.7, Fig. 25) is one vld1 per non-invariant load stream, one
// lane op per ALU or multiply op and one vst1 per store stream.
struct BodySummary {
  std::uint32_t start_pc = 0;
  std::uint32_t latch_pc = 0;
  isa::VecType vec_type = isa::VecType::kI32;
  std::vector<MemStream> loads;
  std::vector<MemStream> stores;
  std::uint32_t alu_ops = 0;       // element-wise single-cycle vector ops
  std::uint32_t mul_ops = 0;       // vector multiply/mla class ops
  std::uint32_t body_instrs = 0;   // dynamic instructions per iteration
  // Instructions that stay scalar per iteration when vectorized:
  // latch + induction updates (count loops), plus the stop-condition
  // slice (sentinel) or condition-evaluation chain (conditional loops).
  std::uint32_t scalar_per_iter = 2;
  bool has_function_call = false;
  std::vector<CondRegion> conditions;

  [[nodiscard]] int lanes() const { return isa::LaneCount(vec_type); }
};

// Record stored in the DSA Cache: everything needed to re-trigger NEON
// execution on a later encounter without repeating the full analysis
// (loop ID, size info, condition IDs — Section 4.6.4.1).
struct LoopRecord {
  std::uint32_t loop_id = 0;  // start pc, as in Article 1 Fig. 5
  LoopClass cls = LoopClass::kNonVectorizable;
  RejectReason reject = RejectReason::kNone;
  BodySummary body;
  // Count/DRL loops: induction state for range re-evaluation on re-entry.
  int induction_reg = -1;
  std::int64_t induction_delta = 0;
  int limit_reg = -1;               // -1 when the latch compares an imm
  std::int32_t limit_imm = 0;
  isa::Cond latch_cond = isa::Cond::kLt;
  // Latch compare operands, so a cache hit can recompute the trip count
  // from live register values at the first latch.
  int latch_cmp_rn = -1;
  int latch_cmp_rm = -1;
  std::int32_t latch_cmp_imm = 0;
  bool latch_cmp_is_imm = false;
  // Per-iteration advance of the latch compare's (rn - rm) difference;
  // lets a cache hit re-estimate the range from one fresh latch sample.
  std::int64_t latch_diff_delta = 0;
  // Sentinel loops: speculative range from the previous execution.
  std::uint32_t speculative_range = 0;
  // Partial vectorization: dependency distance in iterations.
  std::int64_t dep_distance = 0;
  // Inner/outer fusion (Fig. 17): an outer loop whose glue code around a
  // vectorizable inner loop carries no stores is fused — its next entry
  // takes over the whole nest, counting inner-loop iterations.
  bool fused_outer = false;
  std::uint32_t inner_latch_pc = 0;
  // Integrity seal over the record's payload fields, computed by the DSA
  // Cache on Insert/Reseal and validated on lookup, both only while the
  // cache runs in guarded mode (fault injection); a mismatch means the
  // stored entry was corrupted or aliased and must not drive a takeover.
  std::uint64_t checksum = 0;
};

}  // namespace dsa::engine
