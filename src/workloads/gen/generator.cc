// Seeded loop-nest generator. Every class builder draws its shape — element
// width, op-chain, trip count, thresholds — from a splitmix64 stream keyed
// by (seed, class), emits the assembly, and replays the identical
// computation in C++ (mirroring src/cpu/cpu.cc semantics exactly: uint32
// wraparound, signed min/max, shift-by-(reg&31), zero-extending narrow
// loads, truncating narrow stores) to produce the golden outputs.
#include "workloads/gen/generator.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "mem/splitmix.h"
#include "prog/assembler.h"
#include "workloads/common.h"

namespace dsa::workloads::gen {

using isa::Cond;
using isa::Opcode;
using prog::Assembler;

namespace {

constexpr std::uint32_t kSrc = 0x10000;
constexpr std::uint32_t kDst = 0x30000;

// splitmix64 (mem/splitmix.h): tiny, high-quality, and stable across
// platforms — the whole determinism contract rests on this stream.
struct Rng : mem::SplitMix64 {
  // Uniform in [lo, hi] (closed; the span is computed in 64 bits so
  // Range(0, 0xFFFFFFFF) doesn't wrap to a zero modulus).
  std::uint32_t Range(std::uint32_t lo, std::uint32_t hi) {
    const std::uint64_t span = static_cast<std::uint64_t>(hi) - lo + 1;
    return lo + static_cast<std::uint32_t>(Next() % span);
  }
};

// Element width of the generated streams, with its load/store opcodes.
struct Elem {
  int bytes = 4;
  Opcode load = Opcode::kLdr;
  Opcode store = Opcode::kStr;
};

Elem PickElem(Rng& rng) {
  switch (rng.Range(0, 2)) {
    case 0: return {1, Opcode::kLdrb, Opcode::kStrb};
    case 1: return {2, Opcode::kLdrh, Opcode::kStrh};
    default: return {4, Opcode::kLdr, Opcode::kStr};
  }
}

// One link of the transform chain: result = op(result, konst), the konst
// living in a dedicated loop-invariant register.
struct ChainOp {
  Opcode op = Opcode::kAdd;
  std::uint32_t konst = 1;
  int konst_reg = 10;
};

// The op pool the DSA's SIMD generator can map (the same pool
// tests/test_property_random.cc draws from).
ChainOp PickOp(Rng& rng, int konst_reg) {
  static constexpr Opcode kPool[] = {
      Opcode::kAdd, Opcode::kSub, Opcode::kAnd, Opcode::kOrr, Opcode::kEor,
      Opcode::kMul, Opcode::kMin, Opcode::kMax, Opcode::kLsr,
  };
  ChainOp c;
  c.op = kPool[rng.Range(0, 8)];
  c.konst_reg = konst_reg;
  switch (c.op) {
    case Opcode::kLsr: c.konst = rng.Range(1, 7); break;
    case Opcode::kMul: c.konst = rng.Range(3, 9); break;
    case Opcode::kAnd: c.konst = rng.Range(0x0F, 0xFF); break;
    default: c.konst = rng.Range(1, 100); break;
  }
  return c;
}

std::vector<ChainOp> PickChain(Rng& rng, int len, int first_konst_reg) {
  std::vector<ChainOp> chain;
  for (int i = 0; i < len; ++i) chain.push_back(PickOp(rng, first_konst_reg + i));
  return chain;
}

// C++ mirror of one scalar ALU op, bit-exact with src/cpu/cpu.cc.
std::uint32_t EvalOp(Opcode op, std::uint32_t a, std::uint32_t b) {
  switch (op) {
    case Opcode::kAdd: return a + b;
    case Opcode::kSub: return a - b;
    case Opcode::kAnd: return a & b;
    case Opcode::kOrr: return a | b;
    case Opcode::kEor: return a ^ b;
    case Opcode::kMul: return a * b;
    case Opcode::kLsr: return a >> (b & 31);
    case Opcode::kLsl: return a << (b & 31);
    case Opcode::kMin:
      return static_cast<std::uint32_t>(
          std::min(static_cast<std::int32_t>(a), static_cast<std::int32_t>(b)));
    case Opcode::kMax:
      return static_cast<std::uint32_t>(
          std::max(static_cast<std::int32_t>(a), static_cast<std::int32_t>(b)));
    default: assert(false); return a;
  }
}

std::uint32_t EvalChain(const std::vector<ChainOp>& chain, std::uint32_t v) {
  for (const ChainOp& c : chain) v = EvalOp(c.op, v, c.konst);
  return v;
}

std::uint32_t Truncate(std::uint32_t v, int bytes) {
  if (bytes == 1) return v & 0xFFu;
  if (bytes == 2) return v & 0xFFFFu;
  return v;
}

void EmitChainConsts(Assembler& as, const std::vector<ChainOp>& chain) {
  for (const ChainOp& c : chain) {
    as.Movi(c.konst_reg, static_cast<std::int32_t>(c.konst));
  }
}

// result reg r5 <- chain(r4).
void EmitChain(Assembler& as, const std::vector<ChainOp>& chain) {
  int src = 4;
  for (const ChainOp& c : chain) {
    as.Alu(c.op, 5, src, c.konst_reg);
    src = 5;
  }
  if (chain.empty()) as.Mov(5, 4);
}

// Random source elements. `maxv` bounds values (inclusive); `minv` floors
// them (lets the sentinel/early-exit builders reserve 0 / the magic value).
template <typename T>
std::vector<T> RandomData(Rng& rng, int n, std::uint32_t minv,
                          std::uint32_t maxv) {
  std::vector<T> v(n);
  for (int i = 0; i < n; ++i) {
    v[i] = static_cast<T>(rng.Range(minv, maxv));
  }
  return v;
}

// Applies the common scaffolding: name, provenance, byte budget.
void Finalize(sim::Workload& wl, std::uint64_t seed, LoopClass cls,
              std::uint64_t count, std::uint64_t bytes_moved) {
  wl.name = "gen-" + std::string(ToString(cls)) + "-s" + std::to_string(seed);
  wl.mem_bytes = 1 << 20;
  wl.autovec = wl.scalar;
  wl.handvec = wl.scalar;
  wl.gen = sim::GenInfo{seed, std::string(ToString(cls)), count};
  wl.stream_bytes = bytes_moved;
}

// Per-element transform kernels share one golden-model template: walk the
// source, apply the chain, truncate to the element width.
template <typename T>
std::vector<T> GoldenTransform(const std::vector<T>& src,
                               const std::vector<ChainOp>& chain, int bytes) {
  std::vector<T> dst(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] = static_cast<T>(Truncate(EvalChain(chain, src[i]), bytes));
  }
  return dst;
}

// --- counted: the straight count-loop path ---------------------------------
template <typename T>
sim::Workload BuildCounted(Rng& rng, std::uint64_t seed, const Elem& e) {
  const int n = static_cast<int>(rng.Range(96, 256));
  const auto chain = PickChain(rng, static_cast<int>(rng.Range(1, 3)), 10);

  sim::Workload wl;
  Assembler as;
  EmitChainConsts(as, chain);
  as.Movi(0, kSrc);
  as.Movi(1, kDst);
  as.Movi(3, n);
  const auto loop = as.NewLabel();
  as.Bind(loop);
  as.Emit(isa::MakeLoad(e.load, 4, 0, e.bytes));
  EmitChain(as, chain);
  as.Emit(isa::MakeStore(e.store, 5, 1, e.bytes));
  as.AluImm(Opcode::kSubi, 3, 3, 1);
  as.Cmpi(3, 0);
  as.B(Cond::kGt, loop);
  as.Halt();
  wl.scalar = as.Finish();
  wl.loop_type_fractions = {{"count", 1.0}};

  auto src = RandomData<T>(rng, n, 0, Truncate(0xFFFFFFFFu, e.bytes));
  auto dst = GoldenTransform(src, chain, e.bytes);
  wl.init = [src](mem::Memory& m) { WriteVec(m, kSrc, src); };
  AddGoldenOutput(wl, kDst, dst);
  Finalize(wl, seed, LoopClass::kCounted, n,
           2ull * static_cast<std::uint64_t>(n) * e.bytes);
  return wl;
}

// --- sentinel: data-dependent latch (store-then-test, as in StrCopy) -------
sim::Workload BuildSentinel(Rng& rng, std::uint64_t seed) {
  const int n = static_cast<int>(rng.Range(64, 200));  // bytes before the NUL
  const auto chain = PickChain(rng, static_cast<int>(rng.Range(1, 2)), 10);

  sim::Workload wl;
  Assembler as;
  EmitChainConsts(as, chain);
  as.Movi(0, kSrc);
  as.Movi(1, kDst);
  const auto loop = as.NewLabel();
  as.Bind(loop);
  as.Ldrb(4, 0, 1);
  EmitChain(as, chain);
  as.Strb(5, 1, 1);
  as.Cmpi(4, 0);
  as.B(Cond::kNe, loop);
  as.Halt();
  wl.scalar = as.Finish();
  wl.loop_type_fractions = {{"sentinel", 1.0}};

  auto src = RandomData<std::uint8_t>(rng, n + 1, 1, 255);
  src[n] = 0;
  auto dst = GoldenTransform(src, chain, 1);
  wl.init = [src](mem::Memory& m) { WriteVec(m, kSrc, src); };
  AddGoldenOutput(wl, kDst, dst);
  Finalize(wl, seed, LoopClass::kSentinel, n,
           2ull * static_cast<std::uint64_t>(n + 1));
  return wl;
}

// --- conditional: if/else arms, each with its own chain and store ----------
template <typename T>
sim::Workload BuildConditional(Rng& rng, std::uint64_t seed, const Elem& e) {
  const int n = static_cast<int>(rng.Range(96, 256));
  // Keep values in signed-positive range so Cmp (signed) matches unsigned
  // data for every element width.
  const std::uint32_t maxv = e.bytes == 1 ? 0xFF : 0x7FFF;
  const std::uint32_t threshold = rng.Range(1, maxv - 1);
  const auto then_chain = PickChain(rng, static_cast<int>(rng.Range(1, 2)), 10);
  const auto else_chain = PickChain(rng, static_cast<int>(rng.Range(1, 2)), 12);

  sim::Workload wl;
  Assembler as;
  EmitChainConsts(as, then_chain);
  EmitChainConsts(as, else_chain);
  as.Movi(9, static_cast<std::int32_t>(threshold));
  as.Movi(0, kSrc);
  as.Movi(1, kDst);
  as.Movi(3, n);
  const auto loop = as.NewLabel();
  const auto else_l = as.NewLabel();
  const auto next = as.NewLabel();
  as.Bind(loop);
  as.Emit(isa::MakeLoad(e.load, 4, 0, e.bytes));
  as.Cmp(4, 9);
  as.B(Cond::kLe, else_l);
  EmitChain(as, then_chain);
  as.Emit(isa::MakeStore(e.store, 5, 1, e.bytes));
  as.B(Cond::kAl, next);
  as.Bind(else_l);
  EmitChain(as, else_chain);
  as.Emit(isa::MakeStore(e.store, 5, 1, e.bytes));
  as.Bind(next);
  as.AluImm(Opcode::kSubi, 3, 3, 1);
  as.Cmpi(3, 0);
  as.B(Cond::kGt, loop);
  as.Halt();
  wl.scalar = as.Finish();
  wl.loop_type_fractions = {{"conditional", 1.0}};

  auto src = RandomData<T>(rng, n, 0, maxv);
  std::vector<T> dst(n);
  for (int i = 0; i < n; ++i) {
    const bool then_arm =
        static_cast<std::int32_t>(src[i]) > static_cast<std::int32_t>(threshold);
    dst[i] = static_cast<T>(Truncate(
        EvalChain(then_arm ? then_chain : else_chain, src[i]), e.bytes));
  }
  wl.init = [src](mem::Memory& m) { WriteVec(m, kSrc, src); };
  AddGoldenOutput(wl, kDst, dst);
  Finalize(wl, seed, LoopClass::kConditional, n,
           2ull * static_cast<std::uint64_t>(n) * e.bytes);
  return wl;
}

// --- nested: inner count loop under a row loop (the Fig. 17 fusion path) ---
template <typename T>
sim::Workload BuildNested(Rng& rng, std::uint64_t seed, const Elem& e) {
  const int rows = static_cast<int>(rng.Range(4, 10));
  const int cols = static_cast<int>(rng.Range(24, 64));
  const int n = rows * cols;
  const auto chain = PickChain(rng, static_cast<int>(rng.Range(1, 3)), 10);

  sim::Workload wl;
  Assembler as;
  EmitChainConsts(as, chain);
  as.Movi(0, kSrc);
  as.Movi(1, kDst);
  as.Movi(8, rows);
  const auto outer = as.NewLabel();
  as.Bind(outer);
  as.Movi(3, cols);
  const auto inner = as.NewLabel();
  as.Bind(inner);
  as.Emit(isa::MakeLoad(e.load, 4, 0, e.bytes));
  EmitChain(as, chain);
  as.Emit(isa::MakeStore(e.store, 5, 1, e.bytes));
  as.AluImm(Opcode::kSubi, 3, 3, 1);
  as.Cmpi(3, 0);
  as.B(Cond::kGt, inner);
  as.AluImm(Opcode::kSubi, 8, 8, 1);
  as.Cmpi(8, 0);
  as.B(Cond::kGt, outer);
  as.Halt();
  wl.scalar = as.Finish();
  wl.loop_type_fractions = {{"count", 0.9}, {"outer", 0.1}};

  auto src = RandomData<T>(rng, n, 0, Truncate(0xFFFFFFFFu, e.bytes));
  auto dst = GoldenTransform(src, chain, e.bytes);
  wl.init = [src](mem::Memory& m) { WriteVec(m, kSrc, src); };
  AddGoldenOutput(wl, kDst, dst);
  Finalize(wl, seed, LoopClass::kNested, n,
           2ull * static_cast<std::uint64_t>(n) * e.bytes);
  return wl;
}

// --- stride-variant: every-other-element access, the kNonUnitStride path ---
template <typename T>
sim::Workload BuildStrideVariant(Rng& rng, std::uint64_t seed, const Elem& e) {
  const int n = static_cast<int>(rng.Range(64, 160));  // elements processed
  const auto chain = PickChain(rng, static_cast<int>(rng.Range(1, 2)), 10);

  sim::Workload wl;
  Assembler as;
  EmitChainConsts(as, chain);
  as.Movi(0, kSrc);
  as.Movi(1, kDst);
  as.Movi(3, n);
  const auto loop = as.NewLabel();
  as.Bind(loop);
  as.Emit(isa::MakeLoad(e.load, 4, 0, 2 * e.bytes));  // stride 2 elements
  EmitChain(as, chain);
  as.Emit(isa::MakeStore(e.store, 5, 1, 2 * e.bytes));
  as.AluImm(Opcode::kSubi, 3, 3, 1);
  as.Cmpi(3, 0);
  as.B(Cond::kGt, loop);
  as.Halt();
  wl.scalar = as.Finish();
  wl.loop_type_fractions = {{"non-vectorizable", 1.0}};

  // Source covers 2n element slots; only even slots are read/written.
  auto src = RandomData<T>(rng, 2 * n, 0, Truncate(0xFFFFFFFFu, e.bytes));
  std::vector<T> dst(2 * n, 0);
  for (int i = 0; i < n; ++i) {
    dst[2 * i] = static_cast<T>(Truncate(EvalChain(chain, src[2 * i]), e.bytes));
  }
  wl.init = [src, zero = std::vector<T>(src.size(), T{0})](mem::Memory& m) {
    WriteVec(m, kSrc, src);
    WriteVec(m, kDst, zero);  // make untouched odd slots deterministic
  };
  AddGoldenOutput(wl, kDst, dst);
  Finalize(wl, seed, LoopClass::kStrideVariant, n,
           2ull * static_cast<std::uint64_t>(n) * e.bytes);
  return wl;
}

// --- early-exit: count loop with a data-dependent break mid-body -----------
template <typename T>
sim::Workload BuildEarlyExit(Rng& rng, std::uint64_t seed, const Elem& e) {
  const int n = static_cast<int>(rng.Range(96, 200));
  const int stop = static_cast<int>(rng.Range(n / 2, n - 1));  // magic index
  const std::uint32_t magic = Truncate(0xFFFFFFFFu, e.bytes);
  const auto chain = PickChain(rng, static_cast<int>(rng.Range(1, 2)), 10);

  sim::Workload wl;
  Assembler as;
  EmitChainConsts(as, chain);
  as.Movi(9, static_cast<std::int32_t>(magic));
  as.Movi(0, kSrc);
  as.Movi(1, kDst);
  as.Movi(3, n);
  const auto loop = as.NewLabel();
  const auto done = as.NewLabel();
  as.Bind(loop);
  as.Emit(isa::MakeLoad(e.load, 4, 0, e.bytes));
  as.Cmp(4, 9);
  as.B(Cond::kEq, done);  // break on the planted terminator
  EmitChain(as, chain);
  as.Emit(isa::MakeStore(e.store, 5, 1, e.bytes));
  as.AluImm(Opcode::kSubi, 3, 3, 1);
  as.Cmpi(3, 0);
  as.B(Cond::kGt, loop);
  as.Bind(done);
  as.Halt();
  wl.scalar = as.Finish();
  wl.loop_type_fractions = {{"dynamic-range", 1.0}};

  // Values stay below magic; the terminator sits at `stop`.
  auto src = RandomData<T>(rng, n, 0, magic - 1);
  src[stop] = static_cast<T>(magic);
  std::vector<T> dst(n, 0);
  for (int i = 0; i < stop; ++i) {
    dst[i] = static_cast<T>(Truncate(EvalChain(chain, src[i]), e.bytes));
  }
  wl.init = [src, zero = std::vector<T>(src.size(), T{0})](mem::Memory& m) {
    WriteVec(m, kSrc, src);
    WriteVec(m, kDst, zero);
  };
  AddGoldenOutput(wl, kDst, dst);
  Finalize(wl, seed, LoopClass::kEarlyExit, stop,
           2ull * static_cast<std::uint64_t>(stop) * e.bytes);
  return wl;
}

template <typename T>
sim::Workload Dispatch(Rng& rng, std::uint64_t seed, LoopClass cls,
                       const Elem& e) {
  switch (cls) {
    case LoopClass::kCounted: return BuildCounted<T>(rng, seed, e);
    case LoopClass::kSentinel: return BuildSentinel(rng, seed);
    case LoopClass::kConditional: return BuildConditional<T>(rng, seed, e);
    case LoopClass::kNested: return BuildNested<T>(rng, seed, e);
    case LoopClass::kStrideVariant: return BuildStrideVariant<T>(rng, seed, e);
    case LoopClass::kEarlyExit: return BuildEarlyExit<T>(rng, seed, e);
  }
  assert(false);
  return {};
}

}  // namespace

std::string_view ToString(LoopClass c) {
  switch (c) {
    case LoopClass::kCounted: return "counted";
    case LoopClass::kSentinel: return "sentinel";
    case LoopClass::kConditional: return "conditional";
    case LoopClass::kNested: return "nested";
    case LoopClass::kStrideVariant: return "stride-variant";
    case LoopClass::kEarlyExit: return "early-exit";
  }
  return "?";
}

sim::Workload MakeGenerated(std::uint64_t seed, LoopClass cls) {
  // Key the stream by (seed, class) so the same seed yields independent
  // draws per class instead of six reskins of one shape.
  Rng rng{mem::SplitMix64::Keyed(seed, static_cast<std::uint64_t>(cls) + 1)};
  rng.Next();
  const Elem e = PickElem(rng);
  switch (e.bytes) {
    case 1: return Dispatch<std::uint8_t>(rng, seed, cls, e);
    case 2: return Dispatch<std::uint16_t>(rng, seed, cls, e);
    default: return Dispatch<std::uint32_t>(rng, seed, cls, e);
  }
}

std::vector<sim::Workload> GeneratedSet(std::uint64_t base_seed, int count) {
  std::vector<sim::Workload> v;
  v.reserve(count);
  for (int i = 0; i < count; ++i) {
    v.push_back(MakeGenerated(base_seed + static_cast<std::uint64_t>(i),
                              static_cast<LoopClass>(i % kNumLoopClasses)));
  }
  return v;
}

}  // namespace dsa::workloads::gen
