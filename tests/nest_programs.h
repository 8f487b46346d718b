// Hand-written fused-nest programs (Fig. 17 loop fusion) shared by the
// engine edge-case suite and the threaded-vs-reference twin suite, plus
// the mini-workload wrapper both use. Both nests fuse: an inner copy
// loop vectorizes, its outer loop's glue holds no store during analysis,
// and later outer entries take the whole nest over in one covered run
// that counts the glue around the inner loop.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "prog/assembler.h"
#include "sim/workload.h"

namespace dsa::nests {

// A scalar-only workload around a hand-assembled program.
inline sim::Workload Mini(
    prog::Program p, std::function<void(mem::Memory&)> init = nullptr,
    std::function<bool(const mem::Memory&)> check = nullptr) {
  sim::Workload wl;
  wl.name = "mini";
  wl.mem_bytes = 1 << 19;
  wl.scalar = std::move(p);
  wl.init = std::move(init);
  wl.check = std::move(check);
  return wl;
}

// The glue stores a progress marker only when the outer counter hits 4 —
// never during the analysis iterations, so the nest looks fusable. The
// fused takeover that meets the store ends there and demotes the fusion.
inline sim::Workload GlueStoreNest() {
  using isa::Cond;
  using isa::Opcode;
  prog::Assembler as;
  as.Movi(10, 16);  // outer counter, counts down 16..1
  as.Movi(11, 0x40000);
  const auto outer = as.NewLabel();
  as.Bind(outer);
  as.Movi(0, 0x1000);
  as.Movi(2, 0x10000);
  as.Movi(3, 64);
  const auto inner = as.NewLabel();
  as.Bind(inner);
  as.Ldr(4, 0, 4);
  as.Str(4, 2, 4);
  as.AluImm(Opcode::kSubi, 3, 3, 1);
  as.Cmpi(3, 0);
  as.B(Cond::kGt, inner);
  const auto skip = as.NewLabel();
  as.Cmpi(10, 4);
  as.B(Cond::kNe, skip);
  as.Str(10, 11);
  as.Bind(skip);
  as.AluImm(Opcode::kSubi, 10, 10, 1);
  as.Cmpi(10, 0);
  as.B(Cond::kGt, outer);
  as.Halt();
  auto init = [](mem::Memory& m) {
    for (int i = 0; i < 64; ++i) m.Write32(0x1000 + 4 * i, 0x100 + i);
  };
  auto check = [](const mem::Memory& m) {
    for (int i = 0; i < 64; ++i) {
      if (m.Read32(0x10000 + 4 * i) != static_cast<std::uint32_t>(0x100 + i))
        return false;
    }
    return m.Read32(0x40000) == 4u;  // the marker store really executed
  };
  return Mini(as.Finish(), init, check);
}

// The glue ends in an ldr directly before an inner loop that starts with
// an ldr, so lowering fuses the two into one ldr+ldr superinstruction that
// straddles the inner loop's start: one group, one glue retire and one
// inner retire. The glue after the inner loop accumulates the loaded
// scalar; the sum is stored only once the nest is done.
inline sim::Workload LdrStraddleNest() {
  using isa::Cond;
  using isa::Opcode;
  prog::Assembler as;
  as.Movi(10, 16);  // outer counter, counts down 16..1
  as.Movi(11, 0x40000);
  as.Movi(12, 0);
  const auto outer = as.NewLabel();
  as.Bind(outer);
  as.Movi(0, 0x1000);
  as.Movi(2, 0x10000);
  as.Movi(3, 64);
  as.Ldr(9, 11);  // last glue instruction ...
  const auto inner = as.NewLabel();
  as.Bind(inner);
  as.Ldr(4, 0, 4);  // ... fused with the inner loop's first
  as.Str(4, 2, 4);
  as.AluImm(Opcode::kSubi, 3, 3, 1);
  as.Cmpi(3, 0);
  as.B(Cond::kGt, inner);
  as.Alu(Opcode::kAdd, 12, 12, 9);
  as.AluImm(Opcode::kSubi, 10, 10, 1);
  as.Cmpi(10, 0);
  as.B(Cond::kGt, outer);
  as.Str(12, 11, 0, 4);
  as.Halt();
  auto init = [](mem::Memory& m) {
    for (int i = 0; i < 64; ++i) m.Write32(0x1000 + 4 * i, 0x100 + i);
    m.Write32(0x40000, 3);
  };
  auto check = [](const mem::Memory& m) {
    for (int i = 0; i < 64; ++i) {
      if (m.Read32(0x10000 + 4 * i) != static_cast<std::uint32_t>(0x100 + i))
        return false;
    }
    return m.Read32(0x40004) == 16u * 3u;
  };
  return Mini(as.Finish(), init, check);
}

}  // namespace dsa::nests
