// FNV-1a, 64-bit: the repository's one digest primitive. Output digests
// (sim/system.cc), the speculation guard's state checkpoints
// (engine/speculation_guard.cc), the DSA cache's record seals
// (engine/dsa_cache.cc) and the serving cache's content address
// (serve/cache.cc) all fold bytes through this one definition, so they
// can never drift apart. Header-inline on purpose: the cache key hashes a
// whole initial memory image per lookup, and the byte loop has to inline
// at the call site.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace dsa::mem {

struct Fnv1a {
  std::uint64_t h = 14695981039346656037ull;  // the FNV-64 offset basis

  void Bytes(const void* data, std::size_t n) {
    // A local accumulator: `data` may alias `h` as far as the compiler
    // knows, and a member store per byte would halve the loop's speed.
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint64_t x = h;
    for (std::size_t i = 0; i < n; ++i) {
      x ^= p[i];
      x *= 1099511628211ull;  // the FNV-64 prime
    }
    h = x;
  }

  // The eight bytes of `v`, least significant first (the byte order of
  // the little-endian hosts the digests were first computed on).
  void U64(std::uint64_t v) {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    Bytes(b, sizeof(b));
  }

  void F64(double v) { U64(std::bit_cast<std::uint64_t>(v)); }

  // Folds each argument by its type: a floating-point value by the bits
  // of its double, an integer, bool or enum widened to 64 bits.
  template <typename... Ts>
  void Fields(const Ts&... v) {
    (Field(v), ...);
  }

 private:
  template <typename T>
  void Field(T v) {
    if constexpr (std::is_floating_point_v<T>) {
      F64(v);
    } else {
      U64(static_cast<std::uint64_t>(v));
    }
  }
};

}  // namespace dsa::mem
