// splitmix64: the repository's one seeded pseudo-random stream. The
// fault injectors' corruption payloads (fault/fault.h), the loop-nest
// generator's shapes and data (workloads/gen) and the protocol fuzzers'
// attack bytes (bench/dsa_chaos_client.cc, tests/test_serve.cc) all draw
// from this one definition, so a seed means the same sequence everywhere
// and none of them can drift. Header-inline, like fnv.h.
#pragma once

#include <cstdint>

namespace dsa::mem {

struct SplitMix64 {
  std::uint64_t state = 0;

  // The stream for (seed, stream index): independent draws per index
  // from one user-visible seed.
  [[nodiscard]] static SplitMix64 Keyed(std::uint64_t seed,
                                        std::uint64_t stream) {
    return {seed * 0x9e3779b97f4a7c15ull + stream * 0xd1b54a32d192ed03ull};
  }

  std::uint64_t Next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
};

}  // namespace dsa::mem
