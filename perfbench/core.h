// The benchmark's own logic, kept apart from driver.cc so the self-tests
// (selftest.cc) can exercise it without a daemon: the percentile rule,
// ratios with their bases, the seeded request sequence and the
// correctness gate that checks every simulated or served cell against an
// in-process reference.
#pragma once

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "resilience/mini_json.h"

namespace perfbench {

// --- percentiles ----------------------------------------------------------

// Nearest-rank percentile of `samples` at `pct` percent (1..100). A
// percentile is resolved only when at least ten samples lie beyond it, so
// p50 needs 20 samples, p75 needs 40, p90 needs 100 and p99 needs 1000. The value is
// reported either way; `samples` and `resolved` travel with it so the
// printout can say how much it rests on.
struct Percentile {
  int pct = 0;
  double value = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  // samples strictly above the rank
  bool resolved = false;
};

inline constexpr std::size_t kMinBeyond = 10;

// 1-based rank of the nearest-rank percentile, in integer arithmetic so
// that 99% of 1000 is rank 990 exactly.
inline std::size_t NearestRank(std::size_t n, int pct) {
  if (n == 0) return 0;
  const std::size_t rank = (static_cast<std::size_t>(pct) * n + 99) / 100;
  return std::clamp<std::size_t>(rank, 1, n);
}

// Fewest samples for which `pct` is resolved.
inline std::size_t MinSamplesFor(int pct) {
  std::size_t n = 1;
  while (n - NearestRank(n, pct) < kMinBeyond) ++n;
  return n;
}

inline Percentile TakePercentile(std::vector<double> samples, int pct) {
  Percentile p;
  p.pct = pct;
  p.samples = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  const std::size_t rank = NearestRank(samples.size(), pct);
  p.value = samples[rank - 1];
  p.beyond = samples.size() - rank;
  p.resolved = p.beyond >= kMinBeyond;
  return p;
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// --- ratios ---------------------------------------------------------------

// A ratio that keeps its base: `value()` is 0 when the base is 0 (the
// layer saw no attempts), and the printout shows num/base so a 0 can be
// told apart from a layer that failed every attempt.
struct Ratio {
  std::uint64_t num = 0;
  std::uint64_t base = 0;
  [[nodiscard]] double value() const {
    return base == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(base);
  }
};

// --- seeded request sequence ----------------------------------------------

// splitmix64: a fixed, portable stream, so one seed means one request
// sequence on every platform (std:: distributions are not portable).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n).
  std::size_t Below(std::size_t n) { return static_cast<std::size_t>(Next() % n); }

 private:
  std::uint64_t state_;
};

struct Request {
  bool sweep = false;  // full sweep (empty filter)
  std::size_t cell = 0;  // single-cell request: index into the key list
};

inline constexpr std::size_t kSweepEvery = 10;  // 10% full sweeps

// `count` requests: in every block of kSweepEvery, one seeded position is a
// full sweep and the rest are single cells. Singles deal a freshly
// shuffled deck of the `keys` cell indices, so every cell is requested
// equally often and the seed changes the order, never the mix.
inline std::vector<Request> RequestSequence(std::uint64_t seed, std::size_t keys,
                                            std::size_t count) {
  Rng rng(seed);
  std::vector<Request> seq;
  seq.reserve(count);
  std::vector<std::size_t> deck;
  std::size_t sweep_at = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (i % kSweepEvery == 0) sweep_at = rng.Below(kSweepEvery);
    if (i % kSweepEvery == sweep_at || keys == 0) {
      seq.push_back({true, 0});
      continue;
    }
    if (deck.empty()) {
      for (std::size_t k = 0; k < keys; ++k) deck.push_back(k);
      for (std::size_t k = keys; k > 1; --k) std::swap(deck[k - 1], deck[rng.Below(k)]);
    }
    seq.push_back({false, deck.back()});
    deck.pop_back();
  }
  return seq;
}

// --- correctness gate -----------------------------------------------------

// What a cell must reproduce bit for bit: simulated cycles and the digest
// of its output regions, computed in-process with sim::Run.
struct Expected {
  std::uint64_t cycles = 0;
  std::uint64_t output_digest = 0;
};
using Reference = std::map<std::string, Expected>;  // by JobKey

enum class Verdict { kOk, kStatus, kUnknownCell, kMismatch };

inline const char* ToString(Verdict v) {
  switch (v) {
    case Verdict::kOk: return "ok";
    case Verdict::kStatus: return "cell_status";
    case Verdict::kUnknownCell: return "unknown-cell";
    case Verdict::kMismatch: return "mismatch";
  }
  return "?";
}

inline Verdict CheckCell(const Reference& ref, const std::string& key,
                         const std::string& cell_status, std::uint64_t cycles,
                         std::uint64_t digest) {
  if (cell_status != "ok") return Verdict::kStatus;
  const auto it = ref.find(key);
  if (it == ref.end()) return Verdict::kUnknownCell;
  if (it->second.cycles != cycles || it->second.output_digest != digest) {
    return Verdict::kMismatch;
  }
  return Verdict::kOk;
}

// One daemon response, checked. A request fails when its status is not
// "ok" (admission refusals included), when it carries no cells, or when
// any cell fails CheckCell.
struct ResponseCheck {
  bool parsed = false;
  std::string status;
  std::size_t cells = 0;
  std::size_t cells_ok = 0;    // cells that passed CheckCell
  std::string first_problem;   // "<job>: <verdict>" of the first bad cell
  [[nodiscard]] bool ok() const {
    return parsed && status == "ok" && cells > 0 && cells_ok == cells;
  }
};

inline ResponseCheck CheckResponse(const Reference& ref, const std::string& body) {
  using dsa::resilience::JsonValue;
  ResponseCheck rc;
  JsonValue resp;
  if (!dsa::resilience::ParseJson(body, resp) || !resp.is_object()) return rc;
  rc.parsed = true;
  if (const JsonValue* s = resp.Find("status")) rc.status = s->AsString();
  const JsonValue* cells = resp.Find("cells");
  if (cells == nullptr || !cells->is_array()) return rc;
  for (const JsonValue& c : cells->array) {
    ++rc.cells;
    const auto field = [&c](const char* name) -> std::string {
      const JsonValue* v = c.Find(name);
      return v != nullptr ? v->AsString() : std::string();
    };
    const JsonValue* cycles = c.Find("cycles");
    const std::uint64_t digest =
        std::strtoull(field("output_digest").c_str(), nullptr, 16);
    const Verdict v = CheckCell(ref, field("job"), field("cell_status"),
                                cycles != nullptr ? cycles->AsU64() : 0, digest);
    if (v == Verdict::kOk) {
      ++rc.cells_ok;
    } else if (rc.first_problem.empty()) {
      rc.first_problem = field("job") + ": " + ToString(v);
    }
  }
  return rc;
}

// Attempted/failed operation tally of one run.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_problem;
  void Record(bool ok, const std::string& problem) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (first_problem.empty()) first_problem = problem;
  }
};

}  // namespace perfbench
