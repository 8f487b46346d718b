// Deterministic fault injection: the one plan core behind both fault
// layers. A seeded plan describes which faults to arm (kind + trigger +
// repeat count) and an injector turns it into per-opportunity fire
// decisions. Every fire decision is a pure function of {plan,
// opportunity index}, so a faulted run is exactly as repeatable as a
// clean one — which is what lets the differential oracle check faulted
// cells for determinism and for bit-identical recovery against the
// fault-free baseline.
//
// The core is generic over a layer's kind enum. A layer brings only its
// kind table (grammar tokens plus the flag its errors quote); the plan
// and spec structs, the parser and formatter, the fire rule and the
// per-kind splitmix64 payload streams are written once, here. Two layers
// instantiate it:
//   - `--faults` (this file): the microarchitectural kinds the engine
//     fires (speculation guard, DSA-cache corruption hooks), one
//     FaultInjector per sim::Run;
//   - `--io-faults` (resilience/iofault.h): the host-I/O kinds behind the
//     process-global syscall shims.
//
// The library depends only on the header-only mem/splitmix.h, so the
// engine and the sim harness (SystemConfig, CLI) can both consume it.
// docs/FAULTS.md documents the grammar and the semantics of each kind.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mem/splitmix.h"

namespace dsa::fault {

// ---------------------------------------------------------------------------
// The core, generic over a kind enum K whose values are 0..N-1.

// One layer's kinds: the grammar token of each kind value, and the flag
// and noun that parse errors quote.
struct KindTable {
  std::string_view flag;                    // "--faults"
  std::string_view noun;                    // "fault kind"
  std::span<const std::string_view> names;  // names[k] = token of kind k
};

// One armed fault: fire on opportunities [trigger, trigger + count).
// Opportunities are counted per kind, starting at 0 (so trigger 0 fires on
// the first chance the run offers this kind of fault).
template <typename K>
struct Spec {
  K kind{};
  std::uint64_t trigger = 0;
  std::uint64_t count = 1;  // UINT64_MAX ("+" in the grammar) = every one
};

template <typename K>
struct Plan {
  std::vector<Spec<K>> specs;
  std::uint64_t seed = 0;
  bool seed_explicit = false;  // ";seed=N" was present in the spec string

  [[nodiscard]] bool enabled() const { return !specs.empty(); }
};

// What an injector did: its plan and the per-kind tallies.
template <typename K, int N>
struct Report {
  Plan<K> plan;
  std::array<std::uint64_t, N> opportunities{};
  std::array<std::uint64_t, N> fired{};

  [[nodiscard]] std::uint64_t total_fired() const {
    std::uint64_t n = 0;
    for (const std::uint64_t f : fired) n += f;
    return n;
  }
};

// A base-10 uint64 spanning the whole token. False on anything else,
// including a number that does not fit in 64 bits (no silent wrap).
[[nodiscard]] bool ParsePlanNumber(std::string_view token,
                                   std::uint64_t& out);

// Throws std::invalid_argument: `bad <flag> spec "<spec>": <why>`.
[[noreturn]] void BadPlan(const KindTable& table, const std::string& spec,
                          const std::string& why);

// The token of `k`; "?" for a value outside the table.
template <typename K>
[[nodiscard]] std::string_view KindName(const KindTable& table, K k) {
  const auto i = static_cast<std::size_t>(k);
  return i < table.names.size() ? table.names[i] : "?";
}

// False on a token that names no kind.
template <typename K>
[[nodiscard]] bool ParseKind(const KindTable& table, std::string_view token,
                             K& out) {
  for (std::size_t i = 0; i < table.names.size(); ++i) {
    if (token == table.names[i]) {
      out = static_cast<K>(i);
      return true;
    }
  }
  return false;
}

// Parses the plan grammar shared by every layer (docs/FAULTS.md):
//   plan  := entry ("," entry)* (";seed=" uint)?
//   entry := kind "@" trigger ["+" [count]]
// e.g. "cidp@0", "bitflip@2+3,mem@1", "cache@0+;seed=42". The empty
// string is the empty plan. Throws std::invalid_argument with a pointed
// message on bad input.
template <typename K>
[[nodiscard]] Plan<K> ParsePlan(const KindTable& table,
                                const std::string& spec) {
  Plan<K> plan;
  if (spec.empty()) return plan;

  std::string entries = spec;
  const std::size_t semi = spec.find(';');
  if (semi != std::string::npos) {
    entries = spec.substr(0, semi);
    const std::string tail = spec.substr(semi + 1);
    constexpr std::string_view kSeedKey = "seed=";
    if (tail.rfind(kSeedKey, 0) != 0 ||
        !ParsePlanNumber(std::string_view(tail).substr(kSeedKey.size()),
                         plan.seed)) {
      BadPlan(table, spec,
              "expected \";seed=<uint>\" after the entries, got \";" + tail +
                  "\"");
    }
    plan.seed_explicit = true;
  }

  std::size_t pos = 0;
  while (pos <= entries.size()) {
    std::size_t comma = entries.find(',', pos);
    if (comma == std::string::npos) comma = entries.size();
    const std::string entry = entries.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) BadPlan(table, spec, "empty entry");

    const std::size_t at = entry.find('@');
    if (at == std::string::npos) {
      BadPlan(table, spec, "entry \"" + entry + "\" misses \"@<trigger>\"");
    }
    Spec<K> fs;
    const std::string kind = entry.substr(0, at);
    if (!ParseKind(table, kind, fs.kind)) {
      std::string want;
      for (const std::string_view name : table.names) {
        if (!want.empty()) want += "|";
        want += name;
      }
      BadPlan(table, spec, "unknown " + std::string(table.noun) + " \"" +
                               kind + "\" (want " + want + ")");
    }
    std::string rest = entry.substr(at + 1);
    const std::size_t plus = rest.find('+');
    if (plus != std::string::npos) {
      const std::string count = rest.substr(plus + 1);
      if (count.empty()) {
        fs.count = UINT64_MAX;
      } else if (!ParsePlanNumber(count, fs.count) || fs.count == 0) {
        BadPlan(table, spec,
                "bad repeat count \"" + count + "\" in \"" + entry + "\"");
      }
      rest = rest.substr(0, plus);
    }
    if (!ParsePlanNumber(rest, fs.trigger)) {
      BadPlan(table, spec, "bad trigger \"" + rest + "\" in \"" + entry + "\"");
    }
    plan.specs.push_back(fs);
    if (comma == entries.size()) break;
  }
  return plan;
}

// Inverse of ParsePlan (canonical form; round-trips).
template <typename K>
[[nodiscard]] std::string FormatPlan(const KindTable& table,
                                     const Plan<K>& plan) {
  std::string out;
  for (const Spec<K>& fs : plan.specs) {
    if (!out.empty()) out += ",";
    out += std::string(KindName(table, fs.kind)) + "@" +
           std::to_string(fs.trigger);
    if (fs.count == UINT64_MAX) {
      out += "+";
    } else if (fs.count != 1) {
      out += "+";
      out += std::to_string(fs.count);
    }
  }
  if (plan.seed_explicit) out += ";seed=" + std::to_string(plan.seed);
  return out;
}

// Counts opportunities per kind and decides which fire. Not thread-safe:
// a caller that shares one injector across threads holds a lock around it.
template <typename K, int N>
class Injector {
 public:
  explicit Injector(const Plan<K>& plan) {
    report_.plan = plan;
    for (int k = 0; k < N; ++k) {
      rng_[k] = mem::SplitMix64::Keyed(plan.seed,
                                       static_cast<std::uint64_t>(k + 1));
    }
  }

  // Registers one opportunity for `k` and returns true when an armed spec
  // says this one fires. Call exactly once per opportunity site.
  [[nodiscard]] bool Fire(K k) {
    const auto i = static_cast<std::size_t>(k);
    const std::uint64_t opportunity = report_.opportunities[i]++;
    for (const Spec<K>& fs : report_.plan.specs) {
      if (fs.kind != k || opportunity < fs.trigger) continue;
      const std::uint64_t since = opportunity - fs.trigger;
      if (fs.count == UINT64_MAX || since < fs.count) {
        ++report_.fired[i];
        return true;
      }
    }
    return false;
  }

  // Deterministic pseudo-random payload for the next corruption of kind
  // `k` (splitmix64 stream keyed by plan.seed and the kind). Never
  // returns 0, so XOR-corruptions always change the target.
  [[nodiscard]] std::uint64_t Rand(K k) {
    const std::uint64_t v = rng_[static_cast<std::size_t>(k)].Next();
    return v == 0 ? 1 : v;
  }

  [[nodiscard]] const Report<K, N>& report() const { return report_; }
  [[nodiscard]] const Plan<K>& plan() const { return report_.plan; }
  [[nodiscard]] const std::array<std::uint64_t, N>& opportunities() const {
    return report_.opportunities;
  }
  [[nodiscard]] const std::array<std::uint64_t, N>& fired() const {
    return report_.fired;
  }
  [[nodiscard]] std::uint64_t total_fired() const {
    return report_.total_fired();
  }

 private:
  Report<K, N> report_;
  std::array<mem::SplitMix64, N> rng_{};
};

// ---------------------------------------------------------------------------
// The `--faults` layer: the paper's speculative stages, fired by the
// engine during one sim::Run.

// Stable fault-kind IDs (the bench JSON and the trace events carry the
// numeric value; append only).
enum class FaultKind : std::uint8_t {
  kCidpMispredict = 0,  // force a wrong CIDP verdict on a cache-hit plan
  kCacheCorrupt = 1,    // flip bits in a stored DSA-cache loop record
  kWrongLane = 2,       // Vector Map selects the wrong lane (cond. loops)
  kSentinelOverrun = 3, // speculative stores past the sentinel element
  kLaneBitflip = 4,     // single-event upset in a NEON lane
  kMemFault = 5,        // wild stream base address out of memory range
};
inline constexpr int kNumFaultKinds = 6;

using FaultSpec = Spec<FaultKind>;
using FaultPlan = Plan<FaultKind>;
// One per sim::Run.
using FaultInjector = Injector<FaultKind, kNumFaultKinds>;
// Carried by sim::RunResult so reports and the oracle can see what the
// injector actually did.
using FaultReport = Report<FaultKind, kNumFaultKinds>;

[[nodiscard]] std::string_view ToString(FaultKind k);
// Parses a kind token ("cidp", "cache", "lane", "sentinel", "bitflip",
// "mem"); returns false on an unknown token.
[[nodiscard]] bool ParseFaultKind(std::string_view token, FaultKind& out);
// ParsePlan/FormatPlan over the `--faults` kinds.
[[nodiscard]] FaultPlan ParseFaultPlan(const std::string& spec);
[[nodiscard]] std::string FormatFaultPlan(const FaultPlan& plan);

}  // namespace dsa::fault
