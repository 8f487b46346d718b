#include "fault/fault.h"

#include <charconv>
#include <stdexcept>
#include <system_error>

namespace dsa::fault {

namespace {

constexpr std::string_view kKindNames[kNumFaultKinds] = {
    "cidp", "cache", "lane", "sentinel", "bitflip", "mem",
};
constexpr KindTable kKinds{"--faults", "fault kind", kKindNames};

}  // namespace

bool ParsePlanNumber(std::string_view token, std::uint64_t& out) {
  // from_chars takes digits only (no sign, no space) and reports overflow
  // instead of wrapping.
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

void BadPlan(const KindTable& table, const std::string& spec,
             const std::string& why) {
  throw std::invalid_argument("bad " + std::string(table.flag) + " spec \"" +
                              spec + "\": " + why);
}

std::string_view ToString(FaultKind k) { return KindName(kKinds, k); }

bool ParseFaultKind(std::string_view token, FaultKind& out) {
  return ParseKind(kKinds, token, out);
}

FaultPlan ParseFaultPlan(const std::string& spec) {
  return ParsePlan<FaultKind>(kKinds, spec);
}

std::string FormatFaultPlan(const FaultPlan& plan) {
  return FormatPlan(kKinds, plan);
}

}  // namespace dsa::fault
