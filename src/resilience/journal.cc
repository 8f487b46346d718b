#include "resilience/journal.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "resilience/mini_json.h"

namespace dsa::resilience {

namespace {

// Little-endian u32 fields of a frame header.
void PutU32(std::string& s, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) s.push_back(static_cast<char>(v >> (8 * i)));
}

std::uint32_t GetU32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

// ---------------------------------------------------------------------------
// Serialization helpers (append-to-string writers; the reader side is
// mini_json).

void PutU64(std::string& s, const char* key, std::uint64_t v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "\"%s\":%" PRIu64 ",", key, v);
  s += buf;
}

void PutDbl(std::string& s, const char* key, double v) {
  // %.17g round-trips an IEEE double exactly through strtod.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.17g,", key, v);
  s += buf;
}

void PutStr(std::string& s, const char* key, const std::string& v) {
  s += '"';
  s += key;
  s += "\":\"";
  s += JsonEscape(v);
  s += "\",";
}

void PutBool(std::string& s, const char* key, bool v) {
  s += '"';
  s += key;
  s += v ? "\":true," : "\":false,";
}

void CloseObj(std::string& s) {
  if (!s.empty() && s.back() == ',') s.back() = '}';
  else s += '}';
}

template <typename Array>
void PutU64Array(std::string& s, const char* key, const Array& a) {
  s += '"';
  s += key;
  s += "\":[";
  bool first = true;
  for (const std::uint64_t v : a) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%s%" PRIu64, first ? "" : ",", v);
    s += buf;
    first = false;
  }
  s += "],";
}

template <typename Map>
void PutEnumMap(std::string& s, const char* key, const Map& m) {
  // Enum-keyed counters as [[numeric_key, count], ...] so the reader
  // never needs per-enum string parsers.
  s += '"';
  s += key;
  s += "\":[";
  bool first = true;
  for (const auto& [k, v] : m) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%s[%d,%" PRIu64 "]", first ? "" : ",",
                  static_cast<int>(k), v);
    s += buf;
    first = false;
  }
  s += "],";
}

void SerializeResult(std::string& s, const sim::RunResult& r) {
  s += '{';
  PutStr(s, "workload", r.workload);
  PutU64(s, "mode", static_cast<std::uint64_t>(r.mode));
  PutBool(s, "output_ok", r.output_ok);
  PutU64(s, "cycles", r.cycles);
  const std::uint64_t cpu[] = {
      r.cpu.retired_total,    r.cpu.retired_scalar, r.cpu.retired_vector,
      r.cpu.mem_reads,        r.cpu.mem_writes,     r.cpu.branches,
      r.cpu.mispredicts,      r.cpu.issue_slots,    r.cpu.mem_stall_cycles,
      r.cpu.other_stall_cycles, r.cpu.neon_busy_cycles,
      r.cpu.dsa_overhead_cycles};
  PutU64Array(s, "cpu", cpu);
  const std::uint64_t l1[] = {r.l1.hits, r.l1.misses};
  const std::uint64_t l2[] = {r.l2.hits, r.l2.misses};
  PutU64Array(s, "l1", l1);
  PutU64Array(s, "l2", l2);
  PutU64(s, "dram", r.dram_accesses);
  const double energy[] = {r.energy.core_dynamic, r.energy.core_static,
                           r.energy.neon_dynamic, r.energy.neon_static,
                           r.energy.cache_dram,   r.energy.dsa_dynamic,
                           r.energy.dsa_static};
  s += "\"energy\":[";
  for (int i = 0; i < 7; ++i) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%s%.17g", i == 0 ? "" : ",", energy[i]);
    s += buf;
  }
  s += "],";
  {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "\"digest\":\"0x%016" PRIx64 "\",",
                  r.output_digest);
    s += buf;
  }
  PutU64(s, "host_steps", r.host_steps);
  PutDbl(s, "host_wall_ms", r.host_wall_ms);
  if (r.dsa.has_value()) {
    const engine::DsaStats& d = *r.dsa;
    s += "\"dsa\":{";
    const std::uint64_t counters[] = {
        d.analysis_cycles,        d.observed_instructions,
        d.takeovers,              d.cache_hit_takeovers,
        d.fusions_formed,         d.fusion_demotions,
        d.sentinel_respeculations, d.vectorized_iterations,
        d.scalar_covered_instrs,  d.vector_instrs_issued,
        d.array_map_accesses,     d.vc_accesses,
        d.dsa_cache_accesses,     d.rollbacks,
        d.blacklisted_loops,      d.cache_corruptions_detected};
    PutU64Array(s, "counters", counters);
    PutU64Array(s, "stages", d.stage_activations);
    PutEnumMap(s, "loops", d.loops_by_class);
    PutEnumMap(s, "entries", d.entries_by_class);
    PutEnumMap(s, "rejects", d.rejects_by_reason);
    CloseObj(s);
    s += ',';
  }
  if (r.faults.has_value()) {
    const fault::FaultReport& fr = *r.faults;
    s += "\"faults\":{";
    PutStr(s, "plan", fault::FormatFaultPlan(fr.plan));
    PutU64Array(s, "opportunities", fr.opportunities);
    PutU64Array(s, "fired", fr.fired);
    CloseObj(s);
    s += ',';
  }
  CloseObj(s);
}

template <typename Array>
bool ReadU64Array(const JsonValue* v, Array& out, std::size_t expect) {
  if (v == nullptr || !v->is_array() || v->array.size() != expect) {
    return false;
  }
  for (std::size_t i = 0; i < expect; ++i) out[i] = v->array[i].AsU64();
  return true;
}

template <typename Map>
bool ReadEnumMap(const JsonValue* v, Map& out) {
  if (v == nullptr || !v->is_array()) return false;
  for (const JsonValue& pair : v->array) {
    if (!pair.is_array() || pair.array.size() != 2) return false;
    using Key = typename Map::key_type;
    out[static_cast<Key>(pair.array[0].AsI64())] = pair.array[1].AsU64();
  }
  return true;
}

bool ParseResult(const JsonValue& j, sim::RunResult& r) {
  if (!j.is_object()) return false;
  const JsonValue* wl = j.Find("workload");
  if (wl == nullptr || !wl->is_string()) return false;
  r.workload = wl->AsString();
  const JsonValue* mode = j.Find("mode");
  if (mode == nullptr) return false;
  r.mode = static_cast<sim::RunMode>(mode->AsU64());
  const JsonValue* ok = j.Find("output_ok");
  if (ok == nullptr) return false;
  r.output_ok = ok->AsBool();
  const JsonValue* cycles = j.Find("cycles");
  if (cycles == nullptr) return false;
  r.cycles = cycles->AsU64();

  std::uint64_t cpu[12];
  if (!ReadU64Array(j.Find("cpu"), cpu, 12)) return false;
  r.cpu.retired_total = cpu[0];
  r.cpu.retired_scalar = cpu[1];
  r.cpu.retired_vector = cpu[2];
  r.cpu.mem_reads = cpu[3];
  r.cpu.mem_writes = cpu[4];
  r.cpu.branches = cpu[5];
  r.cpu.mispredicts = cpu[6];
  r.cpu.issue_slots = cpu[7];
  r.cpu.mem_stall_cycles = cpu[8];
  r.cpu.other_stall_cycles = cpu[9];
  r.cpu.neon_busy_cycles = cpu[10];
  r.cpu.dsa_overhead_cycles = cpu[11];

  std::uint64_t l1[2];
  std::uint64_t l2[2];
  if (!ReadU64Array(j.Find("l1"), l1, 2)) return false;
  if (!ReadU64Array(j.Find("l2"), l2, 2)) return false;
  r.l1.hits = l1[0];
  r.l1.misses = l1[1];
  r.l2.hits = l2[0];
  r.l2.misses = l2[1];
  const JsonValue* dram = j.Find("dram");
  if (dram == nullptr) return false;
  r.dram_accesses = dram->AsU64();

  const JsonValue* energy = j.Find("energy");
  if (energy == nullptr || !energy->is_array() || energy->array.size() != 7) {
    return false;
  }
  r.energy.core_dynamic = energy->array[0].AsDouble();
  r.energy.core_static = energy->array[1].AsDouble();
  r.energy.neon_dynamic = energy->array[2].AsDouble();
  r.energy.neon_static = energy->array[3].AsDouble();
  r.energy.cache_dram = energy->array[4].AsDouble();
  r.energy.dsa_dynamic = energy->array[5].AsDouble();
  r.energy.dsa_static = energy->array[6].AsDouble();

  const JsonValue* digest = j.Find("digest");
  if (digest == nullptr || !digest->is_string()) return false;
  r.output_digest =
      std::strtoull(digest->AsString().c_str(), nullptr, 16);
  const JsonValue* steps = j.Find("host_steps");
  if (steps != nullptr) r.host_steps = steps->AsU64();
  const JsonValue* hw = j.Find("host_wall_ms");
  if (hw != nullptr) r.host_wall_ms = hw->AsDouble();

  if (const JsonValue* dsa = j.Find("dsa"); dsa != nullptr) {
    engine::DsaStats d;
    std::uint64_t counters[16];
    if (!ReadU64Array(dsa->Find("counters"), counters, 16)) return false;
    d.analysis_cycles = counters[0];
    d.observed_instructions = counters[1];
    d.takeovers = counters[2];
    d.cache_hit_takeovers = counters[3];
    d.fusions_formed = counters[4];
    d.fusion_demotions = counters[5];
    d.sentinel_respeculations = counters[6];
    d.vectorized_iterations = counters[7];
    d.scalar_covered_instrs = counters[8];
    d.vector_instrs_issued = counters[9];
    d.array_map_accesses = counters[10];
    d.vc_accesses = counters[11];
    d.dsa_cache_accesses = counters[12];
    d.rollbacks = counters[13];
    d.blacklisted_loops = counters[14];
    d.cache_corruptions_detected = counters[15];
    if (!ReadU64Array(dsa->Find("stages"), d.stage_activations,
                      engine::kNumStages)) {
      return false;
    }
    if (!ReadEnumMap(dsa->Find("loops"), d.loops_by_class)) return false;
    if (!ReadEnumMap(dsa->Find("entries"), d.entries_by_class)) return false;
    if (!ReadEnumMap(dsa->Find("rejects"), d.rejects_by_reason)) return false;
    r.dsa = d;
  }
  if (const JsonValue* faults = j.Find("faults"); faults != nullptr) {
    fault::FaultReport fr;
    const JsonValue* plan = faults->Find("plan");
    if (plan == nullptr || !plan->is_string()) return false;
    try {
      fr.plan = fault::ParseFaultPlan(plan->AsString());
    } catch (const std::invalid_argument&) {
      return false;
    }
    if (!ReadU64Array(faults->Find("opportunities"), fr.opportunities,
                      fault::kNumFaultKinds)) {
      return false;
    }
    if (!ReadU64Array(faults->Find("fired"), fr.fired,
                      fault::kNumFaultKinds)) {
      return false;
    }
    r.faults = fr;
  }
  return true;
}

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t len) {
  // Table-free bitwise CRC-32: frames and cell records are small next to
  // the simulation that produced them, so throughput is irrelevant.
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= p[i];
    for (int b = 0; b < 8; ++b) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

void PutFrameHeader(std::string& out, std::string_view magic,
                    std::uint32_t len, std::uint32_t crc) {
  out.append(magic.data(), 4);
  PutU32(out, len);
  PutU32(out, crc);
}

std::string EncodeFrame(std::string_view magic, char type,
                        std::string_view json) {
  std::string payload;
  payload.reserve(json.size() + 1);
  payload.push_back(type);
  payload.append(json);
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  PutFrameHeader(frame, magic, static_cast<std::uint32_t>(payload.size()),
                 Crc32(payload.data(), payload.size()));
  frame += payload;
  return frame;
}

bool DecodeFrameHeader(std::string_view frame, std::string_view magic,
                       std::uint32_t& len, std::uint32_t& crc) {
  if (frame.size() < kFrameHeaderBytes || frame.substr(0, 4) != magic) {
    return false;
  }
  const auto* p = reinterpret_cast<const unsigned char*>(frame.data());
  len = GetU32(p + 4);
  crc = GetU32(p + 8);
  return true;
}

bool DecodeFrame(std::string_view frame, std::string_view magic, char& type,
                 std::string& json) {
  std::uint32_t len = 0;
  std::uint32_t crc = 0;
  if (!DecodeFrameHeader(frame, magic, len, crc) || len == 0 ||
      frame.size() - kFrameHeaderBytes < len) {
    return false;
  }
  const std::string_view payload = frame.substr(kFrameHeaderBytes, len);
  if (Crc32(payload.data(), payload.size()) != crc) return false;
  type = payload[0];
  json.assign(payload.substr(1));
  return true;
}

std::string SerializeRunResult(const sim::RunResult& r) {
  std::string s;
  SerializeResult(s, r);
  return s;
}

bool ParseRunResult(const std::string& payload, sim::RunResult& r) {
  JsonValue j;
  if (!ParseJson(payload, j)) return false;
  r = sim::RunResult{};
  return ParseResult(j, r);
}

std::string SerializeOutcome(const sim::JobOutcome& out) {
  std::string s = "{";
  PutStr(s, "kind", "cell");
  PutStr(s, "key", out.key);
  PutStr(s, "status", out.cell_status);
  PutU64(s, "attempts", out.attempts);
  PutDbl(s, "wall_ms", out.wall_ms);
  PutU64(s, "runs", out.runs.size());
  if (!out.runs.empty()) {
    s += "\"result\":";
    SerializeResult(s, out.result());
    s += ',';
  }
  CloseObj(s);
  return s;
}

bool ParseOutcome(const JsonValue& j, sim::JobOutcome& out) {
  if (!j.is_object()) return false;
  const JsonValue* kind = j.Find("kind");
  if (kind == nullptr || kind->AsString() != "cell") return false;
  const JsonValue* k = j.Find("key");
  if (k == nullptr || !k->is_string() || k->AsString().empty()) return false;
  out = sim::JobOutcome{};
  out.key = k->AsString();
  const JsonValue* status = j.Find("status");
  if (status == nullptr || !status->is_string()) return false;
  out.cell_status = status->AsString();
  const JsonValue* attempts = j.Find("attempts");
  if (attempts == nullptr) return false;
  out.attempts = attempts->AsU64();
  if (const JsonValue* wall = j.Find("wall_ms"); wall != nullptr) {
    out.wall_ms = wall->AsDouble();
  }
  const JsonValue* nruns = j.Find("runs");
  if (nruns == nullptr) return false;
  const std::uint64_t n = nruns->AsU64();
  if (n > 0) {
    const JsonValue* result = j.Find("result");
    if (result == nullptr) return false;
    sim::RunResult r;
    if (!ParseResult(*result, r)) return false;
    // A record stores the canonical run once; the recorded sample count
    // is restored by replication (every repeat of a stored cell already
    // passed the determinism oracle before it was written).
    out.runs.assign(static_cast<std::size_t>(n), r);
  }
  return true;
}

}  // namespace dsa::resilience
