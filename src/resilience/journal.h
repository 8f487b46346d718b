// The record-and-frame codec shared by every path that persists a cell
// or ships one between processes (the header keeps the name of the crash
// journal it grew out of):
//
//   - Cell records. SerializeOutcome / ParseOutcome round-trip one
//     completed cell (key, status, output digest, full deterministic
//     stats) as compact JSON. The content-addressed cell store
//     (serve/cache.h) persists exactly these records; the daemon serves
//     from it and the CLI drivers resume from it (`--cache DIR`).
//   - Run results. SerializeRunResult / ParseRunResult carry one
//     RunResult back over the isolation pipe (isolate.h).
//   - Binary frames: `magic[4] | u32 payload length (LE) | u32 CRC-32 of
//     the payload (LE) | payload`, where the payload is one record-type
//     byte followed by JSON. The "DSAI" isolation pipe and the "DSAS"
//     daemon socket (serve/proto.h) both use it. Callers do their own
//     read(2)/write(2), so which writes route through the host-I/O fault
//     shim (iofault.h) stays a decision of each caller.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "sim/runner.h"

namespace dsa::resilience {

class JsonValue;

// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over `len` bytes.
[[nodiscard]] std::uint32_t Crc32(const void* data, std::size_t len);

inline constexpr std::size_t kFrameHeaderBytes = 12;

// Appends a frame header: the four bytes of `magic`, then `len` and `crc`
// as little-endian u32s. EncodeFrame builds honest headers with it; the
// protocol fuzzer forges dishonest ones.
void PutFrameHeader(std::string& out, std::string_view magic,
                    std::uint32_t len, std::uint32_t crc);

// One complete frame whose payload is `type` followed by `json`.
[[nodiscard]] std::string EncodeFrame(std::string_view magic, char type,
                                      std::string_view json);

// Reads the header at the front of `frame`. False when fewer than
// kFrameHeaderBytes are present or the magic differs; `len` is returned
// unchecked, so a streaming reader can bound it before reading on.
[[nodiscard]] bool DecodeFrameHeader(std::string_view frame,
                                     std::string_view magic,
                                     std::uint32_t& len, std::uint32_t& crc);

// Decodes the frame at the front of `frame`. False on a bad header, an
// empty payload, a payload shorter than its length field (a torn frame)
// or a CRC mismatch — a frame is either verified whole or rejected.
[[nodiscard]] bool DecodeFrame(std::string_view frame, std::string_view magic,
                               char& type, std::string& json);

// One cell as a JSON object. ParseOutcome rebuilds an equivalent
// JobOutcome from the parsed object in place: the canonical run is
// replicated `runs` times so the determinism oracle sees the recorded
// sample count. False on any missing or ill-typed field, and on a run
// count above sim::kMaxRepeats.
[[nodiscard]] std::string SerializeOutcome(const sim::JobOutcome& out);
[[nodiscard]] bool ParseOutcome(const JsonValue& cell, sim::JobOutcome& out);

// One RunResult as compact JSON — the deterministic fields only (the
// trace pointer is not carried; host wall time is carried but marked
// volatile everywhere it is consumed).
[[nodiscard]] std::string SerializeRunResult(const sim::RunResult& r);
[[nodiscard]] bool ParseRunResult(const std::string& payload,
                                  sim::RunResult& r);

}  // namespace dsa::resilience
