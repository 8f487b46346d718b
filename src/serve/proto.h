// Wire protocol of the simulation daemon (docs/SERVING.md): every
// message on the Unix-domain socket is exactly one frame
//
//   "DSAS" | u32 payload length (LE) | u32 CRC-32 of the payload (LE) |
//   payload = one record-type byte + JSON
//
// — the frame codec of src/resilience/journal.h, shared with the "DSAI"
// isolation pipe, so a torn or corrupted frame is detected and
// classified instead of being parsed. A connection carries one request
// frame ('Q') and one response frame ('S').
#pragma once

#include <cstdint>
#include <string>

namespace dsa::serve {

inline constexpr char kProtoMagic[4] = {'D', 'S', 'A', 'S'};
inline constexpr char kFrameRequest = 'Q';
inline constexpr char kFrameResponse = 'S';

// A frame claiming a payload larger than this is refused as corrupt
// before any allocation happens — a garbage length prefix must not turn
// into a multi-gigabyte read.
inline constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

enum class RecvStatus {
  kOk,       // one complete frame decoded, CRC verified
  kClosed,   // clean EOF before the first header byte
  kCorrupt,  // bad magic, oversize length, CRC mismatch, or a torn frame
  kError,    // read(2) failed
};

[[nodiscard]] std::string_view ToString(RecvStatus s);

// Sends one frame; retries EINTR/short writes. False when the peer is
// gone or the payload exceeds kMaxFrameBytes.
[[nodiscard]] bool SendFrame(int fd, char type, const std::string& json);

// Receives exactly one frame (blocking).
[[nodiscard]] RecvStatus RecvFrame(int fd, char& type, std::string& json);

}  // namespace dsa::serve
