#include "serve/proto.h"

#include <unistd.h>

#include <cerrno>
#include <string_view>

#include "resilience/iofault.h"
#include "resilience/journal.h"

namespace dsa::serve {

namespace {

constexpr std::string_view kMagic(kProtoMagic, sizeof(kProtoMagic));

// Frame writes route through the injectable host-I/O shim
// (resilience/iofault.h): an armed write-kind plan (enospc/eio/
// short-write) perturbs DSAS frames exactly like any other host write,
// which is how the chaos drill rehearses a daemon whose responses fail
// mid-frame. Short writes from the shim just continue the loop.
bool WriteAll(int fd, const char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = resilience::IoWrite(fd, data + off, len - off);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// Reads exactly `len` bytes. 1 = done, 0 = EOF (bytes_read reports how
// far it got), -1 = read error.
int ReadExact(int fd, char* data, std::size_t len, std::size_t& bytes_read) {
  bytes_read = 0;
  while (bytes_read < len) {
    const ssize_t n = ::read(fd, data + bytes_read, len - bytes_read);
    if (n == 0) return 0;
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    bytes_read += static_cast<std::size_t>(n);
  }
  return 1;
}

}  // namespace

std::string_view ToString(RecvStatus s) {
  switch (s) {
    case RecvStatus::kOk: return "ok";
    case RecvStatus::kClosed: return "closed";
    case RecvStatus::kCorrupt: return "corrupt";
    case RecvStatus::kError: return "error";
  }
  return "?";
}

bool SendFrame(int fd, char type, const std::string& json) {
  if (json.size() + 1 > kMaxFrameBytes) return false;
  const std::string frame = resilience::EncodeFrame(kMagic, type, json);
  return WriteAll(fd, frame.data(), frame.size());
}

RecvStatus RecvFrame(int fd, char& type, std::string& json) {
  std::string frame(resilience::kFrameHeaderBytes, '\0');
  std::size_t got = 0;
  const int hr = ReadExact(fd, frame.data(), frame.size(), got);
  if (hr < 0) return RecvStatus::kError;
  if (hr == 0) return got == 0 ? RecvStatus::kClosed : RecvStatus::kCorrupt;
  std::uint32_t len = 0;
  std::uint32_t crc = 0;
  if (!resilience::DecodeFrameHeader(frame, kMagic, len, crc) || len == 0 ||
      len > kMaxFrameBytes) {
    return RecvStatus::kCorrupt;
  }
  frame.resize(resilience::kFrameHeaderBytes + len);
  const int pr = ReadExact(fd, frame.data() + resilience::kFrameHeaderBytes,
                           len, got);
  if (pr < 0) return RecvStatus::kError;
  if (pr == 0) return RecvStatus::kCorrupt;  // peer died mid-frame
  return resilience::DecodeFrame(frame, kMagic, type, json)
             ? RecvStatus::kOk
             : RecvStatus::kCorrupt;
}

}  // namespace dsa::serve
