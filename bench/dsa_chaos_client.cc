// dsa_chaos_client — seeded hostile-protocol client for the dsa_serve
// daemon (docs/SERVING.md). It knows nine attacks: random garbage bytes,
// a truncated frame, a bad magic, an oversize length header, a mid-frame
// disconnect, a slow-loris header drip, a CRC-valid frame whose payload
// is not JSON, a frame with the wrong record type, and a CRC-valid
// request nested far past the JSON parser's depth bound. Each round
// fires one attack at the socket, then proves the daemon is still
// answering well-behaved requests with a deadline-bounded ping. Attacks
// are dealt from a seeded shuffle, so each block of nine rounds (1-9,
// 10-18, ...) fires every attack once. The same --seed replays the same
// attack sequence byte-for-byte.
//
// Exit codes: 0 — the daemon survived every round responsive;
//             1 — a post-attack ping failed (daemon hung, died or
//                 stopped answering);
//             2 — usage.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "mem/splitmix.h"
#include "resilience/journal.h"
#include "resilience/mini_json.h"
#include "serve/client.h"
#include "serve/flags.h"
#include "serve/proto.h"

namespace {

struct ChaosArgs {
  std::string socket_path;
  std::uint64_t seed = 1;
  std::uint64_t rounds = 16;
  std::uint64_t slow_ms = 40;  // inter-byte delay of the slow-loris drip
  bool verbose = false;
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [--seed N] [--rounds N] "
               "[--slow-ms N] [--verbose]\n",
               argv0);
  std::exit(2);
}

ChaosArgs ParseArgs(int argc, char** argv) {
  ChaosArgs a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) Usage(argv[0]);
      return argv[++i];
    };
    auto u64 = [&](const std::string& flag) {
      std::uint64_t v = 0;
      std::string err;
      if (!dsa::serve::ParseU64Text(value(), v, &err)) {
        std::fprintf(stderr, "%s %s\n", flag.c_str(), err.c_str());
        std::exit(2);
      }
      return v;
    };
    if (arg == "--socket") {
      a.socket_path = value();
    } else if (arg == "--seed") {
      a.seed = u64(arg);
    } else if (arg == "--rounds") {
      a.rounds = u64(arg);
    } else if (arg == "--slow-ms") {
      a.slow_ms = u64(arg);
    } else if (arg == "--verbose") {
      a.verbose = true;
    } else {
      Usage(argv[0]);
    }
  }
  if (a.socket_path.empty()) Usage(argv[0]);
  return a;
}

int ConnectTo(const std::string& path) {
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void BlindWrite(int fd, const void* data, std::size_t len) {
  // The daemon is allowed (encouraged!) to slam the door mid-attack;
  // EPIPE/ECONNRESET here is its defense working, not our failure.
  const char* p = static_cast<const char*>(data);
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, p + off, len - off);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;
    }
    off += static_cast<std::size_t>(n);
  }
}

using dsa::mem::SplitMix64;
using dsa::resilience::EncodeFrame;
using dsa::resilience::PutFrameHeader;
using dsa::serve::kFrameRequest;

constexpr std::string_view kMagic(dsa::serve::kProtoMagic,
                                   sizeof(dsa::serve::kProtoMagic));
constexpr std::string_view kPing =
    "{\"schema\":\"dsa-serve/1\",\"kind\":\"ping\"}";

const char* const kAttackNames[] = {
    "random-bytes",   "truncated-frame", "bad-magic",
    "oversize-header", "mid-frame-disconnect", "slow-loris",
    "non-json-payload", "wrong-type",      "deep-nesting",
};
constexpr int kNumAttacks = 9;

void Attack(int which, SplitMix64& rng, const ChaosArgs& a) {
  const int fd = ConnectTo(a.socket_path);
  if (fd < 0) return;  // the post-attack ping decides responsiveness
  switch (which) {
    case 0: {  // random-bytes: pure garbage, no framing at all
      std::string junk(16 + rng.Next() % 240, '\0');
      for (char& c : junk) c = static_cast<char>(rng.Next() & 0xFF);
      BlindWrite(fd, junk.data(), junk.size());
      break;
    }
    case 1: {  // truncated-frame: honest header, half the payload, hangup
      const std::string frame = EncodeFrame(kMagic, kFrameRequest, kPing);
      BlindWrite(fd, frame.data(), frame.size() / 2);
      break;
    }
    case 2: {  // bad-magic
      std::string frame;
      PutFrameHeader(frame, "XSAD", 32, 0);
      frame.append(32, 'x');
      BlindWrite(fd, frame.data(), frame.size());
      break;
    }
    case 3: {  // oversize-header: a length no allocation should honor
      std::string frame;
      const auto len = dsa::serve::kMaxFrameBytes + 1 +
                       static_cast<std::uint32_t>(rng.Next() % 1024);
      PutFrameHeader(frame, kMagic, len,
                     static_cast<std::uint32_t>(rng.Next()));
      BlindWrite(fd, frame.data(), frame.size());
      break;
    }
    case 4: {  // mid-frame-disconnect: a few header bytes, then vanish
      const std::string frame = EncodeFrame(kMagic, kFrameRequest, "{}");
      BlindWrite(fd, frame.data(), 3 + rng.Next() % 8);
      break;
    }
    case 5: {  // slow-loris: drip the header one byte at a time
      const std::string frame = EncodeFrame(kMagic, kFrameRequest, kPing);
      const std::size_t drip = 6 + rng.Next() % 6;  // never a whole header
      for (std::size_t i = 0; i < drip; ++i) {
        BlindWrite(fd, frame.data() + i, 1);
        std::this_thread::sleep_for(std::chrono::milliseconds(a.slow_ms));
      }
      break;
    }
    case 6: {  // non-json-payload inside a CRC-valid frame
      const std::string frame =
          EncodeFrame(kMagic, kFrameRequest, "not json at all {{{");
      BlindWrite(fd, frame.data(), frame.size());
      break;
    }
    case 7: {  // wrong record type in a CRC-valid frame
      const std::string frame =
          EncodeFrame(kMagic, 'Z', "{\"schema\":\"dsa-serve/1\"}");
      BlindWrite(fd, frame.data(), frame.size());
      break;
    }
    case 8:
    default: {  // deep-nesting: a CRC-valid request of 20k-100k '[' + ']'
      // A parser that recursed once per level without a bound would
      // overflow the reader thread's stack at these depths.
      const std::size_t depth = 20'000 + rng.Next() % 80'001;
      static_assert(20'000 > dsa::resilience::kMaxJsonDepth);
      const std::string json =
          std::string(depth, '[') + std::string(depth, ']');
      const std::string frame = EncodeFrame(kMagic, kFrameRequest, json);
      BlindWrite(fd, frame.data(), frame.size());
      break;
    }
  }
  ::close(fd);
}

bool PingOk(const ChaosArgs& a) {
  dsa::serve::ClientOptions po;
  po.socket_path = a.socket_path;
  po.client_name = "dsa_chaos_client";
  po.ping = true;
  po.quiet = true;
  po.recv_timeout_ms = 5000;
  po.retries = 2;  // the daemon may be mid-accept-burst; transport only
  return dsa::serve::Submit(po) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  const ChaosArgs a = ParseArgs(argc, argv);
  if (!PingOk(a)) {
    std::fprintf(stderr, "[dsa_chaos_client] daemon not answering before "
                         "round 1 — nothing to attack\n");
    return 1;
  }
  // One seed reproduces one attack byte sequence exactly.
  SplitMix64 rng = SplitMix64::Keyed(a.seed, 1);
  std::array<int, kNumAttacks> deck{};
  for (std::uint64_t round = 0; round < a.rounds; ++round) {
    const auto slot = static_cast<std::size_t>(round % kNumAttacks);
    if (slot == 0) {  // a fresh Fisher-Yates shuffle of every attack
      std::iota(deck.begin(), deck.end(), 0);
      for (std::size_t i = deck.size() - 1; i > 0; --i) {
        std::swap(deck[i], deck[rng.Next() % (i + 1)]);
      }
    }
    const int which = deck[slot];
    if (a.verbose) {
      std::printf("[dsa_chaos_client] round %" PRIu64 "/%" PRIu64 ": %s\n",
                  round + 1, a.rounds, kAttackNames[which]);
      std::fflush(stdout);
    }
    Attack(which, rng, a);
    if (!PingOk(a)) {
      std::fprintf(stderr,
                   "[dsa_chaos_client] FAILED: daemon unresponsive after "
                   "round %" PRIu64 " (%s)\n",
                   round + 1, kAttackNames[which]);
      return 1;
    }
  }
  std::printf("[dsa_chaos_client] daemon survived %" PRIu64
              " hostile round(s), still responsive\n",
              a.rounds);
  return 0;
}
