// Serving-layer tests (src/serve, docs/SERVING.md): strict flag-value
// parsing, wire-protocol framing over a socketpair, workload/config
// digests, the persistent result cache (round trip, corruption
// quarantine, version invalidation, Load/Scrub agreement), resuming CLI
// sweeps from it (`--cache DIR`), admission control, the job table
// against SweepJobs and KeyFor, and the daemon end to end over a real
// Unix-domain socket — submit, cache-hit resubmit with bit-identical
// results, malformed and over-deep requests, request deadlines (far ones
// included), the breaker behaving as the CLI supervisor's, the lazily
// built job table and the graceful drain. (The worker pool the
// daemon runs its cells on is tested with the runner, test_runner.cc.)
#include <gtest/gtest.h>
#include <dirent.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mem/splitmix.h"
#include "resilience/iofault.h"
#include "resilience/journal.h"
#include "resilience/mini_json.h"
#include "resilience/supervisor.h"
#include "serve/cache.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/flags.h"
#include "serve/proto.h"
#include "sim/error.h"
#include "sim/runner.h"
#include "workloads/workloads.h"

// Forking the isolate out of the daemon's multi-threaded process is fine
// under ASan (glibc's atfork handlers serialize malloc) but not under
// TSan, whose runtime does not support multi-threaded fork.
#if defined(__SANITIZE_THREAD__)
#define DSA_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DSA_UNDER_TSAN 1
#endif
#endif
#ifndef DSA_UNDER_TSAN
#define DSA_UNDER_TSAN 0
#endif

namespace dsa::serve {
namespace {

using sim::BatchJob;
using sim::JobOutcome;
using sim::RunMode;
using sim::RunResult;
using sim::SystemConfig;
using sim::Workload;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "serve_" + name + "_" +
         std::to_string(::getpid());
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void Spew(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
}

// ---------------------------------------------------------------------------
// Strict flag-value parsing (satellite: no silent defaults).

TEST(ServeFlags, ParsesWellFormedValues) {
  std::uint64_t u = 0;
  EXPECT_TRUE(ParseU64Text("0", u));
  EXPECT_EQ(u, 0u);
  EXPECT_TRUE(ParseU64Text("18446744073709551615", u));
  EXPECT_EQ(u, UINT64_MAX);
  long c = 0;
  EXPECT_TRUE(ParseCountText("42", c));
  EXPECT_EQ(c, 42);
  EXPECT_TRUE(ParseCountText("-3", c));
  EXPECT_EQ(c, -3);
}

TEST(ServeFlags, RefusesMalformedU64) {
  std::uint64_t u = 0;
  std::string err;
  EXPECT_FALSE(ParseU64Text("", u, &err));
  EXPECT_FALSE(ParseU64Text("12abc", u, &err));
  EXPECT_NE(err.find("12abc"), std::string::npos);
  EXPECT_FALSE(ParseU64Text("abc", u, &err));
  // A sign must not sneak through strtoull's wrap-around.
  EXPECT_FALSE(ParseU64Text("-1", u, &err));
  EXPECT_FALSE(ParseU64Text("+1", u, &err));
  // One past UINT64_MAX.
  EXPECT_FALSE(ParseU64Text("18446744073709551616", u, &err));
  EXPECT_NE(err.find("overflows"), std::string::npos);
}

TEST(ServeFlags, RefusesMalformedCount) {
  long c = 0;
  std::string err;
  EXPECT_FALSE(ParseCountText("", c, &err));
  EXPECT_FALSE(ParseCountText("7x", c, &err));
  EXPECT_FALSE(ParseCountText("999999999999999999999999", c, &err));
  EXPECT_NE(err.find("out of range"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Wire protocol framing.

struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
};

TEST(Proto, FrameRoundTripsTypeAndPayload) {
  SocketPair sp;
  const std::string payload = "{\"x\":1}";
  ASSERT_TRUE(SendFrame(sp.a, kFrameRequest, payload));
  char type = 0;
  std::string got;
  EXPECT_EQ(RecvFrame(sp.b, type, got), RecvStatus::kOk);
  EXPECT_EQ(type, kFrameRequest);
  EXPECT_EQ(got, payload);
}

TEST(Proto, CleanEofIsClosedNotCorrupt) {
  SocketPair sp;
  ::close(sp.a);
  sp.a = -1;
  char type = 0;
  std::string got;
  EXPECT_EQ(RecvFrame(sp.b, type, got), RecvStatus::kClosed);
}

TEST(Proto, TornHeaderAndTornPayloadAreCorrupt) {
  {
    SocketPair sp;
    // Half a header, then hangup.
    ASSERT_EQ(::write(sp.a, "DSAS\x05", 5), 5);
    ::close(sp.a);
    sp.a = -1;
    char type = 0;
    std::string got;
    EXPECT_EQ(RecvFrame(sp.b, type, got), RecvStatus::kCorrupt);
  }
  {
    SocketPair sp;
    // A valid frame cut off mid-payload (peer died mid-send).
    std::string frame;
    {
      SocketPair full;
      ASSERT_TRUE(SendFrame(full.a, kFrameRequest, "{\"k\":\"v\"}"));
      char buf[64];
      const ssize_t n = ::read(full.b, buf, sizeof(buf));
      ASSERT_GT(n, 12);
      frame.assign(buf, static_cast<std::size_t>(n));
    }
    ASSERT_EQ(::write(sp.a, frame.data(), frame.size() - 3),
              static_cast<ssize_t>(frame.size() - 3));
    ::close(sp.a);
    sp.a = -1;
    char type = 0;
    std::string got;
    EXPECT_EQ(RecvFrame(sp.b, type, got), RecvStatus::kCorrupt);
  }
}

TEST(Proto, CrcMismatchAndBadMagicAreCorrupt) {
  {
    SocketPair sp;
    std::string frame;
    {
      SocketPair full;
      ASSERT_TRUE(SendFrame(full.a, kFrameResponse, "{\"ok\":true}"));
      char buf[64];
      const ssize_t n = ::read(full.b, buf, sizeof(buf));
      ASSERT_GT(n, 12);
      frame.assign(buf, static_cast<std::size_t>(n));
    }
    frame.back() ^= 0x40;  // flip a payload bit; CRC must catch it
    ASSERT_EQ(::write(sp.a, frame.data(), frame.size()),
              static_cast<ssize_t>(frame.size()));
    char type = 0;
    std::string got;
    EXPECT_EQ(RecvFrame(sp.b, type, got), RecvStatus::kCorrupt);
  }
  {
    SocketPair sp;
    const char junk[12] = {'J', 'U', 'N', 'K', 1, 0, 0, 0, 0, 0, 0, 0};
    ASSERT_EQ(::write(sp.a, junk, sizeof(junk)), 12);
    char type = 0;
    std::string got;
    EXPECT_EQ(RecvFrame(sp.b, type, got), RecvStatus::kCorrupt);
  }
}

TEST(Proto, OversizeLengthIsRefusedWithoutAllocation) {
  SocketPair sp;
  // Header claiming a 2 GB payload: must be classified, not allocated.
  std::string header = "DSAS";
  const std::uint32_t len = 0x80000000u;
  for (int i = 0; i < 4; ++i) {
    header.push_back(static_cast<char>((len >> (8 * i)) & 0xFF));
  }
  header.append(4, '\0');
  ASSERT_EQ(::write(sp.a, header.data(), header.size()), 12);
  char type = 0;
  std::string got;
  EXPECT_EQ(RecvFrame(sp.b, type, got), RecvStatus::kCorrupt);
  // And the sender refuses to build such a frame in the first place.
  const std::string huge(kMaxFrameBytes, 'x');
  EXPECT_FALSE(SendFrame(sp.a, kFrameRequest, huge));
}

// ---------------------------------------------------------------------------
// Cache keys: digests are stable and sensitive.

TEST(CacheKeyDigests, WorkloadDigestIsStableAcrossConstructions) {
  const Workload a = workloads::MakeVecAdd(512);
  const Workload b = workloads::MakeVecAdd(512);
  EXPECT_EQ(WorkloadDigest(a), WorkloadDigest(b));
}

TEST(CacheKeyDigests, WorkloadDigestSeesProgramAndDataChanges) {
  const Workload base = workloads::MakeVecAdd(512);
  const std::uint64_t d0 = WorkloadDigest(base);

  // A different element count changes program constants and init data.
  EXPECT_NE(WorkloadDigest(workloads::MakeVecAdd(256)), d0);

  Workload renamed = base;
  renamed.name = "VecAddRenamed";
  EXPECT_NE(WorkloadDigest(renamed), d0);

  Workload patched = base;
  ASSERT_FALSE(patched.scalar.code().empty());
  patched.scalar.code()[0].imm ^= 1;
  EXPECT_NE(WorkloadDigest(patched), d0);

  Workload different_data = base;
  auto inner = base.init;
  different_data.init = [inner](mem::Memory& m) {
    if (inner) inner(m);
    m.data()[0] ^= 0xFF;  // same programs, different input image
  };
  EXPECT_NE(WorkloadDigest(different_data), d0);
}

TEST(CacheKeyDigests, ConfigDigestSeesEveryLayer) {
  const SystemConfig base;
  const std::uint64_t d0 = ConfigDigest(base);
  EXPECT_EQ(ConfigDigest(SystemConfig{}), d0);

  SystemConfig timing = base;
  timing.timing.superscalar_width += 1;
  EXPECT_NE(ConfigDigest(timing), d0);

  SystemConfig memcfg = base;
  memcfg.memory.dram_latency += 10;
  EXPECT_NE(ConfigDigest(memcfg), d0);

  SystemConfig dsa = base;
  dsa.dsa = engine::DsaConfig::Original();
  EXPECT_NE(ConfigDigest(dsa), d0);

  SystemConfig energy = base;
  energy.energy.scalar_instr *= 2;
  EXPECT_NE(ConfigDigest(energy), d0);

  SystemConfig steps = base;
  steps.max_steps += 1;
  EXPECT_NE(ConfigDigest(steps), d0);
}

// Config digests are part of every cell file name: a changed value
// orphans every stored cell, so the walk's output is pinned.
TEST(CacheKeyDigests, ConfigDigestValuesArePinned) {
  EXPECT_EQ(ConfigDigest(SystemConfig{}), 0x9e72ed4f6655d9d2ull);
  SystemConfig original;
  original.dsa = engine::DsaConfig::Original();
  EXPECT_EQ(ConfigDigest(original), 0x150f7bc5f60e7592ull);
  SystemConfig faulted;
  faulted.faults = fault::ParseFaultPlan("cidp@0,bitflip@2+3,mem@5+;seed=9");
  EXPECT_EQ(ConfigDigest(faulted), 0x02d384297e52cb51ull);
}

TEST(CacheKeyDigests, FileNameEncodesEveryKeyField) {
  CacheKey key;
  key.job_key = "VecAdd@arm-original";
  key.workload_digest = 0x1111;
  key.config_digest = 0x2222;
  const std::string name = key.FileName();
  EXPECT_EQ(name.size(), 16u + 5u);
  EXPECT_NE(name.find(".cell"), std::string::npos);

  // Any key-field change addresses a different file — version bumps
  // invalidate the whole cache by construction.
  CacheKey other = key;
  other.engine_version = "dsa-engine/0";
  EXPECT_NE(other.FileName(), name);
  other = key;
  other.bench_schema = "dsa-bench-json/0";
  EXPECT_NE(other.FileName(), name);
  other = key;
  other.job_key = "VecAdd@neon-dsa";
  EXPECT_NE(other.FileName(), name);
  other = key;
  other.workload_digest ^= 1;
  EXPECT_NE(other.FileName(), name);
  other = key;
  other.config_digest ^= 1;
  EXPECT_NE(other.FileName(), name);
}

// ---------------------------------------------------------------------------
// Persistent result cache.

JobOutcome FakeOutcome(const std::string& key) {
  JobOutcome out;
  out.key = key;
  out.workload_key = "VecAdd";
  out.mode = RunMode::kScalar;
  out.cell_status = "ok";
  out.attempts = 1;
  RunResult r;
  r.workload = "VecAdd";
  r.mode = RunMode::kScalar;
  r.output_ok = true;
  r.cycles = 123456;
  r.output_digest = 0xDEADBEEFCAFEF00Dull;
  out.runs.push_back(r);
  return out;
}

CacheKey FakeKey(const std::string& job_key) {
  CacheKey key;
  key.job_key = job_key;
  key.workload_digest = 0xAAAA;
  key.config_digest = 0xBBBB;
  return key;
}

TEST(ResultCacheTest, StoreLoadRoundTripsTheOutcome) {
  ResultCache cache;
  std::string err;
  ASSERT_TRUE(cache.Open(TempPath("roundtrip"), &err)) << err;
  const CacheKey key = FakeKey("VecAdd@arm-original");
  const JobOutcome out = FakeOutcome("VecAdd@arm-original");

  JobOutcome in;
  EXPECT_FALSE(cache.Load(key, in));  // cold
  ASSERT_TRUE(cache.Store(key, out));
  ASSERT_TRUE(cache.Load(key, in));
  EXPECT_EQ(in.key, out.key);
  EXPECT_EQ(in.cell_status, "ok");
  ASSERT_FALSE(in.runs.empty());
  EXPECT_EQ(in.result().cycles, out.result().cycles);
  EXPECT_EQ(in.result().output_digest, out.result().output_digest);

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.stores, 1u);
  EXPECT_EQ(stats.quarantined, 0u);
}

TEST(ResultCacheTest, CorruptEntryIsQuarantinedNotTrusted) {
  ResultCache cache;
  const std::string dir = TempPath("corrupt");
  ASSERT_TRUE(cache.Open(dir));
  const CacheKey key = FakeKey("VecAdd@arm-original");
  ASSERT_TRUE(cache.Store(key, FakeOutcome("VecAdd@arm-original")));

  const std::string path = dir + "/" + key.FileName();
  std::string raw = Slurp(path);
  ASSERT_GT(raw.size(), 20u);
  raw[15] ^= 0x20;  // flip one payload byte under the CRC
  Spew(path, raw);

  JobOutcome in;
  EXPECT_FALSE(cache.Load(key, in));
  EXPECT_EQ(cache.stats().quarantined, 1u);
  // The corrupt entry was moved aside, not deleted (forensics) and not
  // served; a fresh Store repopulates the slot.
  EXPECT_FALSE(Slurp(path + ".quarantine").empty());
  ASSERT_TRUE(cache.Store(key, FakeOutcome("VecAdd@arm-original")));
  EXPECT_TRUE(cache.Load(key, in));
}

TEST(ResultCacheTest, TruncatedEntryIsQuarantined) {
  ResultCache cache;
  const std::string dir = TempPath("trunc");
  ASSERT_TRUE(cache.Open(dir));
  const CacheKey key = FakeKey("VecAdd@neon-dsa");
  ASSERT_TRUE(cache.Store(key, FakeOutcome("VecAdd@neon-dsa")));
  const std::string path = dir + "/" + key.FileName();
  const std::string raw = Slurp(path);
  Spew(path, raw.substr(0, raw.size() / 2));  // torn write, no newline
  JobOutcome in;
  EXPECT_FALSE(cache.Load(key, in));
  EXPECT_EQ(cache.stats().quarantined, 1u);
}

TEST(ResultCacheTest, EntryForADifferentKeyIsAMissNotCorruption) {
  ResultCache cache;
  const std::string dir = TempPath("mismatch");
  ASSERT_TRUE(cache.Open(dir));
  const CacheKey stored = FakeKey("VecAdd@arm-original");
  ASSERT_TRUE(cache.Store(stored, FakeOutcome("VecAdd@arm-original")));

  // Plant the (valid) entry under the name a different key addresses —
  // a hash collision in effigy. Load must verify the stored key fields
  // and miss, leaving the file alone.
  CacheKey other = stored;
  other.job_key = "VecAdd@neon-dsa";
  ASSERT_EQ(::rename((dir + "/" + stored.FileName()).c_str(),
                     (dir + "/" + other.FileName()).c_str()),
            0);
  JobOutcome in;
  EXPECT_FALSE(cache.Load(other, in));
  EXPECT_EQ(cache.stats().quarantined, 0u);
  EXPECT_FALSE(Slurp(dir + "/" + other.FileName()).empty());
}

TEST(ResultCacheTest, VersionBumpInvalidatesByConstruction) {
  ResultCache cache;
  ASSERT_TRUE(cache.Open(TempPath("version")));
  CacheKey key = FakeKey("VecAdd@arm-original");
  ASSERT_TRUE(cache.Store(key, FakeOutcome("VecAdd@arm-original")));

  CacheKey bumped = key;
  bumped.engine_version = "dsa-engine/next";
  JobOutcome in;
  EXPECT_FALSE(cache.Load(bumped, in));  // different address: plain miss
  EXPECT_EQ(cache.stats().quarantined, 0u);
  EXPECT_TRUE(cache.Load(key, in));  // old entry still serves its version
}

// ---------------------------------------------------------------------------
// Typed degradation under injected host-I/O faults (resilience/iofault.h):
// every fault kind must surface as a counted store failure — never a
// published-but-torn entry, never a silent success.

struct IoFaultPlanGuard {
  ~IoFaultPlanGuard() { resilience::ClearIoFaultPlan(); }
};

class ResultCacheIoFault : public ::testing::TestWithParam<const char*> {};

TEST_P(ResultCacheIoFault, StoreFailsTypedAndNothingTornIsServed) {
  IoFaultPlanGuard guard;
  ResultCache cache;
  const std::string dir = TempPath(std::string("iofault_") + GetParam());
  ASSERT_TRUE(cache.Open(dir));
  const CacheKey key = FakeKey("VecAdd@arm-original");

  resilience::InstallIoFaultPlan(resilience::ParseIoFaultPlan(GetParam()));
  EXPECT_FALSE(cache.Store(key, FakeOutcome("VecAdd@arm-original")));
  EXPECT_EQ(cache.stats().store_failures, 1u);
  EXPECT_EQ(cache.stats().stores, 0u);
  // Nothing was published under the final name, and nothing torn can be
  // loaded — the failed store is a clean miss, not corruption.
  JobOutcome in;
  EXPECT_FALSE(cache.Load(key, in));
  EXPECT_EQ(cache.stats().quarantined, 0u);

  // Degradation is recompute-without-promote: once the fault plan is
  // exhausted (count=1), the same store succeeds and round-trips.
  resilience::ClearIoFaultPlan();
  EXPECT_TRUE(cache.Store(key, FakeOutcome("VecAdd@arm-original")));
  EXPECT_TRUE(cache.Load(key, in));
  EXPECT_EQ(in.result().output_digest, 0xDEADBEEFCAFEF00Dull);
}

INSTANTIATE_TEST_SUITE_P(EveryFailingKind, ResultCacheIoFault,
                         ::testing::Values("enospc@0", "eio@0", "open-fail@0",
                                           "fsync-fail@0", "rename-fail@0"));

TEST(ResultCacheIoFaultDetail, TmpFsyncRefusalCountsBothCensusFields) {
  IoFaultPlanGuard guard;
  ResultCache cache;
  ASSERT_TRUE(cache.Open(TempPath("iofault_fsync_census")));
  resilience::InstallIoFaultPlan(resilience::ParseIoFaultPlan("fsync-fail@0"));
  EXPECT_FALSE(cache.Store(FakeKey("VecAdd@arm-original"),
                           FakeOutcome("VecAdd@arm-original")));
  // A refused tmp fsync means the entry was never durable: counted as a
  // store failure AND as a refused fsync.
  EXPECT_EQ(cache.stats().store_failures, 1u);
  EXPECT_EQ(cache.stats().fsync_failures, 1u);
}

TEST(ResultCacheIoFaultDetail, ShortWritesAreRetriedToAnIntactEntry) {
  IoFaultPlanGuard guard;
  ResultCache cache;
  ASSERT_TRUE(cache.Open(TempPath("iofault_short")));
  const CacheKey key = FakeKey("VecAdd@arm-original");
  // Every write is shortened, but Store's retry loop finishes the line;
  // the published entry must be byte-perfect (the CRC proves it).
  resilience::InstallIoFaultPlan(
      resilience::ParseIoFaultPlan("short-write@0+;seed=5"));
  ASSERT_TRUE(cache.Store(key, FakeOutcome("VecAdd@arm-original")));
  const resilience::IoFaultCensus census = resilience::GetIoFaultCensus();
  EXPECT_GT(census.fired[static_cast<int>(
                resilience::IoFaultKind::kShortWrite)],
            0u);
  JobOutcome in;
  EXPECT_TRUE(cache.Load(key, in));
  EXPECT_EQ(cache.stats().quarantined, 0u);
  EXPECT_EQ(in.result().cycles, 123456u);
}

// ---------------------------------------------------------------------------
// Boot-time cache scrub.

TEST(ResultCacheScrub, QuarantinesCorruptEntriesBeforeServing) {
  ResultCache cache;
  const std::string dir = TempPath("scrub");
  ASSERT_TRUE(cache.Open(dir));
  const CacheKey good = FakeKey("VecAdd@arm-original");
  const CacheKey bad = FakeKey("VecAdd@neon-dsa");
  ASSERT_TRUE(cache.Store(good, FakeOutcome("VecAdd@arm-original")));
  ASSERT_TRUE(cache.Store(bad, FakeOutcome("VecAdd@neon-dsa")));

  // Bit-rot one entry on disk, then scrub as a fresh boot would.
  const std::string victim = dir + "/" + bad.FileName();
  std::string raw = Slurp(victim);
  ASSERT_GT(raw.size(), 24u);
  raw[raw.size() / 2] ^= 0x5A;
  Spew(victim, raw);

  const ScrubStats stats = cache.Scrub();
  EXPECT_EQ(stats.checked, 2u);
  EXPECT_EQ(stats.ok, 1u);
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(cache.scrub_stats().quarantined, 1u);
  // The corrupt entry was moved aside (forensics), the good one kept.
  EXPECT_FALSE(Slurp(victim + ".quarantine").empty());
  EXPECT_TRUE(Slurp(victim).empty());
  JobOutcome in;
  EXPECT_TRUE(cache.Load(good, in));
  EXPECT_FALSE(cache.Load(bad, in));
}

TEST(ResultCacheScrub, CleanDirectoryScrubsGreen) {
  ResultCache cache;
  ASSERT_TRUE(cache.Open(TempPath("scrub_clean")));
  ASSERT_TRUE(cache.Store(FakeKey("VecAdd@arm-original"),
                          FakeOutcome("VecAdd@arm-original")));
  const ScrubStats stats = cache.Scrub();
  EXPECT_EQ(stats.checked, 1u);
  EXPECT_EQ(stats.ok, 1u);
  EXPECT_EQ(stats.quarantined, 0u);
}

// ---------------------------------------------------------------------------
// Two cache instances sharing one directory (two daemons in the soak
// drill): concurrent stores of the same keys must never publish a torn
// entry — every load sees either nothing or a complete CRC-valid cell.

TEST(SharedCacheDir, ConcurrentStoresNeverTearEntries) {
  const std::string dir = TempPath("shared");
  ResultCache a;
  ResultCache b;
  ASSERT_TRUE(a.Open(dir));
  ASSERT_TRUE(b.Open(dir));

  constexpr int kKeys = 8;
  constexpr int kRounds = 25;
  std::atomic<bool> torn{false};
  const auto hammer = [&](ResultCache& cache) {
    for (int r = 0; r < kRounds; ++r) {
      for (int k = 0; k < kKeys; ++k) {
        const std::string jk = "VecAdd@key" + std::to_string(k);
        (void)cache.Store(FakeKey(jk), FakeOutcome(jk));
        JobOutcome in;
        if (cache.Load(FakeKey(jk), in) &&
            in.result().output_digest != 0xDEADBEEFCAFEF00Dull) {
          torn = true;  // served bytes that match no store ever issued
        }
      }
    }
  };
  std::thread ta([&] { hammer(a); });
  std::thread tb([&] { hammer(b); });
  ta.join();
  tb.join();
  EXPECT_FALSE(torn.load());
  // Nobody quarantined anything: rename is atomic, so no reader ever saw
  // a half-written entry under a final name.
  EXPECT_EQ(a.stats().quarantined, 0u);
  EXPECT_EQ(b.stats().quarantined, 0u);
  // And no tmp litter survived the races.
  const ScrubStats stats = a.Scrub();
  EXPECT_EQ(stats.checked, static_cast<std::uint64_t>(kKeys));
  EXPECT_EQ(stats.quarantined, 0u);
}

// ---------------------------------------------------------------------------
// One entry parser: Load and the boot scrub agree on every fixture.

// Load and Scrub share one entry parser, so they cannot disagree: every
// fixture this suite plants — bit flips, a torn write, a foreign key —
// plus entries whose CRC is valid but whose content is not, is kept by
// the scrub exactly when Load does not quarantine it, and an entry
// planted under its own key is kept exactly when it loads.
TEST(ResultCacheScrub, AgreesWithLoadOnEveryFixture) {
  const CacheKey own = FakeKey("VecAdd@arm-original");
  CacheKey foreign = own;
  foreign.job_key = "VecAdd@neon-dsa";
  std::string intact;
  {
    ResultCache source;
    const std::string dir = TempPath("agree_source");
    ASSERT_TRUE(source.Open(dir));
    ASSERT_TRUE(source.Store(own, FakeOutcome(own.job_key)));
    intact = Slurp(dir + "/" + own.FileName());
  }
  // Rewrites one span of the payload and re-frames it with a valid CRC.
  const auto edited = [&intact](const std::string& from,
                                const std::string& to) {
    std::string payload = intact.substr(9, intact.size() - 10);
    const std::size_t at = payload.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) payload.replace(at, from.size(), to);
    char crc[12];
    std::snprintf(crc, sizeof(crc), "%08x ",
                  resilience::Crc32(payload.data(), payload.size()));
    return crc + payload + "\n";
  };
  std::string payload_flip = intact;
  payload_flip[15] ^= 0x20;
  std::string bit_rot = intact;
  bit_rot[bit_rot.size() / 2] ^= 0x5A;
  struct Fixture {
    const char* name;
    std::string bytes;
    CacheKey planted;  // the key whose file name holds the bytes
    bool kept;
  };
  const std::string engine =
      "\"engine\":\"" + std::string(kEngineVersion) + "\"";
  const std::vector<Fixture> fixtures = {
      {"intact", intact, own, true},
      {"foreign-key", intact, foreign, true},
      {"payload-bit-flip", payload_flip, own, false},
      {"mid-entry-bit-rot", bit_rot, own, false},
      {"torn-write", intact.substr(0, intact.size() / 2), own, false},
      {"empty-engine-label", edited(engine, "\"engine\":\"\""), own, false},
      {"cell-key-disagrees",
       edited("\"key\":\"VecAdd@arm-original\",\"status\"",
              "\"key\":\"VecAdd@neon-dsa\",\"status\""),
       own, false},
      {"wrong-entry-schema",
       edited(std::string(kCacheEntrySchema), "dsa-serve-cache/0"), own,
       false},
      // A run count no --repeats can produce: replicating it would
      // exhaust memory, so it is corruption, not a cell.
      {"forged-run-count",
       edited("\"runs\":1,", "\"runs\":1000000000000,"), own, false},
  };
  for (const Fixture& f : fixtures) {
    SCOPED_TRACE(f.name);
    ResultCache scrubbed;
    ResultCache loaded;
    const std::string scrub_dir = TempPath(std::string("agree_s_") + f.name);
    const std::string load_dir = TempPath(std::string("agree_l_") + f.name);
    ASSERT_TRUE(scrubbed.Open(scrub_dir));
    ASSERT_TRUE(loaded.Open(load_dir));
    Spew(scrub_dir + "/" + f.planted.FileName(), f.bytes);
    Spew(load_dir + "/" + f.planted.FileName(), f.bytes);
    const bool kept = scrubbed.Scrub().ok == 1;
    JobOutcome in;
    const bool hit = loaded.Load(f.planted, in);
    EXPECT_EQ(kept, f.kept);
    EXPECT_EQ(kept, loaded.stats().quarantined == 0);
    if (f.planted == own) {
      EXPECT_EQ(kept, hit);
    }
  }
}

// A stored entry cut off at any length below full (the image a torn,
// non-atomic writer could leave) never makes Load fill `out`, and the
// boot scrub quarantines it; the full length loads bit-identically.
TEST(ResultCacheTest, TruncationAtEveryByteNeverLoadsAPartialCell) {
  const BatchJob job{workloads::MakeVecAdd(256), RunMode::kDsa,
                     SystemConfig{}, "", ""};
  sim::RunnerOptions ro;
  ro.run_fn = [](const Workload& w, RunMode m, const SystemConfig& c) {
    return sim::Run(w, m, c);
  };
  JobOutcome cell;
  sim::ExecuteCell(job, ro, cell);
  ASSERT_EQ(cell.cell_status, "ok");
  const CacheKey key = KeyFor(job);

  ResultCache cache;
  const std::string dir = TempPath("killdrill");
  ASSERT_TRUE(cache.Open(dir));
  ASSERT_TRUE(cache.Store(key, cell));
  const std::string path = dir + "/" + key.FileName();
  const std::string intact = Slurp(path);
  ASSERT_GT(intact.size(), 0u);
  // Every byte under sanitizers is slow; a stride still crosses every
  // field boundary because field lengths are not multiples of it.
  const std::size_t stride = intact.size() > 4096 ? 3 : 1;
  std::uint64_t cuts = 0;
  for (std::size_t len = 0; len < intact.size(); len += stride, ++cuts) {
    Spew(path, intact.substr(0, len));
    JobOutcome in;
    in.key = "untouched";
    EXPECT_FALSE(cache.Load(key, in)) << "len " << len;
    EXPECT_EQ(in.key, "untouched") << "len " << len;
    Spew(path, intact.substr(0, len));
    EXPECT_EQ(cache.Scrub().quarantined, 1u) << "len " << len;
  }
  EXPECT_EQ(cache.stats().quarantined, cuts);
  EXPECT_EQ(cache.stats().hits, 0u);

  Spew(path, intact);
  JobOutcome in;
  ASSERT_TRUE(cache.Load(key, in));
  EXPECT_EQ(resilience::SerializeOutcome(in), resilience::SerializeOutcome(cell));
  EXPECT_EQ(cache.Scrub().quarantined, 0u);
}

// ---------------------------------------------------------------------------
// Resuming a CLI sweep from the store (AttachCache, `--cache DIR`).

TEST(Resume, RestoresStoredCellsWithoutReexecution) {
  const std::string dir = TempPath("resume");
  const Workload wl = workloads::MakeVecAdd(512);

  // Pass 1: execute the full matrix into the store.
  std::vector<std::string> keys;
  std::map<std::string, std::string> serialized;
  {
    ResultCache cache;
    ASSERT_TRUE(cache.Open(dir));
    sim::RunnerOptions o;
    o.jobs = 2;
    o.repeats = 2;
    AttachCache(cache, o);
    sim::BatchRunner runner(o);
    const auto ks = runner.SubmitMatrix(wl);
    keys.assign(ks.begin(), ks.end());
    ASSERT_TRUE(runner.Finish().ok());
    EXPECT_EQ(cache.stats().stores, 4u);
    for (const std::string& k : keys) {
      serialized[k] = resilience::SerializeOutcome(runner.outcomes().at(k));
    }
  }

  // Pass 2: the same sweep over the same directory executes nothing.
  ResultCache cache;
  ASSERT_TRUE(cache.Open(dir));
  std::atomic<int> executions{0};
  sim::RunnerOptions o2;
  o2.jobs = 2;
  o2.repeats = 2;
  o2.run_fn = [&executions](const Workload& w, RunMode m,
                            const SystemConfig& c) {
    ++executions;
    return sim::Run(w, m, c);
  };
  AttachCache(cache, o2);
  sim::BatchRunner runner2(o2);
  (void)runner2.SubmitMatrix(wl);
  const sim::BatchReport report2 = runner2.Finish();
  EXPECT_TRUE(report2.ok());
  EXPECT_EQ(executions.load(), 0);
  EXPECT_EQ(report2.restored_cells, 4u);
  // Restored cells keep their recorded run count, so the report
  // reconciles exactly like the uninterrupted batch.
  EXPECT_EQ(report2.executed_runs, 4u * 2u);
  EXPECT_EQ(cache.stats().stores, 0u);
  for (const std::string& k : keys) {
    const JobOutcome& out = runner2.outcomes().at(k);
    EXPECT_TRUE(out.restored) << k;
    EXPECT_EQ(out.cell_status, "ok") << k;
    EXPECT_EQ(resilience::SerializeOutcome(out), serialized[k]) << k;
  }
}

// The job key alone does not tell two configs apart (no driver tagged
// them), but the store's key covers the full config digest: a cell
// stored under the default config must never answer for slower DRAM.
TEST(Resume, ConfigChangeUnderTheSameJobKeyIsNeverRestored) {
  const std::string dir = TempPath("stale_config");
  const Workload wl = workloads::MakeVecAdd(512);
  SystemConfig slow;
  slow.memory.dram_latency += 100;
  const RunResult fresh_default = sim::Run(wl, RunMode::kDsa, SystemConfig{});
  const RunResult fresh_slow = sim::Run(wl, RunMode::kDsa, slow);
  ASSERT_NE(fresh_default.cycles, fresh_slow.cycles);  // the premise

  sim::RunnerOptions o;
  o.jobs = 1;
  o.repeats = 1;
  std::string stored_key;
  {
    ResultCache cache;
    ASSERT_TRUE(cache.Open(dir));
    sim::RunnerOptions first = o;
    AttachCache(cache, first);
    sim::BatchRunner runner(first);
    stored_key = runner.Submit(wl, RunMode::kDsa, SystemConfig{});
    ASSERT_TRUE(runner.Finish().ok());
    ASSERT_EQ(cache.stats().stores, 1u);
  }

  ResultCache cache;
  ASSERT_TRUE(cache.Open(dir));
  AttachCache(cache, o);
  sim::BatchRunner runner(o);
  const std::string key = runner.Submit(wl, RunMode::kDsa, slow);
  EXPECT_EQ(key, stored_key);
  const sim::BatchReport report = runner.Finish();
  EXPECT_EQ(report.restored_cells, 0u);
  EXPECT_EQ(report.executed_runs, 1u);
  EXPECT_EQ(runner.outcomes().at(key).result().cycles, fresh_slow.cycles);
  EXPECT_EQ(runner.outcomes().at(key).result().output_digest,
            fresh_slow.output_digest);
}

// The daemon stores single runs; a CLI sweep asking for two re-executes
// such a cell (and stores it again) rather than reporting one run where
// its --repeats promised two.
TEST(Resume, CellStoredWithAnotherRunCountIsReexecuted) {
  const std::string dir = TempPath("run_count");
  const Workload wl = workloads::MakeVecAdd(256);
  const auto sweep = [&](int repeats) {
    ResultCache cache;
    EXPECT_TRUE(cache.Open(dir));
    sim::RunnerOptions o;
    o.jobs = 1;
    o.repeats = repeats;
    AttachCache(cache, o);
    sim::BatchRunner runner(o);
    const std::string key = runner.Submit(wl, RunMode::kScalar, {});
    const sim::BatchReport report = runner.Finish();
    EXPECT_EQ(runner.outcomes().at(key).runs.size(),
              static_cast<std::size_t>(repeats));
    return report.restored_cells;
  };
  EXPECT_EQ(sweep(1), 0u);
  EXPECT_EQ(sweep(2), 0u);  // one stored run is not two
  EXPECT_EQ(sweep(2), 1u);  // the re-stored cell now restores
}

// Store failures in a CLI sweep are typed, not silent: under a plan that
// refuses every fsync the cells still complete "ok", and the bench JSON's
// `cache` block counts the refusals and carries an [io-fault] warning.
TEST(CacheBenchJson, FsyncRefusalsSurfaceAsATypedWarning) {
  IoFaultPlanGuard guard;
  ResultCache cache;
  ASSERT_TRUE(cache.Open(TempPath("bench_json_fsync")));
  sim::RunnerOptions o;
  o.jobs = 1;
  o.repeats = 1;
  AttachCache(cache, o);
  resilience::InstallIoFaultPlan(resilience::ParseIoFaultPlan("fsync-fail@0+"));
  sim::BatchRunner runner(o);
  (void)runner.SubmitMatrix(workloads::MakeVecAdd(256));
  const sim::BatchReport report = runner.Finish();
  resilience::ClearIoFaultPlan();

  sim::BenchJsonExtras extras;
  ReportCache(cache, extras);
  const std::string path = TempPath("bench_json_fsync") + ".json";
  ASSERT_TRUE(sim::WriteBenchJson(path, "cache_fsync", runner, report,
                                  &extras));
  resilience::JsonValue doc;
  ASSERT_TRUE(resilience::ParseJson(Slurp(path), doc));
  const resilience::JsonValue* results = doc.Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->array.size(), 4u);
  for (const resilience::JsonValue& r : results->array) {
    EXPECT_EQ(r.Find("cell_status")->AsString(), "ok");
  }
  const resilience::JsonValue* block = doc.Find("cache");
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->Find("stores")->AsU64(), 0u);
  EXPECT_GE(block->Find("fsync_failures")->AsU64(), 1u);
  const resilience::JsonValue* warning = block->Find("warning");
  ASSERT_NE(warning, nullptr);
  EXPECT_NE(warning->AsString().find("[io-fault]"), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Admission control.

TEST(AdmissionControlTest, BoundsTotalQueueDepth) {
  AdmissionControl ac(/*queue_limit=*/2, /*client_quota=*/2);
  EXPECT_EQ(ac.Admit("a"), "");
  EXPECT_EQ(ac.Admit("b"), "");
  const std::string refused = ac.Admit("c");
  EXPECT_NE(refused.find("overload"), std::string::npos);
  EXPECT_NE(refused.find("queue full"), std::string::npos);
  ac.Done("a");
  EXPECT_EQ(ac.Admit("c"), "");
  EXPECT_EQ(ac.depth(), 2);
}

TEST(AdmissionControlTest, EnforcesPerClientQuota) {
  AdmissionControl ac(/*queue_limit=*/8, /*client_quota=*/1);
  EXPECT_EQ(ac.Admit("greedy"), "");
  const std::string refused = ac.Admit("greedy");
  EXPECT_NE(refused.find("over quota"), std::string::npos);
  EXPECT_EQ(ac.Admit("other"), "");  // siblings unaffected
  ac.Done("greedy");
  EXPECT_EQ(ac.Admit("greedy"), "");
}

// ---------------------------------------------------------------------------
// The daemon's job table: the sweep space keyed once.

TEST(JobTableTest, PicksTheCellsOfSweepJobsInOrderWithFreshKeys) {
  const JobTable table = JobTable::Build();
  ASSERT_EQ(table.entries.size(), SweepJobs("").size());
  for (const char* filter : {"", "BitCount", "bitcount@NEON-DSA", "/orig",
                             "@arm-original", "MemCmp@neon-dsa"}) {
    SCOPED_TRACE(filter);
    const std::vector<BatchJob> jobs = SweepJobs(filter);
    const std::vector<const JobTable::Entry*> picks = table.Match(filter);
    ASSERT_FALSE(jobs.empty());
    ASSERT_EQ(picks.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(picks[i]->cache_key.job_key, sim::JobKey(jobs[i]));
      // Content-addressed per cell: the stored key is exactly what
      // KeyFor computes for a freshly built job.
      EXPECT_EQ(picks[i]->cache_key, KeyFor(jobs[i]));
    }
  }
  EXPECT_TRUE(table.Match("no-such-workload-xyz").empty());
}

// ---------------------------------------------------------------------------
// Daemon end to end over a real socket.

class DaemonE2E : public ::testing::Test {
 protected:
  void SetUp() override {
    resilience::Supervisor::DrainFlag().store(false);
  }

  void TearDown() override {
    if (daemon_ != nullptr) {
      resilience::Supervisor::DrainFlag().store(true);
      if (serve_thread_.joinable()) serve_thread_.join();
      EXPECT_EQ(exit_code_, 3);  // graceful drain is exit 3, always
    }
    resilience::Supervisor::DrainFlag().store(false);
  }

  // Short socket path: sun_path is ~108 bytes and TempDir can be long.
  std::string SocketPath(const char* tag) {
    return "/tmp/dsa_serve_t" + std::to_string(::getpid()) + "_" + tag +
           ".sock";
  }

  void Start(DaemonOptions opts) {
    socket_path_ = opts.socket_path;
    daemon_ = std::make_unique<Daemon>(std::move(opts));
    std::string err;
    ASSERT_TRUE(daemon_->Init(&err)) << err;
    serve_thread_ = std::thread([this] { exit_code_ = daemon_->Serve(); });
    ClientOptions ping;
    ping.socket_path = socket_path_;
    ping.ping = true;
    ping.quiet = true;
    for (int i = 0; i < 250; ++i) {
      if (Submit(ping) == 0) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    FAIL() << "daemon never answered the ping";
  }

  resilience::JsonValue SubmitAndParse(const std::string& filter,
                                       int expect_exit,
                                       const char* tag) {
    ClientOptions c;
    c.socket_path = socket_path_;
    c.filter = filter;
    c.json_path = TempPath(std::string("resp_") + tag) + ".json";
    EXPECT_EQ(Submit(c), expect_exit);
    resilience::JsonValue resp;
    EXPECT_TRUE(resilience::ParseJson(Slurp(c.json_path), resp));
    return resp;
  }

  static std::string Field(const resilience::JsonValue& obj,
                           std::string_view name) {
    const resilience::JsonValue* v = obj.Find(name);
    return v != nullptr ? v->AsString() : std::string();
  }

  static bool FieldBool(const resilience::JsonValue& obj,
                        std::string_view name) {
    const resilience::JsonValue* v = obj.Find(name);
    return v != nullptr && v->AsBool();
  }

  std::string socket_path_;
  std::unique_ptr<Daemon> daemon_;
  std::thread serve_thread_;
  int exit_code_ = -1;
};

TEST_F(DaemonE2E, CacheHitResubmitIsBitIdentical) {
  DaemonOptions opts;
  opts.socket_path = SocketPath("cache");
  opts.cache_dir = TempPath("daemon_cache");
  opts.workers = 2;
  Start(std::move(opts));

  // One small cell: the scalar BitCount run of the bench_matrix space.
  const resilience::JsonValue first =
      SubmitAndParse("BitCount@arm-original", 0, "first");
  EXPECT_EQ(Field(first, "status"), "ok");
  EXPECT_EQ(Field(first, "cells_cached"), "0");
  ASSERT_TRUE(first.Find("cells") != nullptr &&
              first.Find("cells")->is_array());
  ASSERT_EQ(first.Find("cells")->array.size(), 1u);
  const resilience::JsonValue& cell0 = first.Find("cells")->array[0];
  EXPECT_EQ(Field(cell0, "cell_status"), "ok");
  EXPECT_FALSE(FieldBool(cell0, "cached"));

  const resilience::JsonValue second =
      SubmitAndParse("BitCount@arm-original", 0, "second");
  EXPECT_EQ(Field(second, "cells_cached"), "1");
  const resilience::JsonValue& cell1 = second.Find("cells")->array[0];
  EXPECT_TRUE(FieldBool(cell1, "cached"));
  // The promise of the persistent cache: bit-identical cycles + digest.
  EXPECT_EQ(Field(cell1, "cycles"), Field(cell0, "cycles"));
  EXPECT_EQ(Field(cell1, "output_digest"), Field(cell0, "output_digest"));
  EXPECT_NE(Field(cell1, "output_digest"), "");
}

TEST_F(DaemonE2E, MalformedRequestsGetTypedRefusals) {
  DaemonOptions opts;
  opts.socket_path = SocketPath("bad");
  Start(std::move(opts));

  // A filter matching nothing is a bad request, not an empty sweep.
  ClientOptions c;
  c.socket_path = socket_path_;
  c.filter = "no-such-workload-xyz";
  c.quiet = true;
  EXPECT_EQ(Submit(c), 4);

  // Hand-rolled connection: a frame that is not JSON.
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  ASSERT_TRUE(SendFrame(fd, kFrameRequest, "this is not json"));
  char type = 0;
  std::string json;
  ASSERT_EQ(RecvFrame(fd, type, json), RecvStatus::kOk);
  ::close(fd);
  resilience::JsonValue resp;
  ASSERT_TRUE(resilience::ParseJson(json, resp));
  EXPECT_EQ(Field(resp, "status"), "bad-request");

  // Raw garbage bytes (corrupt frame): the daemon hangs up without a
  // response and must survive to answer the next request.
  fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  ASSERT_EQ(::write(fd, "garbage-bytes", 13), 13);
  ::close(fd);
  ClientOptions ping;
  ping.socket_path = socket_path_;
  ping.ping = true;
  ping.quiet = true;
  int rc = -1;
  for (int i = 0; i < 100; ++i) {
    rc = Submit(ping);
    if (rc == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(rc, 0);

  // An unknown request schema is refused with a typed bad-request.
  ClientOptions unknown = c;
  unknown.filter.clear();
  // (Covered above via raw frame; the client always sends the right
  // schema, so exercise the deadline refusal here instead.)
  unknown.deadline_ms = 1;
  unknown.quiet = true;
  EXPECT_EQ(Submit(unknown), 4);  // expires before any cell completes
}

TEST_F(DaemonE2E, IsolatedCrashCellPoisonsOnlyItself) {
#if DSA_UNDER_TSAN
  GTEST_SKIP() << "fork from the daemon's threaded process is unsupported "
                  "under TSan";
#endif
  DaemonOptions opts;
  opts.socket_path = SocketPath("crash");
  opts.resilience.isolate = true;
  // The Fig-16 "orig" DSA cell crashes; the extended sibling completes.
  opts.crash_cell = "BitCount@neon-dsa/orig";
  Start(std::move(opts));

  const resilience::JsonValue resp =
      SubmitAndParse("BitCount@neon-dsa", 1, "crash");
  EXPECT_EQ(Field(resp, "status"), "ok");
  ASSERT_TRUE(resp.Find("cells") != nullptr && resp.Find("cells")->is_array());
  ASSERT_EQ(resp.Find("cells")->array.size(), 2u);
  int crashed = 0;
  int ok = 0;
  for (const resilience::JsonValue& cell : resp.Find("cells")->array) {
    const std::string status = Field(cell, "cell_status");
    if (Field(cell, "job") == "BitCount@neon-dsa/orig") {
      EXPECT_EQ(status, "crashed");
      ++crashed;
    } else {
      EXPECT_EQ(status, "ok");
      ++ok;
    }
  }
  EXPECT_EQ(crashed, 1);
  EXPECT_EQ(ok, 1);
}

// The daemon contains cells through the CLI's supervisor: with the same
// breaker, one crashing cell gives the five BitCount cells the same
// statuses, attempts, skip messages and breaker census on both front
// ends.
TEST_F(DaemonE2E, BreakerSkipsLikeTheCliSupervisor) {
#if DSA_UNDER_TSAN
  GTEST_SKIP() << "fork from the daemon's threaded process is unsupported "
                  "under TSan";
#endif
  resilience::SupervisorOptions so;
  so.isolate = true;
  so.breaker_threshold = 1;
  so.breaker_probe_after = 2;
  DaemonOptions opts;
  opts.socket_path = SocketPath("breaker");
  opts.workers = 1;
  opts.resilience = so;
  opts.crash_cell = "BitCount@arm-original";
  Start(std::move(opts));
  const resilience::JsonValue resp = SubmitAndParse("BitCount", 1, "breaker");

  // The CLI side, in-process: run_fn throws what the isolate reports for
  // the aborting cell.
  so.isolate = false;
  resilience::Supervisor sup(so);
  sim::RunnerOptions ro;
  ro.jobs = 1;
  ro.repeats = 1;
  ro.oracle = false;
  ro.run_fn = [](const Workload& wl, RunMode m, const SystemConfig& c) {
    if (m == RunMode::kScalar) {
      throw sim::DsaError(sim::DsaErrorCode::kCrash, "crash drill");
    }
    return sim::Run(wl, m, c);
  };
  sup.Attach(ro);
  sim::BatchRunner runner(ro);
  std::vector<std::string> keys;
  for (BatchJob& job : SweepJobs("BitCount")) {
    keys.push_back(runner.Submit(std::move(job)));
  }
  (void)runner.Finish();

  const std::vector<std::string> want = {"crashed", "skipped", "skipped",
                                         "ok", "ok"};
  ASSERT_EQ(keys.size(), want.size());
  const resilience::JsonValue* cells = resp.Find("cells");
  ASSERT_TRUE(cells != nullptr && cells->is_array());
  ASSERT_EQ(cells->array.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(keys[i]);
    const resilience::JsonValue& cell = cells->array[i];
    const JobOutcome& cli = runner.outcomes().at(keys[i]);
    EXPECT_EQ(Field(cell, "job"), keys[i]);
    EXPECT_EQ(Field(cell, "cell_status"), want[i]);
    EXPECT_EQ(cli.cell_status, want[i]);
    EXPECT_EQ(Field(cell, "attempts"), std::to_string(cli.attempts));
    if (want[i] == "skipped") {
      EXPECT_EQ(Field(cell, "error"), cli.error);
    }
  }

  const resilience::JsonValue* breaker = resp.Find("breaker");
  ASSERT_TRUE(breaker != nullptr && breaker->is_array());
  ASSERT_EQ(breaker->array.size(), 1u);
  const resilience::JsonValue& served = breaker->array[0];
  const std::vector<sim::BreakerCensusEntry> census = sup.breaker().Census();
  ASSERT_EQ(census.size(), 1u);
  EXPECT_EQ(Field(served, "workload"), census[0].workload);
  EXPECT_EQ(Field(served, "state"), "closed");
  EXPECT_EQ(census[0].state, "closed");
  EXPECT_EQ(Field(served, "failures"), std::to_string(census[0].failures));
  EXPECT_EQ(Field(served, "trips"), "1");
  EXPECT_EQ(census[0].trips, 1u);
  EXPECT_EQ(Field(served, "skipped"), "2");
  EXPECT_EQ(census[0].skipped, 2u);
}

// A deadline past steady_clock's range is no deadline: the request is
// served, never refused as expired, and the clock arithmetic does not
// overflow (which UBSan would stop on).
TEST_F(DaemonE2E, FarDeadlineNeverExpires) {
  constexpr std::uint64_t kFar = std::uint64_t{1} << 62;
  DaemonOptions opts;
  opts.socket_path = SocketPath("far");
  opts.default_deadline_ms = kFar;
  Start(std::move(opts));
  // 0 sends no deadline, so the daemon's default applies.
  for (const std::uint64_t deadline_ms : {kFar, UINT64_MAX, std::uint64_t{0}}) {
    SCOPED_TRACE(deadline_ms);
    ClientOptions c;
    c.socket_path = socket_path_;
    c.filter = "BitCount@arm-original";
    c.deadline_ms = deadline_ms;
    c.quiet = true;
    c.json_path = TempPath("resp_far") + ".json";
    ASSERT_EQ(Submit(c), 0);
    resilience::JsonValue resp;
    ASSERT_TRUE(resilience::ParseJson(Slurp(c.json_path), resp));
    EXPECT_EQ(Field(resp, "status"), "ok");
  }
}

// ---------------------------------------------------------------------------
// Hostile-environment hardening (docs/SERVING.md failure matrix).

int CountOpenFds() {
  int n = 0;
  DIR* d = ::opendir("/proc/self/fd");
  if (d == nullptr) return -1;
  while (::readdir(d) != nullptr) ++n;
  ::closedir(d);
  return n;
}

int RawConnect(const std::string& socket_path) {
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST_F(DaemonE2E, FsyncRefusalDegradesToRecomputeWithoutPromote) {
  IoFaultPlanGuard guard;
  DaemonOptions opts;
  opts.socket_path = SocketPath("iofault");
  opts.cache_dir = TempPath("daemon_iofault_cache");
  // Every tmp-file fsync refuses: no cell is ever durable, so nothing
  // may be promoted — and nothing may pretend to be.
  opts.io_fault_plan = "fsync-fail@0+";
  Start(std::move(opts));

  const resilience::JsonValue first =
      SubmitAndParse("BitCount@arm-original", 0, "iofault_first");
  EXPECT_EQ(Field(first, "status"), "ok");  // the cell itself is healthy
  const resilience::JsonValue second =
      SubmitAndParse("BitCount@arm-original", 0, "iofault_second");
  // Degraded mode: recomputed, not served from a cache that never
  // accepted the entry.
  EXPECT_EQ(Field(second, "cells_cached"), "0");
  const resilience::JsonValue* cache = second.Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_NE(Field(*cache, "store_failures"), "0");
  EXPECT_NE(Field(*cache, "fsync_failures"), "0");

  // The health census names the armed plan and its fired faults.
  ClientOptions h;
  h.socket_path = socket_path_;
  h.health = true;
  h.quiet = true;
  h.json_path = TempPath("resp_iofault_health") + ".json";
  ASSERT_EQ(Submit(h), 0);
  resilience::JsonValue resp;
  ASSERT_TRUE(resilience::ParseJson(Slurp(h.json_path), resp));
  const resilience::JsonValue* health = resp.Find("health");
  ASSERT_NE(health, nullptr);
  const resilience::JsonValue* io = health->Find("io_faults");
  ASSERT_NE(io, nullptr);
  EXPECT_TRUE(FieldBool(*io, "active"));
  EXPECT_NE(Field(*io, "plan").find("fsync-fail@0+"), std::string::npos);
}

TEST_F(DaemonE2E, BootScrubQuarantinesPlantedCorruption) {
  const std::string cache_dir = TempPath("daemon_scrub_cache");
  const std::string socket = SocketPath("scrub");
  // Seed the cache with one completed cell, then corrupt it on disk the
  // way bit-rot (or a torn non-atomic writer) would.
  {
    DaemonOptions opts;
    opts.socket_path = socket;
    opts.cache_dir = cache_dir;
    Start(std::move(opts));
    SubmitAndParse("BitCount@arm-original", 0, "scrub_seed");
    resilience::Supervisor::DrainFlag().store(true);
    serve_thread_.join();
    EXPECT_EQ(exit_code_, 3);
    daemon_.reset();
    resilience::Supervisor::DrainFlag().store(false);
  }
  std::string victim;
  {
    DIR* d = ::opendir(cache_dir.c_str());
    ASSERT_NE(d, nullptr);
    while (dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name.size() > 5 && name.rfind(".cell") == name.size() - 5) {
        victim = cache_dir + "/" + name;
      }
    }
    ::closedir(d);
  }
  ASSERT_FALSE(victim.empty());
  std::string raw = Slurp(victim);
  ASSERT_GT(raw.size(), 24u);
  raw[raw.size() / 2] ^= 0x5A;
  Spew(victim, raw);

  // A restarting daemon scrubs on boot: the corrupt entry is quarantined
  // before serving, the resubmit recomputes, and health reports it.
  DaemonOptions opts;
  opts.socket_path = socket;
  opts.cache_dir = cache_dir;
  Start(std::move(opts));
  const resilience::JsonValue resp =
      SubmitAndParse("BitCount@arm-original", 0, "scrub_recompute");
  EXPECT_EQ(Field(resp, "status"), "ok");
  EXPECT_EQ(Field(resp, "cells_cached"), "0");

  ClientOptions h;
  h.socket_path = socket;
  h.health = true;
  h.quiet = true;
  h.json_path = TempPath("resp_scrub_health") + ".json";
  ASSERT_EQ(Submit(h), 0);
  resilience::JsonValue hv;
  ASSERT_TRUE(resilience::ParseJson(Slurp(h.json_path), hv));
  const resilience::JsonValue* health = hv.Find("health");
  ASSERT_NE(health, nullptr);
  const resilience::JsonValue* scrub = health->Find("scrub");
  ASSERT_NE(scrub, nullptr);
  EXPECT_EQ(Field(*scrub, "quarantined"), "1");
  EXPECT_FALSE(Slurp(victim + ".quarantine").empty());
}

TEST_F(DaemonE2E, SeededProtocolFuzzNoHangNoFdLeak) {
  DaemonOptions opts;
  opts.socket_path = SocketPath("fuzz");
  opts.read_deadline_ms = 400;
  Start(std::move(opts));
  const int baseline = CountOpenFds();
  ASSERT_GT(baseline, 0);

  // One seed, one reproducible hostile byte stream.
  mem::SplitMix64 rng{0x9e3779b97f4a7c15ull * 17};
  ClientOptions ping;
  ping.socket_path = socket_path_;
  ping.ping = true;
  ping.quiet = true;
  ping.recv_timeout_ms = 5000;
  ping.retries = 2;
  for (int round = 0; round < 24; ++round) {
    const int fd = RawConnect(socket_path_);
    ASSERT_GE(fd, 0);
    switch (rng.Next() % 4) {
      case 0: {  // pure garbage
        std::string junk(1 + rng.Next() % 128, '\0');
        for (char& c : junk) c = static_cast<char>(rng.Next() & 0xFF);
        (void)!::write(fd, junk.data(), junk.size());
        break;
      }
      case 1:  // torn header
        (void)!::write(fd, "DSAS\x10\x00", 2 + rng.Next() % 4);
        break;
      case 2: {  // oversize length claim
        std::string hdr = "DSAS\xff\xff\xff\x7f";
        hdr.append(4, '\0');
        (void)!::write(fd, hdr.data(), hdr.size());
        break;
      }
      case 3:  // connect-and-vanish
      default:
        break;
    }
    ::close(fd);
    // After every attack the daemon still answers a well-behaved ping
    // within its deadline: no hang, no wedged reader.
    ASSERT_EQ(Submit(ping), 0) << "daemon unresponsive after round "
                               << round;
  }
  // Reader teardown is asynchronous; poll until every hostile fd is
  // returned. A leak shows as a persistently raised count.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int fds = -1;
  while (std::chrono::steady_clock::now() < deadline) {
    fds = CountOpenFds();
    if (fds <= baseline + 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_LE(fds, baseline + 2) << "fd leak after hostile traffic";
}

// A CRC-valid request nested far past the JSON parser's depth bound is
// a typed bad-request (client exit 4), and the daemon keeps answering.
// An unbounded recursive parse overflowed the reader thread's stack.
TEST_F(DaemonE2E, OverDeepRequestIsABadRequestNotACrash) {
  DaemonOptions opts;
  opts.socket_path = SocketPath("deep");
  Start(std::move(opts));
  for (const std::size_t depth : {std::size_t{20'000}, std::size_t{100'000}}) {
    SCOPED_TRACE(depth);
    const int fd = RawConnect(socket_path_);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(SendFrame(fd, kFrameRequest,
                          std::string(depth, '[') + std::string(depth, ']')));
    char type = 0;
    std::string json;
    ASSERT_EQ(RecvFrame(fd, type, json), RecvStatus::kOk);
    ::close(fd);
    resilience::JsonValue resp;
    ASSERT_TRUE(resilience::ParseJson(json, resp));
    EXPECT_EQ(Field(resp, "status"), "bad-request");
  }
  ClientOptions ping;
  ping.socket_path = socket_path_;
  ping.ping = true;
  ping.quiet = true;
  EXPECT_EQ(Submit(ping), 0);
}

TEST_F(DaemonE2E, SlowLorisCannotStallOtherClients) {
  DaemonOptions opts;
  opts.socket_path = SocketPath("loris");
  opts.read_deadline_ms = 300;
  Start(std::move(opts));

  // A client that sends three header bytes and then just... holds.
  const int loris = RawConnect(socket_path_);
  ASSERT_GE(loris, 0);
  ASSERT_EQ(::write(loris, "DSA", 3), 3);

  // Well-behaved traffic is answered immediately — the drip lives on its
  // own reader thread, not in the accept loop.
  ClientOptions ping;
  ping.socket_path = socket_path_;
  ping.ping = true;
  ping.quiet = true;
  ping.recv_timeout_ms = 2000;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(Submit(ping), 0);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2));

  // The reader's deadline reaps the drip and counts it.
  ClientOptions h;
  h.socket_path = socket_path_;
  h.health = true;
  h.quiet = true;
  bool timed_out = false;
  for (int i = 0; i < 100 && !timed_out; ++i) {
    h.json_path = TempPath("resp_loris_" + std::to_string(i)) + ".json";
    ASSERT_EQ(Submit(h), 0);
    resilience::JsonValue hv;
    ASSERT_TRUE(resilience::ParseJson(Slurp(h.json_path), hv));
    const resilience::JsonValue* health = hv.Find("health");
    ASSERT_NE(health, nullptr);
    timed_out = Field(*health, "read_timeouts") != "0";
    if (!timed_out) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  EXPECT_TRUE(timed_out) << "read deadline never reaped the slow-loris";
  ::close(loris);
}

TEST_F(DaemonE2E, JobTableIsBuiltByTheFirstSweepNotAtBoot) {
  DaemonOptions opts;
  opts.socket_path = SocketPath("table");
  opts.cache_dir = TempPath("daemon_table_cache");
  Start(std::move(opts));  // answers pings with the table still unbuilt

  const auto health = [this](const std::string& tag) {
    ClientOptions h;
    h.socket_path = socket_path_;
    h.health = true;
    h.quiet = true;
    h.json_path = TempPath("resp_table_" + tag) + ".json";
    EXPECT_EQ(Submit(h), 0);
    resilience::JsonValue hv;
    EXPECT_TRUE(resilience::ParseJson(Slurp(h.json_path), hv));
    const resilience::JsonValue* block = hv.Find("health");
    return block != nullptr ? *block : resilience::JsonValue();
  };
  const auto block = [](const resilience::JsonValue& h, const char* a,
                        const char* b = nullptr) {
    const resilience::JsonValue* v = h.Find(a);
    if (v != nullptr && b != nullptr) v = v->Find(b);
    return v != nullptr ? *v : resilience::JsonValue();
  };

  const resilience::JsonValue boot = health("boot");
  EXPECT_EQ(Field(block(boot, "table"), "cells"), "0");
  EXPECT_EQ(Field(block(boot, "table"), "build_ms"), "0");
  EXPECT_EQ(Field(block(boot, "stages", "cells"), "count"), "0");

  SubmitAndParse("BitCount@arm-original", 0, "table_first");
  const resilience::JsonValue first = health("first");
  EXPECT_EQ(Field(block(first, "table"), "cells"),
            std::to_string(SweepJobs("").size()));
  const std::string build_ms = Field(block(first, "table"), "build_ms");
  EXPECT_GT(std::stoull(build_ms), 0u);
  EXPECT_EQ(Field(block(first, "stages", "cells"), "count"), "1");

  SubmitAndParse("BitCount@arm-original", 0, "table_second");
  const resilience::JsonValue second = health("second");
  EXPECT_EQ(Field(block(second, "table"), "build_ms"), build_ms);
  // The second sweep (one cache hit) is the faster cells sample, and it
  // took far less than a build: it reused the table.
  EXPECT_LT(std::stoull(Field(block(second, "stages", "cells"), "p50_us")),
            std::stoull(build_ms) * 1000);
  for (const char* stage : {"queue", "cells", "respond"}) {
    const resilience::JsonValue s = block(second, "stages", stage);
    EXPECT_EQ(Field(s, "count"), "2") << stage;
    EXPECT_LE(std::stoull(Field(s, "p50_us")), std::stoull(Field(s, "p99_us")))
        << stage;
  }
}

TEST_F(DaemonE2E, JsonDumpThatCannotBeWrittenFailsTheSubmit) {
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full here";
  DaemonOptions opts;
  opts.socket_path = SocketPath("full");
  Start(std::move(opts));
  // The response fits the stream buffer, so only the flush at close
  // sees ENOSPC: a dump that never reached the disk is a failure.
  ClientOptions c;
  c.socket_path = socket_path_;
  c.ping = true;
  c.quiet = true;
  c.json_path = "/dev/full";
  EXPECT_EQ(Submit(c), 5);
  c.ping = false;
  c.health = true;
  EXPECT_EQ(Submit(c), 5);
}

TEST(ClientRetry, BoundedBackoffRidesOutALateBindingDaemon) {
  resilience::Supervisor::DrainFlag().store(false);
  const std::string socket =
      "/tmp/dsa_serve_t" + std::to_string(::getpid()) + "_retry.sock";
  DaemonOptions opts;
  opts.socket_path = socket;
  auto daemon = std::make_unique<Daemon>(opts);
  int exit_code = -1;
  std::thread late([&] {
    // The daemon binds ~300 ms after the client's first attempt: attempt
    // 0 and likely attempt 1 get ECONNREFUSED, a later retry lands.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    std::string err;
    ASSERT_TRUE(daemon->Init(&err)) << err;
    exit_code = daemon->Serve();
  });

  ClientOptions c;
  c.socket_path = socket;
  c.ping = true;
  c.quiet = true;
  c.recv_timeout_ms = 5000;
  c.retries = 8;  // 50+100+200+... ms of budget, plenty for 300 ms
  EXPECT_EQ(Submit(c), 0);

  // And with retries exhausted against a dead socket, the typed
  // transport exit code (5) comes back instead of a hang.
  ClientOptions dead = c;
  dead.socket_path = socket + ".nobody";
  dead.retries = 1;
  EXPECT_EQ(Submit(dead), 5);

  resilience::Supervisor::DrainFlag().store(true);
  late.join();
  EXPECT_EQ(exit_code, 3);
  resilience::Supervisor::DrainFlag().store(false);
}

}  // namespace
}  // namespace dsa::serve
