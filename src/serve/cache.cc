#include "serve/cache.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "mem/fnv.h"
#include "mem/json.h"
#include "mem/memory.h"
#include "resilience/iofault.h"
#include "resilience/journal.h"
#include "resilience/mini_json.h"

namespace dsa::serve {

namespace {

// Field-by-field FNV-1a (mem/fnv.h), so the hash is a pure function of
// declared content, never of padding.
struct KeyHasher : mem::Fnv1a {
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void Str(std::string_view s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
};

void HashProgram(KeyHasher& f, const prog::Program& p) {
  f.U64(p.size());
  for (const isa::Instruction& ins : p.code()) {
    f.I64(static_cast<std::int64_t>(ins.op));
    f.I64(static_cast<std::int64_t>(ins.cond));
    f.I64(static_cast<std::int64_t>(ins.vt));
    f.I64(ins.rd);
    f.I64(ins.rn);
    f.I64(ins.rm);
    f.I64(ins.ra);
    f.I64(ins.imm);
    f.I64(ins.post_inc);
  }
}

std::string Hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string Hex0x(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool ParseHexU64(const std::string& s, std::uint64_t& out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 16);
  if (errno != 0 || end == s.c_str() || *end != '\0') return false;
  out = v;
  return true;
}

std::string Slurp(const std::string& path, bool& ok) {
  std::ifstream in(path, std::ios::binary);
  ok = in.good();
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The one parser of a cache-entry file, shared by Load and the boot
// scrub so the two can never disagree about what is corrupt: a complete
// `CCCCCCCC <json>\n` frame with a matching CRC, the entry-schema label,
// every key field present (hex digests parseable), and a cell record
// whose own key matches the entry's, read in place from the parsed JSON.
// True fills the key the entry answers for and its cell; false means the
// bytes are corrupt.
bool ParseEntry(const std::string& data, CacheKey& key, sim::JobOutcome& cell) {
  std::uint64_t crc = 0;
  if (data.size() < 10 || data.back() != '\n' || data[8] != ' ' ||
      !ParseHexU64(data.substr(0, 8), crc)) {
    return false;
  }
  const std::string_view payload(data.data() + 9, data.size() - 10);
  resilience::JsonValue entry;
  if (resilience::Crc32(payload.data(), payload.size()) != crc ||
      !resilience::ParseJson(payload, entry) || !entry.is_object()) {
    return false;
  }
  const auto field = [&entry](std::string_view name) -> std::string {
    const resilience::JsonValue* v = entry.Find(name);
    return v != nullptr ? v->AsString() : std::string();
  };
  const auto digest = [&field](std::string_view name, std::uint64_t& out) {
    std::string hex = field(name);
    if (hex.rfind("0x", 0) == 0) hex.erase(0, 2);
    return ParseHexU64(hex, out);
  };
  key.job_key = field("key");
  key.engine_version = field("engine");
  key.bench_schema = field("bench_schema");
  const resilience::JsonValue* stored = entry.Find("cell");
  return field("schema") == kCacheEntrySchema && !key.job_key.empty() &&
         !key.engine_version.empty() && !key.bench_schema.empty() &&
         digest("workload_digest", key.workload_digest) &&
         digest("config_digest", key.config_digest) && stored != nullptr &&
         resilience::ParseOutcome(*stored, cell) && cell.key == key.job_key;
}

// Moves a corrupt entry aside for forensics. Deliberately a direct
// ::rename, not the injectable shim: this is the repair path, and an
// armed rename-fail plan must target the Store publish rename, not the
// cleanup.
void Quarantine(const std::string& path) {
  const std::string aside = path + ".quarantine";
  if (::rename(path.c_str(), aside.c_str()) != 0) (void)::unlink(path.c_str());
}

}  // namespace

std::uint64_t WorkloadDigest(const sim::Workload& wl) {
  KeyHasher f;
  f.Str(wl.name);
  f.U64(wl.mem_bytes);
  HashProgram(f, wl.scalar);
  HashProgram(f, wl.autovec);
  HashProgram(f, wl.handvec);
  f.U64(wl.outputs.size());
  for (const sim::OutputRegion& r : wl.outputs) {
    f.U64(r.addr);
    f.U64(r.bytes);
  }
  f.U64(wl.loop_type_fractions.size());
  for (const auto& [type, fraction] : wl.loop_type_fractions) {
    f.Str(type);
    f.F64(fraction);
  }
  f.U64(wl.stream_bytes);
  f.U64(wl.gen.has_value() ? 1 : 0);
  if (wl.gen.has_value()) {
    f.U64(wl.gen->seed);
    f.Str(wl.gen->loop_class);
    f.U64(wl.gen->count);
  }
  // The input data set: run the init hook against a fresh memory image
  // and fold the whole image in, so two workloads that differ only in
  // their data (a different seed, a different constant table) never
  // share a cache entry.
  mem::Memory m(wl.mem_bytes);
  if (wl.init) wl.init(m);
  f.Bytes(m.data(), m.size());
  return f.h;
}

std::uint64_t ConfigDigest(const sim::SystemConfig& cfg) {
  // Every config struct is destructured with a binding of its exact
  // arity, so a field added to any of them fails to compile here until
  // the walk hashes it. The order is the digest's: it must not change.
  KeyHasher f;
  const auto& [timing, memory, dsa_cfg, energy_cfg, trace_cfg, faults,
               max_steps, reference_path] = cfg;
  {  // cpu::TimingConfig, neon::NeonTiming
    const auto& [width, mispredict, mul, div, fp, fp_div, neon] = timing;
    f.Fields(width, mispredict, mul, div, fp, fp_div);
    const auto& [alu, vmul, vmem, lane_move, pipeline_fill] = neon;
    f.Fields(alu, vmul, vmem, lane_move, pipeline_fill);
  }
  {  // mem::Hierarchy::Config, mem::CacheConfig
    const auto& [l1, l2, dram_latency, next_line_prefetch] = memory;
    for (const mem::CacheConfig& c : {l1, l2}) {
      const auto& [size_bytes, line_bytes, ways, hit_latency] = c;
      f.Fields(size_bytes, line_bytes, ways, hit_latency);
    }
    f.Fields(dram_latency, next_line_prefetch);
  }
  {  // engine::DsaConfig
    const auto& [cache_bytes, cache_entry_bytes, vc_bytes, vc_entry_bytes,
                 array_maps, neon_regs, trace_capacity, conditional,
                 sentinel, dynamic_range, partial, fusion, cidp, flush,
                 cache_access, vc_access, map_access, resync, select,
                 strikes, rollback, margin] = dsa_cfg;
    f.Fields(cache_bytes, cache_entry_bytes, vc_bytes, vc_entry_bytes,
             array_maps, neon_regs, trace_capacity, conditional, sentinel,
             dynamic_range, partial, fusion, cidp, flush, cache_access,
             vc_access, map_access, resync, select, strikes, rollback,
             margin);
  }
  {  // energy::EnergyParams
    const auto& [scalar, mem_extra, branch, mispredict, vector, l1, l2, dram,
                 core_static, neon_static, dsa_static, analysis, cache_access,
                 vc_access, map_access] = energy_cfg;
    f.Fields(scalar, mem_extra, branch, mispredict, vector, l1, l2, dram,
             core_static, neon_static, dsa_static, analysis, cache_access,
             vc_access, map_access);
  }
  {  // trace::TraceConfig — enabled changes the RunResult payload (trace
     // aggregates), so traced and untraced cells never alias.
    const auto& [enabled, capacity] = trace_cfg;
    f.Fields(enabled, capacity);
  }
  {  // fault::FaultPlan, fault::FaultSpec
    const auto& [specs, seed, seed_explicit] = faults;
    f.U64(specs.size());
    for (const fault::FaultSpec& spec : specs) {
      const auto& [kind, trigger, count] = spec;
      f.Fields(kind, trigger, count);
    }
    f.Fields(seed, seed_explicit);
  }
  // harness knobs
  f.Fields(max_steps, reference_path);
  return f.h;
}

std::string CacheKey::FileName() const {
  KeyHasher f;
  f.Str(job_key);
  f.U64(workload_digest);
  f.U64(config_digest);
  f.Str(engine_version);
  f.Str(bench_schema);
  return Hex64(f.h) + ".cell";
}

CacheKey KeyFor(const sim::BatchJob& job) {
  CacheKey key;
  key.job_key = sim::JobKey(job);
  key.workload_digest = WorkloadDigest(job.workload);
  key.config_digest = ConfigDigest(job.config);
  return key;
}

bool ResultCache::Open(const std::string& dir, std::string* error) {
  if (dir.empty()) {
    if (error != nullptr) *error = "cache: empty directory path";
    return false;
  }
  if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
    if (error != nullptr) {
      *error = "cache: cannot create " + dir + ": " + std::strerror(errno);
    }
    return false;
  }
  struct stat st = {};
  if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    if (error != nullptr) *error = "cache: " + dir + " is not a directory";
    return false;
  }
  dir_ = dir;
  return true;
}

bool ResultCache::Load(const CacheKey& key, sim::JobOutcome& out) {
  if (!open()) return false;
  const std::string path = dir_ + "/" + key.FileName();
  bool readable = false;
  const std::string data = Slurp(path, readable);
  CacheKey stored;
  sim::JobOutcome cell;
  // Anything less than a well-formed entry is quarantined and recomputed,
  // never trusted. A well-formed entry for a different key (hash
  // collision, copied file) is a miss, not corruption — it stays.
  const bool corrupt = readable && !ParseEntry(data, stored, cell);
  if (corrupt) Quarantine(path);
  const bool hit = readable && !corrupt && stored == key;
  if (hit) out = std::move(cell);
  std::lock_guard<std::mutex> lock(mu_);
  if (corrupt) ++stats_.quarantined;
  ++(hit ? stats_.hits : stats_.misses);
  return hit;
}

bool ResultCache::Store(const CacheKey& key, const sim::JobOutcome& out) {
  if (!open()) return false;
  mem::JsonBuilder w;
  w.Object();
  w.Key("schema").Str(kCacheEntrySchema);
  w.Key("key").Str(key.job_key);
  w.Key("workload_digest").Str(Hex0x(key.workload_digest));
  w.Key("config_digest").Str(Hex0x(key.config_digest));
  w.Key("engine").Str(key.engine_version);
  w.Key("bench_schema").Str(key.bench_schema);
  w.Key("cell").Encoded(resilience::SerializeOutcome(out));
  const std::string payload = w.End().Take();
  char crc[12];
  std::snprintf(crc, sizeof(crc), "%08x",
                resilience::Crc32(payload.data(), payload.size()));
  std::string line = crc;
  line += ' ';
  line += payload;
  line += '\n';

  const std::string name = key.FileName();
  // Per-process sequence in the tmp name: two ResultCache instances in
  // one process (two daemons sharing a cache dir in tests) storing the
  // same key must not stomp each other's half-written tmp file.
  static std::atomic<std::uint64_t> g_tmp_seq{0};
  const std::uint64_t seq = g_tmp_seq.fetch_add(1, std::memory_order_relaxed);
  const std::string tmp = dir_ + "/.tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(seq) + "." + name;
  const std::string path = dir_ + "/" + name;
  const auto fail = [&](bool fsync_refused) {
    (void)::unlink(tmp.c_str());
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.store_failures;
    if (fsync_refused) ++stats_.fsync_failures;
    return false;
  };
  // All host I/O below goes through the injectable shims
  // (resilience/iofault.h) so ENOSPC/EIO/short-write/fsync-fail/
  // rename-fail each have a deterministic rehearsal path.
  const int fd = resilience::IoOpen(tmp.c_str(),
                                    O_CREAT | O_TRUNC | O_WRONLY, 0666);
  if (fd < 0) return fail(false);
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n =
        resilience::IoWrite(fd, line.data() + off, line.size() - off);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      ::close(fd);
      return fail(false);
    }
    off += static_cast<std::size_t>(n);
  }
  // fsync before the rename: once the entry is visible under its final
  // name it must be complete even across a kill -9 or power cut. A
  // refused fsync means the entry is NOT durable — never publish it.
  if (resilience::IoFsync(fd) != 0) {
    ::close(fd);
    return fail(true);
  }
  ::close(fd);
  if (resilience::IoRename(tmp.c_str(), path.c_str()) != 0)
    return fail(false);
  // Persist the directory entry too, so the rename itself survives. The
  // entry is already published and valid at this point, so a refused
  // directory fsync degrades the durability claim (counted) without
  // failing the store.
  bool dir_fsync_failed = false;
  const int dfd = ::open(dir_.c_str(), O_RDONLY);
  if (dfd >= 0) {
    if (resilience::IoFsync(dfd) != 0) dir_fsync_failed = true;
    ::close(dfd);
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.stores;
  if (dir_fsync_failed) ++stats_.fsync_failures;
  return true;
}

ScrubStats ResultCache::Scrub() {
  ScrubStats s;
  if (!open()) return s;
  std::vector<std::string> entries;
  if (DIR* d = ::opendir(dir_.c_str())) {
    while (const dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      // Only published entries: tmp files and prior quarantines are not
      // servable state and stay untouched.
      if (name.size() > 5 && name.compare(name.size() - 5, 5, ".cell") == 0)
        entries.push_back(name);
    }
    ::closedir(d);
  }
  for (const std::string& name : entries) {
    const std::string path = dir_ + "/" + name;
    bool readable = false;
    const std::string data = Slurp(path, readable);
    CacheKey key;
    sim::JobOutcome cell;
    ++s.checked;
    if (readable && ParseEntry(data, key, cell)) {
      ++s.ok;
      continue;
    }
    Quarantine(path);
    ++s.quarantined;
  }
  std::lock_guard<std::mutex> lock(mu_);
  scrub_stats_ = s;
  return s;
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

ScrubStats ResultCache::scrub_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return scrub_stats_;
}

void AttachCache(ResultCache& cache, sim::RunnerOptions& ro) {
  // restore_fn sees the job and computes its full key; on_outcome sees
  // only the outcome, so each missed key waits here for its cell.
  struct PendingKeys {
    std::mutex mu;
    std::map<std::string, CacheKey> by_job;
  };
  auto pending = std::make_shared<PendingKeys>();
  // A cell recorded with another run count than this sweep asks for (the
  // daemon stores single runs) executes again and is stored again, so
  // every report reconciles exactly like an uninterrupted run.
  const std::size_t runs = static_cast<std::size_t>(std::max(ro.repeats, 1));
  ro.restore_fn = [&cache, pending, runs](const sim::BatchJob& job,
                                          sim::JobOutcome& out) {
    CacheKey key = KeyFor(job);
    sim::JobOutcome stored;
    if (cache.Load(key, stored) && stored.runs.size() == runs) {
      out = std::move(stored);
      return true;
    }
    std::lock_guard<std::mutex> lock(pending->mu);
    pending->by_job.emplace(key.job_key, std::move(key));
    return false;
  };
  ro.on_outcome = [&cache, pending, inner = std::move(ro.on_outcome)](
                      const sim::JobOutcome& out) {
    if (out.cell_status == "ok") {
      std::unique_lock<std::mutex> lock(pending->mu);
      const auto it = pending->by_job.find(out.key);
      if (it != pending->by_job.end()) {
        const CacheKey key = std::move(it->second);
        pending->by_job.erase(it);
        lock.unlock();
        (void)cache.Store(key, out);
      }
    }
    if (inner) inner(out);
  };
}

void ReportCache(const ResultCache& cache, sim::BenchJsonExtras& extras) {
  const CacheStats s = cache.stats();
  extras.cache_dir = cache.dir();
  extras.cache_stores = s.stores;
  extras.cache_store_failures = s.store_failures;
  extras.cache_fsync_failures = s.fsync_failures;
}

}  // namespace dsa::serve
