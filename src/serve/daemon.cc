#include "serve/daemon.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <stdexcept>
#include <utility>

#include "mem/json.h"
#include "resilience/iofault.h"
#include "resilience/journal.h"
#include "resilience/mini_json.h"
#include "resilience/supervisor.h"
#include "serve/flags.h"
#include "serve/proto.h"
#include "workloads/workloads.h"

namespace dsa::serve {

namespace {

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

// The one filter rule, shared by SweepJobs and JobTable::Match: a
// case-insensitive JobKey substring; "" matches every cell.
bool Matches(const std::string& lower_key, const std::string& needle) {
  return needle.empty() || lower_key.find(needle) != std::string::npos;
}

// The request's deadline: `received` plus `ms`, saturating. No deadline
// (0) and one past steady_clock's range are both time_point::max(), so
// no client value can overflow the clock arithmetic.
std::chrono::steady_clock::time_point DeadlineOf(
    std::chrono::steady_clock::time_point received, std::uint64_t ms) {
  using Clock = std::chrono::steady_clock;
  const auto room = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::time_point::max() - received);
  if (ms == 0 || ms >= static_cast<std::uint64_t>(room.count())) {
    return Clock::time_point::max();
  }
  return received + std::chrono::milliseconds(ms);
}

}  // namespace

// The daemon's sweep space IS bench_matrix's batch (same sets, same
// modes, same config tags, default configs), deduplicated by JobKey —
// that is what makes the kill-and-restart soak's bit-identity check
// against a direct `bench_matrix --json` run meaningful
// (scripts/validate_serve.py).
std::vector<sim::BatchJob> SweepJobs(const std::string& filter) {
  const sim::SystemConfig cfg;
  sim::SystemConfig orig_cfg;
  orig_cfg.dsa = engine::DsaConfig::Original();
  const std::string needle = Lower(filter);

  std::vector<sim::BatchJob> jobs;
  std::set<std::string> seen;
  const auto add = [&](const sim::Workload& wl, sim::RunMode mode,
                       const sim::SystemConfig& c, const std::string& ctag) {
    sim::BatchJob job{wl, mode, c, ctag, ""};
    const std::string key = sim::JobKey(job);
    if (!seen.insert(key).second || !Matches(Lower(key), needle)) return;
    jobs.push_back(std::move(job));
  };

  using sim::RunMode;
  for (const sim::Workload& wl : workloads::Article3Set()) {
    for (RunMode mode : {RunMode::kScalar, RunMode::kAutoVec,
                         RunMode::kHandVec, RunMode::kDsa}) {
      add(wl, mode, cfg, "");
    }
  }
  for (const sim::Workload& wl : workloads::Article2Set()) {
    add(wl, RunMode::kDsa, orig_cfg, "orig");
  }
  for (const sim::Workload& wl : workloads::StreamingSet()) {
    add(wl, RunMode::kScalar, cfg, "");
    add(wl, RunMode::kDsa, cfg, "");
  }
  return jobs;
}

JobTable JobTable::Build() {
  JobTable table;
  for (sim::BatchJob& job : SweepJobs("")) {
    CacheKey key = KeyFor(job);
    std::string lower = Lower(key.job_key);
    table.entries.push_back({std::move(job), std::move(lower), std::move(key)});
  }
  return table;
}

std::vector<const JobTable::Entry*> JobTable::Match(
    const std::string& filter) const {
  const std::string needle = Lower(filter);
  std::vector<const Entry*> picks;
  for (const Entry& e : entries) {
    if (Matches(e.lower_key, needle)) picks.push_back(&e);
  }
  return picks;
}

void Daemon::StageHistogram::Add(std::chrono::steady_clock::duration d) {
  const auto us = std::max<std::int64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(d).count(), 0);
  const auto b = static_cast<std::size_t>(
      std::bit_width(static_cast<std::uint64_t>(us)));
  ++buckets[std::min(b, buckets.size() - 1)];
  ++count;
}

std::uint64_t Daemon::StageHistogram::PercentileUs(std::uint64_t p) const {
  if (count == 0) return 0;
  const std::uint64_t rank = (p * count + 99) / 100;  // nearest rank, 1-based
  // rank <= count, the sum of the buckets: the walk stops inside them.
  std::uint64_t seen = 0;
  std::size_t b = 0;
  while ((seen += buckets[b]) < rank) ++b;
  return std::uint64_t{1} << b;
}

std::string AdmissionControl::Admit(const std::string& client) {
  std::lock_guard<std::mutex> lock(mu_);
  if (depth_ >= queue_limit_) {
    return "overload: request queue full (" + std::to_string(queue_limit_) +
           " in flight)";
  }
  const int mine = per_client_[client];
  if (mine >= client_quota_) {
    return "overload: client \"" + client + "\" over quota (" +
           std::to_string(client_quota_) + " in flight)";
  }
  ++depth_;
  ++per_client_[client];
  return "";
}

void AdmissionControl::Done(const std::string& client) {
  std::lock_guard<std::mutex> lock(mu_);
  if (depth_ > 0) --depth_;
  auto it = per_client_.find(client);
  if (it != per_client_.end() && --it->second <= 0) per_client_.erase(it);
}

int AdmissionControl::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return depth_;
}

Daemon::Daemon(DaemonOptions opts)
    : opts_(std::move(opts)),
      supervisor_(opts_.resilience),
      admission_(opts_.queue_limit, opts_.client_quota),
      pool_(opts_.workers) {}

Daemon::~Daemon() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(opts_.socket_path.c_str());
  }
}

bool Daemon::Init(std::string* error) {
  if (opts_.socket_path.empty()) {
    if (error != nullptr) *error = "--socket is required";
    return false;
  }
  const resilience::SupervisorOptions& so = opts_.resilience;
  if (!opts_.crash_cell.empty() && !so.isolate) {
    if (error != nullptr) *error = "--crash-cell requires --isolate";
    return false;
  }
  if ((so.deadline_ms > 0 || so.mem_limit_mb > 0) && !so.isolate) {
    if (error != nullptr) {
      *error = "--cell-deadline-ms/--mem-limit-mb require --isolate";
    }
    return false;
  }
  if (!opts_.cache_dir.empty() && !cache_.Open(opts_.cache_dir, error)) {
    return false;
  }
  // Install the host-I/O fault plan before anything touches the disk, so
  // the very first store write already draws from the plan's
  // deterministic opportunity sequence.
  if (!opts_.io_fault_plan.empty()) {
    try {
      resilience::InstallIoFaultPlan(
          resilience::ParseIoFaultPlan(opts_.io_fault_plan));
    } catch (const std::invalid_argument& e) {
      if (error != nullptr) *error = e.what();
      return false;
    }
  }
  // Scrub before serving: a torn or bit-rotted entry is quarantined on
  // boot, not discovered (and silently recomputed) on first Load.
  if (cache_.open() && opts_.scrub) {
    const ScrubStats s = cache_.Scrub();
    if (s.quarantined > 0) {
      std::fprintf(stderr,
                   "[dsa_serve] cache scrub: quarantined %" PRIu64
                   " of %" PRIu64 " entries\n",
                   s.quarantined, s.checked);
    }
  }

  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  if (opts_.socket_path.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr) {
      *error = "socket path too long (max " +
               std::to_string(sizeof(addr.sun_path) - 1) + " bytes): " +
               opts_.socket_path;
    }
    return false;
  }
  std::memcpy(addr.sun_path, opts_.socket_path.c_str(),
              opts_.socket_path.size() + 1);
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  // A previous daemon instance (cleanly drained or kill -9'd) leaves its
  // socket file behind; binding over it is the restart path.
  (void)::unlink(opts_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    if (error != nullptr) {
      *error = "bind/listen " + opts_.socket_path + ": " +
               std::strerror(errno);
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  // SIGPIPE would kill the daemon when a client hangs up mid-response;
  // write() returning EPIPE is handled instead.
  std::signal(SIGPIPE, SIG_IGN);
  // Cells run through the CLI's path: the supervisor wraps run_fn with
  // its breaker and isolate and points drain at its flag. Attached here,
  // on the caller's thread, before any pool thread runs a cell.
  run_opts_.repeats = opts_.repeats;
  supervisor_.Attach(run_opts_);
  if (!opts_.crash_cell.empty()) {
    crash_opts_.repeats = opts_.repeats;
    crash_opts_.run_fn = [](const sim::Workload&, sim::RunMode,
                            const sim::SystemConfig&) -> sim::RunResult {
      std::abort();  // crash drill; --isolate keeps it in the child
    };
    supervisor_.Attach(crash_opts_);
  }
  return true;
}

int Daemon::Serve() {
  dispatcher_ = std::thread(&Daemon::DispatcherMain, this);
  std::printf("[dsa_serve] listening on %s (workers=%d cache=%s)\n",
              opts_.socket_path.c_str(), opts_.workers,
              cache_.open() ? cache_.dir().c_str() : "off");
  std::fflush(stdout);
  while (!resilience::Supervisor::DrainRequested()) {
    pollfd pfd = {listen_fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, 200);
    if (pr < 0 && errno != EINTR) break;
    if (pr > 0 && (pfd.revents & POLLIN) != 0) AcceptOne();
  }
  // Graceful drain: stop accepting, let the in-flight request finish,
  // reject everything still queued with the typed overload status.
  {
    std::unique_lock<std::mutex> lock(mu_);
    stopping_ = true;
    queue_cv_.notify_all();
    // Reader threads are detached and dereference `this`; teardown must
    // outwait every one of them. Post-stopping_ readers refuse inline
    // and exit quickly (reads are already deadline-bounded).
    readers_cv_.wait(lock, [this] { return readers_ == 0; });
  }
  if (dispatcher_.joinable()) dispatcher_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  (void)::unlink(opts_.socket_path.c_str());
  std::printf("[dsa_serve] drained after %" PRIu64 " requests, exiting 3\n",
              requests_served_.load());
  return 3;
}

void Daemon::AcceptOne() {
  const int fd = ::accept(listen_fd_, nullptr, nullptr);
  if (fd < 0) return;
  // The frame read happens on a short-lived reader thread, not here: a
  // slow-loris client dripping header bytes must never stall the accept
  // loop for well-behaved clients. Readers are capped so a connection
  // flood degrades to typed refusals instead of unbounded threads.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ || readers_ >= kMaxReaders) {
      refused_connections_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      return;
    }
    ++readers_;
  }
  try {
    std::thread(&Daemon::HandleConnection, this, fd).detach();
  } catch (const std::system_error&) {
    refused_connections_.fetch_add(1, std::memory_order_relaxed);
    ::close(fd);
    std::lock_guard<std::mutex> lock(mu_);
    --readers_;
    readers_cv_.notify_all();
  }
}

void Daemon::HandleConnection(int fd) {
  // Decrement-and-notify runs under mu_ on every exit path so Serve()'s
  // teardown wait cannot miss the last reader.
  const auto reader_done = [this] {
    std::lock_guard<std::mutex> lock(mu_);
    --readers_;
    readers_cv_.notify_all();
  };
  // Bound each read(2): a peer that stops sending mid-frame times the
  // read out (classified kError with EAGAIN) instead of pinning the
  // reader forever.
  if (opts_.read_deadline_ms > 0) {
    timeval tv = {};
    tv.tv_sec = static_cast<time_t>(opts_.read_deadline_ms / 1000);
    tv.tv_usec =
        static_cast<suseconds_t>((opts_.read_deadline_ms % 1000) * 1000);
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  char type = 0;
  std::string json;
  const RecvStatus rs = RecvFrame(fd, type, json);
  if (rs != RecvStatus::kOk) {
    // A torn or corrupt frame is not a request — there is nothing
    // trustworthy to answer, and the CRC already classified it. Census
    // the hostile traffic so `health` can report it.
    if (rs == RecvStatus::kCorrupt) {
      corrupt_frames_.fetch_add(1, std::memory_order_relaxed);
    } else if (rs == RecvStatus::kError &&
               (errno == EAGAIN || errno == EWOULDBLOCK)) {
      read_timeouts_.fetch_add(1, std::memory_order_relaxed);
    }
    ::close(fd);
    reader_done();
    return;
  }
  if (type != kFrameRequest) {
    RespondError(fd, "bad-request", "expected a 'Q' frame");
    reader_done();
    return;
  }
  resilience::JsonValue req;
  if (!resilience::ParseJson(json, req) || !req.is_object()) {
    RespondError(fd, "bad-request", "request is not a JSON object");
    reader_done();
    return;
  }
  const auto field = [&req](std::string_view name) -> std::string {
    const resilience::JsonValue* v = req.Find(name);
    return v != nullptr ? v->AsString() : std::string();
  };
  if (field("schema") != "dsa-serve/1") {
    RespondError(fd, "bad-request",
                 "unknown request schema \"" + field("schema") + "\"");
    reader_done();
    return;
  }
  Request r;
  r.fd = fd;
  r.kind = field("kind").empty() ? "sweep" : field("kind");
  r.client = field("client").empty() ? "anon" : field("client");
  r.filter = field("filter");
  r.received = std::chrono::steady_clock::now();
  r.deadline_ms = opts_.default_deadline_ms;
  if (const resilience::JsonValue* v = req.Find("deadline_ms")) {
    if (!ParseU64Text(v->AsString().c_str(), r.deadline_ms)) {
      RespondError(fd, "bad-request",
                   "deadline_ms " + v->AsString() + " is not a u64");
      reader_done();
      return;
    }
  }
  if (r.kind != "sweep" && r.kind != "ping" && r.kind != "health") {
    RespondError(fd, "bad-request", "unknown kind \"" + r.kind + "\"");
    reader_done();
    return;
  }
  const std::string refused = admission_.Admit(r.client);
  if (!refused.empty()) {
    RespondError(fd, "overload", refused);
    reader_done();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stopping_) {
      queue_.push_back(std::move(r));
      queue_cv_.notify_one();
      // Inline reader_done: mu_ is already held here.
      --readers_;
      readers_cv_.notify_all();
      return;
    }
  }
  // The dispatcher may already have drained its queue; enqueueing now
  // would leak the fd. Refuse inline instead.
  RespondError(fd, "overload", "overload: daemon draining");
  admission_.Done(r.client);
  reader_done();
}

void Daemon::DispatcherMain() {
  for (;;) {
    Request req;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and nothing queued
      req = std::move(queue_.front());
      queue_.pop_front();
      if (stopping_) {
        // Drain in progress: everything still queued is refused with the
        // typed overload status instead of silently dropped.
        lock.unlock();
        RespondError(req.fd, "overload", "overload: daemon draining");
        admission_.Done(req.client);
        continue;
      }
    }
    ProcessRequest(req);
    admission_.Done(req.client);
    ++requests_served_;
  }
}

void Daemon::ProcessRequest(Request& req) {
  const auto now = std::chrono::steady_clock::now();
  const auto deadline = DeadlineOf(req.received, req.deadline_ms);
  if (now >= deadline) {
    // Expired while queued: refuse without burning simulation time.
    RespondError(req.fd, "deadline",
                 "deadline: request spent its " +
                     std::to_string(req.deadline_ms) + " ms in the queue");
    return;
  }
  if (req.kind == "ping" || req.kind == "health") {
    const std::string body =
        BuildResponse("ok", "", {}, /*health=*/req.kind == "health");
    (void)SendFrame(req.fd, kFrameResponse, body);
    ::close(req.fd);
    return;
  }

  // The first sweep builds the job table; a ping never does, because the
  // first answered ping is the daemon's boot time.
  if (table_.entries.empty()) {
    const auto t0 = std::chrono::steady_clock::now();
    table_ = JobTable::Build();
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - t0);
    table_build_ms_ = static_cast<std::uint64_t>(us.count() + 999) / 1000;
  }
  const std::vector<const JobTable::Entry*> picks = table_.Match(req.filter);
  if (picks.empty()) {
    RespondError(req.fd, "bad-request",
                 "filter \"" + req.filter + "\" matches no cells");
    return;
  }

  std::vector<sim::JobOutcome> cells(picks.size());
  std::mutex done_mu;
  std::condition_variable done_cv;
  std::size_t remaining = picks.size();
  for (std::size_t i = 0; i < picks.size(); ++i) {
    pool_.Submit([this, &picks, &cells, &done_mu, &done_cv, &remaining,
                  deadline, i] {
      RunCell(*picks[i], deadline, cells[i]);
      std::lock_guard<std::mutex> lock(done_mu);
      if (--remaining == 0) done_cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&remaining] { return remaining == 0; });
  }

  const auto cells_done = std::chrono::steady_clock::now();
  std::string status = "ok";
  if (resilience::Supervisor::DrainRequested()) {
    status = "interrupted";
  } else if (cells_done >= deadline) {
    status = "deadline";
  }
  const std::string body = BuildResponse(status, "", cells);
  (void)SendFrame(req.fd, kFrameResponse, body);
  ::close(req.fd);
  queue_stage_.Add(now - req.received);
  cells_stage_.Add(cells_done - now);
  respond_stage_.Add(std::chrono::steady_clock::now() - cells_done);
}

void Daemon::RunCell(const JobTable::Entry& entry,
                     std::chrono::steady_clock::time_point deadline,
                     sim::JobOutcome& out) {
  // 1. Persistent cache: a completed cell survives any number of daemon
  // restarts and is served bit-identically without re-simulation.
  if (cache_.open() && cache_.Load(entry.cache_key, out)) {
    out.restored = true;
    return;
  }

  // 2. Request deadline: unstarted cells are abandoned, typed.
  if (std::chrono::steady_clock::now() >= deadline) {
    out.key = entry.cache_key.job_key;
    out.workload_key = sim::WorkloadKey(entry.job);
    out.mode = entry.job.mode;
    out.config_tag = entry.job.config_tag;
    out.cell_status = "cancelled";
    out.error = "cancelled: request deadline expired";
    return;
  }

  // 3. Execute through the CLI's path: ExecuteCell cancels the cell on a
  // drain, and the supervisor's run_fn gates it on the breaker and runs
  // it in the isolate. Cancelled and skipped cells never ran.
  const bool crash_this =
      !opts_.crash_cell.empty() &&
      entry.cache_key.job_key.find(opts_.crash_cell) != std::string::npos;
  sim::ExecuteCell(entry.job, crash_this ? crash_opts_ : run_opts_, out);
  if (out.cell_status == "cancelled" || out.cell_status == "skipped") return;

  // 4. Promote to the cache, then the kill drill (in that order: the
  // soak test relies on every *completed* cell being durable before the
  // daemon dies).
  if (out.cell_status == "ok" && cache_.open()) {
    (void)cache_.Store(entry.cache_key, out);
  }
  const std::uint64_t done = ++executed_cells_;
  if (opts_.kill_after > 0 && done >= opts_.kill_after) {
    std::fprintf(stderr, "[dsa_serve] kill drill: SIGKILL after %" PRIu64
                         " executed cells\n",
                 done);
    std::fflush(stderr);
    (void)::raise(SIGKILL);
  }
}

void Daemon::RespondError(int fd, const std::string& status,
                          const std::string& error) {
  (void)SendFrame(fd, kFrameResponse, BuildResponse(status, error, {}));
  ::close(fd);
}

std::string Daemon::BuildResponse(const std::string& status,
                                  const std::string& error,
                                  const std::vector<sim::JobOutcome>& cells,
                                  bool health) {
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t from_cache = 0;
  mem::JsonBuilder w;
  w.Object();
  w.Key("schema").Str("dsa-serve/1");
  w.Key("status").Str(status);
  w.Key("error").Str(error);
  w.Key("engine").Str(kEngineVersion);
  w.Key("cells").Array();
  for (const sim::JobOutcome& c : cells) {
    if (c.cell_status == "ok") {
      ++ok;
    } else {
      ++failed;
    }
    if (c.restored) ++from_cache;
    w.Object();
    w.Key("job").Str(c.key);
    w.Key("workload").Str(c.workload_key);
    w.Key("mode").Str(ToString(c.mode));
    w.Key("config_tag").Str(c.config_tag);
    w.Key("cell_status").Str(c.cell_status);
    w.Key("cached").Bool(c.restored);
    w.Key("attempts").U64(c.attempts);
    w.Key("error").Str(c.error);
    if (c.cell_status == "ok" && !c.runs.empty()) {
      char digest[24];
      std::snprintf(digest, sizeof(digest), "0x%016" PRIx64,
                    c.result().output_digest);
      w.Key("cycles").U64(c.result().cycles);
      w.Key("output_digest").Str(digest);
    }
    w.End();
  }
  w.End();
  w.Key("cells_ok").U64(ok);
  w.Key("cells_failed").U64(failed);
  w.Key("cells_cached").U64(from_cache);

  const CacheStats cs = cache_.stats();
  w.Key("cache").Object();
  w.Key("enabled").Bool(cache_.open());
  w.Key("hits").U64(cs.hits);
  w.Key("misses").U64(cs.misses);
  w.Key("stores").U64(cs.stores);
  w.Key("quarantined").U64(cs.quarantined);
  w.Key("store_failures").U64(cs.store_failures);
  w.Key("fsync_failures").U64(cs.fsync_failures);
  w.End();

  w.Key("breaker").Array();
  for (const sim::BreakerCensusEntry& e : supervisor_.breaker().Census()) {
    w.Object();
    w.Key("workload").Str(e.workload);
    w.Key("state").Str(e.state);
    w.Key("failures").U64(e.failures);
    w.Key("trips").U64(e.trips);
    w.Key("skipped").U64(e.skipped);
    w.End();
  }
  w.End();

  if (health) {
    // kHealth census (docs/SERVING.md): hostile-client counters, the
    // boot scrub verdict and the installed io-fault plan with its
    // per-kind opportunity/fired tallies.
    const ScrubStats ss = cache_.scrub_stats();
    w.Key("health").Object();
    w.Key("requests_served")
        .U64(requests_served_.load(std::memory_order_relaxed));
    w.Key("corrupt_frames")
        .U64(corrupt_frames_.load(std::memory_order_relaxed));
    w.Key("read_timeouts").U64(read_timeouts_.load(std::memory_order_relaxed));
    w.Key("refused_connections")
        .U64(refused_connections_.load(std::memory_order_relaxed));
    w.Key("scrub").Object();
    w.Key("checked").U64(ss.checked);
    w.Key("ok").U64(ss.ok);
    w.Key("quarantined").U64(ss.quarantined);
    w.End();
    w.Key("io_faults").Object();
    w.Key("active").Bool(resilience::IoFaultsActive());
    w.Key("plan").Str(
        resilience::FormatIoFaultPlan(resilience::CurrentIoFaultPlan()));
    w.Key("census").Object();
    const resilience::IoFaultCensus census = resilience::GetIoFaultCensus();
    for (int k = 0; k < resilience::kNumIoFaultKinds; ++k) {
      const auto i = static_cast<std::size_t>(k);
      w.Key(resilience::ToString(static_cast<resilience::IoFaultKind>(k)))
          .Object();
      w.Key("opportunities").U64(census.opportunities[i]);
      w.Key("fired").U64(census.fired[i]);
      w.End();
    }
    w.End().End();
    // The job table and the sweep stages: written and read only on the
    // dispatcher thread, which is the one that answers `health`.
    w.Key("table").Object();
    w.Key("cells").U64(table_.entries.size());
    w.Key("build_ms").U64(table_build_ms_);
    w.End();
    w.Key("stages").Object();
    for (const auto& [name, stage] :
         {std::pair{"queue", &queue_stage_}, std::pair{"cells", &cells_stage_},
          std::pair{"respond", &respond_stage_}}) {
      w.Key(name).Object();
      w.Key("count").U64(stage->count);
      w.Key("p50_us").U64(stage->PercentileUs(50));
      w.Key("p99_us").U64(stage->PercentileUs(99));
      w.End();
    }
    w.End().End();
  }

  return w.End().Take();
}

}  // namespace dsa::serve
