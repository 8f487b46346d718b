#include "serve/daemon.h"

#include <algorithm>
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

#include "resilience/iofault.h"
#include "resilience/isolate.h"
#include "resilience/journal.h"
#include "resilience/mini_json.h"
#include "resilience/supervisor.h"
#include "serve/flags.h"
#include "serve/proto.h"
#include "sim/error.h"
#include "workloads/workloads.h"

#if defined(__unix__) || defined(__APPLE__)
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>
#define DSA_HAVE_SERVE 1
#else
#define DSA_HAVE_SERVE 0
#endif

namespace dsa::serve {

namespace {

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
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
    if (!seen.insert(key).second) return;
    if (!needle.empty() && Lower(key).find(needle) == std::string::npos) {
      return;
    }
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
      breaker_(opts_.breaker_threshold, opts_.breaker_probe_after),
      admission_(opts_.queue_limit, opts_.client_quota) {}

Daemon::~Daemon() {
#if DSA_HAVE_SERVE
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(opts_.socket_path.c_str());
  }
#endif
}

bool Daemon::Init(std::string* error) {
#if DSA_HAVE_SERVE
  if (opts_.socket_path.empty()) {
    if (error != nullptr) *error = "--socket is required";
    return false;
  }
  if (!opts_.crash_cell.empty() && !opts_.isolate) {
    if (error != nullptr) *error = "--crash-cell requires --isolate";
    return false;
  }
  if ((opts_.cell_deadline_ms > 0 || opts_.mem_limit_mb > 0) &&
      !opts_.isolate) {
    if (error != nullptr) {
      *error = "--cell-deadline-ms/--mem-limit-mb require --isolate";
    }
    return false;
  }
  if (opts_.isolate && !resilience::IsolationAvailable()) {
    if (error != nullptr) *error = "--isolate: fork unavailable here";
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
  resilience::InstallDrainHandler();
  pool_ = std::make_unique<WorkerPool>(
      PoolOptions{.workers = opts_.workers});
  return true;
#else
  (void)error;
  if (error != nullptr) *error = "serving requires unix sockets";
  return false;
#endif
}

int Daemon::Serve() {
#if DSA_HAVE_SERVE
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
  pool_->Shutdown();
  ::close(listen_fd_);
  listen_fd_ = -1;
  (void)::unlink(opts_.socket_path.c_str());
  std::printf("[dsa_serve] drained after %" PRIu64 " requests, exiting 3\n",
              requests_served_.load());
  return 3;
#else
  return 1;
#endif
}

void Daemon::AcceptOne() {
#if DSA_HAVE_SERVE
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
#endif
}

void Daemon::HandleConnection(int fd) {
#if DSA_HAVE_SERVE
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
#endif
}

void Daemon::DispatcherMain() {
#if DSA_HAVE_SERVE
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
#endif
}

void Daemon::ProcessRequest(Request& req) {
#if DSA_HAVE_SERVE
  const auto now = std::chrono::steady_clock::now();
  const auto deadline =
      req.deadline_ms > 0
          ? req.received + std::chrono::milliseconds(req.deadline_ms)
          : std::chrono::steady_clock::time_point::max();
  if (now >= deadline) {
    // Expired while queued: refuse without burning simulation time.
    RespondError(req.fd, "deadline",
                 "deadline: request spent its " +
                     std::to_string(req.deadline_ms) + " ms in the queue");
    return;
  }
  if (req.kind == "ping" || req.kind == "health") {
    const std::string body =
        BuildResponse("ok", "", {}, {}, /*health=*/req.kind == "health");
    (void)SendFrame(req.fd, kFrameResponse, body);
    ::close(req.fd);
    return;
  }

  const std::vector<sim::BatchJob> jobs = SweepJobs(req.filter);
  if (jobs.empty()) {
    RespondError(req.fd, "bad-request",
                 "filter \"" + req.filter + "\" matches no cells");
    return;
  }

  std::vector<sim::JobOutcome> cells(jobs.size());
  std::vector<bool> cached(jobs.size(), false);
  std::mutex done_mu;
  std::condition_variable done_cv;
  std::size_t remaining = jobs.size();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    bool queued = pool_->Submit([this, &jobs, &cells, &cached, &done_mu,
                                 &done_cv, &remaining, deadline, i] {
      bool was_cached = false;
      RunCell(jobs[i], deadline, cells[i], was_cached);
      std::lock_guard<std::mutex> lock(done_mu);
      cached[i] = was_cached;
      if (--remaining == 0) done_cv.notify_all();
    });
    if (!queued) {
      // Pool refused (shutdown or every worker retired): classify the
      // cell instead of losing it.
      cells[i].key = sim::JobKey(jobs[i]);
      cells[i].workload_key = sim::WorkloadKey(jobs[i]);
      cells[i].mode = jobs[i].mode;
      cells[i].config_tag = jobs[i].config_tag;
      cells[i].cell_status = "skipped";
      cells[i].error = "overload: worker pool unavailable";
      std::lock_guard<std::mutex> lock(done_mu);
      if (--remaining == 0) done_cv.notify_all();
    }
  }
  {
    std::unique_lock<std::mutex> lock(done_mu);
    while (remaining != 0) {
      if (done_cv.wait_for(lock, std::chrono::milliseconds(500),
                           [&remaining] { return remaining == 0; })) {
        break;
      }
      // Backstop against a hang: if every pool worker has been retired,
      // queued tasks were discarded and will never report back — claim
      // the cells that never started (their key is still empty; every
      // RunCell path fills it first) as refused.
      if (pool_->stats().live_workers == 0) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
          if (!cells[i].key.empty()) continue;
          cells[i].key = sim::JobKey(jobs[i]);
          cells[i].workload_key = sim::WorkloadKey(jobs[i]);
          cells[i].mode = jobs[i].mode;
          cells[i].config_tag = jobs[i].config_tag;
          cells[i].cell_status = "skipped";
          cells[i].error = "overload: worker pool retired";
          --remaining;
        }
      }
    }
  }

  std::string status = "ok";
  if (resilience::Supervisor::DrainRequested()) {
    status = "interrupted";
  } else if (std::chrono::steady_clock::now() >= deadline) {
    status = "deadline";
  }
  const std::string body = BuildResponse(status, "", cells, cached);
  (void)SendFrame(req.fd, kFrameResponse, body);
  ::close(req.fd);
#endif
}

void Daemon::RunCell(const sim::BatchJob& job,
                     std::chrono::steady_clock::time_point deadline,
                     sim::JobOutcome& out, bool& cached) {
  const std::string key = sim::JobKey(job);
  const auto refuse = [&](const char* status, std::string why) {
    out.key = key;
    out.workload_key = sim::WorkloadKey(job);
    out.mode = job.mode;
    out.config_tag = job.config_tag;
    out.cell_status = status;
    out.error = std::move(why);
  };

  // 1. Persistent cache: a completed cell survives any number of daemon
  // restarts and is served bit-identically without re-simulation.
  CacheKey cache_key;
  if (cache_.open()) {
    cache_key = KeyFor(job);
    if (cache_.Load(cache_key, out)) {
      out.restored = true;
      cached = true;
      return;
    }
  }

  // 2. Drain / request deadline: unstarted cells are abandoned, typed.
  if (resilience::Supervisor::DrainRequested()) {
    refuse("cancelled", "cancelled: daemon draining");
    return;
  }
  if (std::chrono::steady_clock::now() >= deadline) {
    refuse("cancelled", "cancelled: request deadline expired");
    return;
  }

  // 3. Circuit breaker: a workload that keeps dying is failed fast.
  if (breaker_.enabled() && !breaker_.Allow(job.workload.name)) {
    refuse("skipped",
           sim::DsaError(sim::DsaErrorCode::kBreakerOpen,
                         "circuit breaker open for " + job.workload.name)
               .what());
    return;
  }

  // 4. Execute through the same classification path as a CLI sweep.
  sim::RunnerOptions ro;
  ro.repeats = opts_.repeats;
  const bool crash_this = !opts_.crash_cell.empty() &&
                          key.find(opts_.crash_cell) != std::string::npos;
  ro.run_fn = [this, crash_this, &key](const sim::Workload& wl,
                                       sim::RunMode mode,
                                       const sim::SystemConfig& cfg) {
    if (opts_.isolate) {
      const resilience::IsolateOptions io{opts_.cell_deadline_ms,
                                          opts_.mem_limit_mb};
      return resilience::RunIsolated(
          [&] {
            if (crash_this) std::abort();  // crash drill, child only
            return sim::Run(wl, mode, cfg);
          },
          io, key);
    }
    return sim::Run(wl, mode, cfg);
  };
  sim::ExecuteCell(job, ro, out);
  if (breaker_.enabled()) {
    breaker_.Record(job.workload.name, out.cell_status == "ok");
  }

  // 5. Promote to the cache, then the kill drill (in that order: the
  // soak test relies on every *completed* cell being durable before the
  // daemon dies).
  if (out.cell_status == "ok" && cache_.open()) {
    (void)cache_.Store(cache_key, out);
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
#if DSA_HAVE_SERVE
  (void)SendFrame(fd, kFrameResponse, BuildResponse(status, error, {}, {}));
  ::close(fd);
#endif
}

std::string Daemon::BuildResponse(const std::string& status,
                                  const std::string& error,
                                  const std::vector<sim::JobOutcome>& cells,
                                  const std::vector<bool>& cached,
                                  bool health) {
  using resilience::JsonEscape;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t from_cache = 0;
  std::string body = "{\"schema\":\"dsa-serve/1\",\"status\":\"";
  body += JsonEscape(status);
  body += "\",\"error\":\"";
  body += JsonEscape(error);
  body += "\",\"engine\":\"";
  body += kEngineVersion;
  body += "\",\"cells\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const sim::JobOutcome& c = cells[i];
    const bool hit = i < cached.size() && cached[i];
    if (c.cell_status == "ok") {
      ++ok;
    } else {
      ++failed;
    }
    if (hit) ++from_cache;
    if (i > 0) body += ',';
    body += "{\"job\":\"";
    body += JsonEscape(c.key);
    body += "\",\"workload\":\"";
    body += JsonEscape(c.workload_key);
    body += "\",\"mode\":\"";
    body += ToString(c.mode);
    body += "\",\"config_tag\":\"";
    body += JsonEscape(c.config_tag);
    body += "\",\"cell_status\":\"";
    body += JsonEscape(c.cell_status);
    body += "\",\"cached\":";
    body += hit ? "true" : "false";
    body += ",\"attempts\":";
    body += std::to_string(c.attempts);
    body += ",\"error\":\"";
    body += JsonEscape(c.error);
    body += "\"";
    if (c.cell_status == "ok" && !c.runs.empty()) {
      char digest[32];
      std::snprintf(digest, sizeof(digest), "0x%016" PRIx64,
                    c.result().output_digest);
      body += ",\"cycles\":";
      body += std::to_string(c.result().cycles);
      body += ",\"output_digest\":\"";
      body += digest;
      body += "\"";
    }
    body += "}";
  }
  body += "],\"cells_ok\":";
  body += std::to_string(ok);
  body += ",\"cells_failed\":";
  body += std::to_string(failed);
  body += ",\"cells_cached\":";
  body += std::to_string(from_cache);

  const CacheStats cs = cache_.stats();
  body += ",\"cache\":{\"enabled\":";
  body += cache_.open() ? "true" : "false";
  body += ",\"hits\":";
  body += std::to_string(cs.hits);
  body += ",\"misses\":";
  body += std::to_string(cs.misses);
  body += ",\"stores\":";
  body += std::to_string(cs.stores);
  body += ",\"quarantined\":";
  body += std::to_string(cs.quarantined);
  body += ",\"store_failures\":";
  body += std::to_string(cs.store_failures);
  body += ",\"fsync_failures\":";
  body += std::to_string(cs.fsync_failures);
  body += "}";

  if (pool_ != nullptr) {
    const PoolStats ps = pool_->stats();
    body += ",\"pool\":{\"executed\":";
    body += std::to_string(ps.executed);
    body += ",\"escaped\":";
    body += std::to_string(ps.escaped);
    body += ",\"respawns\":";
    body += std::to_string(ps.respawns);
    body += ",\"discarded\":";
    body += std::to_string(ps.discarded);
    body += ",\"live_workers\":";
    body += std::to_string(ps.live_workers);
    body += "}";
  }

  body += ",\"breaker\":[";
  bool first = true;
  for (const sim::BreakerCensusEntry& e : breaker_.Census()) {
    if (!first) body += ',';
    first = false;
    body += "{\"workload\":\"";
    body += JsonEscape(e.workload);
    body += "\",\"state\":\"";
    body += JsonEscape(e.state);
    body += "\",\"failures\":";
    body += std::to_string(e.failures);
    body += ",\"trips\":";
    body += std::to_string(e.trips);
    body += ",\"skipped\":";
    body += std::to_string(e.skipped);
    body += "}";
  }
  body += "]";

  if (health) {
    // kHealth census (docs/SERVING.md): hostile-client counters, the
    // boot scrub verdict and the installed io-fault plan with its
    // per-kind opportunity/fired tallies.
    const ScrubStats ss = cache_.scrub_stats();
    body += ",\"health\":{\"requests_served\":";
    body += std::to_string(requests_served_.load(std::memory_order_relaxed));
    body += ",\"corrupt_frames\":";
    body += std::to_string(corrupt_frames_.load(std::memory_order_relaxed));
    body += ",\"read_timeouts\":";
    body += std::to_string(read_timeouts_.load(std::memory_order_relaxed));
    body += ",\"refused_connections\":";
    body +=
        std::to_string(refused_connections_.load(std::memory_order_relaxed));
    body += ",\"scrub\":{\"checked\":";
    body += std::to_string(ss.checked);
    body += ",\"ok\":";
    body += std::to_string(ss.ok);
    body += ",\"quarantined\":";
    body += std::to_string(ss.quarantined);
    body += "},\"io_faults\":{\"active\":";
    body += resilience::IoFaultsActive() ? "true" : "false";
    body += ",\"plan\":\"";
    body += JsonEscape(resilience::FormatIoFaultPlan(
        resilience::CurrentIoFaultPlan()));
    body += "\",\"census\":{";
    const resilience::IoFaultCensus census = resilience::GetIoFaultCensus();
    for (int k = 0; k < resilience::kNumIoFaultKinds; ++k) {
      if (k > 0) body += ',';
      body += "\"";
      body += resilience::ToString(static_cast<resilience::IoFaultKind>(k));
      body += "\":{\"opportunities\":";
      body += std::to_string(census.opportunities[static_cast<std::size_t>(k)]);
      body += ",\"fired\":";
      body += std::to_string(census.fired[static_cast<std::size_t>(k)]);
      body += "}";
    }
    body += "}}}";
  }

  body += "}";
  return body;
}

}  // namespace dsa::serve
