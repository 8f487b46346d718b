#include "serve/client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "mem/json.h"
#include "resilience/mini_json.h"
#include "serve/proto.h"

namespace dsa::serve {

namespace {

std::string BuildRequest(const ClientOptions& opts) {
  mem::JsonBuilder w;
  w.Object();
  w.Key("schema").Str("dsa-serve/1");
  w.Key("kind").Str(opts.health ? "health" : (opts.ping ? "ping" : "sweep"));
  w.Key("client").Str(opts.client_name);
  if (!opts.filter.empty()) w.Key("filter").Str(opts.filter);
  if (opts.deadline_ms > 0) w.Key("deadline_ms").U64(opts.deadline_ms);
  return w.End().Take();
}

std::string Field(const resilience::JsonValue& obj, std::string_view name) {
  const resilience::JsonValue* v = obj.Find(name);
  return v != nullptr ? v->AsString() : std::string();
}

// One request/response exchange. Returns the exit code; sets
// `transient` when a code-5 failure is a transport transient (daemon
// not up, torn frame, connection lost) that a bounded retry may heal.
int Attempt(const ClientOptions& opts, std::string& json, bool& got_response,
            bool& transient) {
  got_response = false;
  transient = false;
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  if (opts.socket_path.empty() ||
      opts.socket_path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "[dsa_submit] bad socket path \"%s\"\n",
                 opts.socket_path.c_str());
    return 5;
  }
  std::memcpy(addr.sun_path, opts.socket_path.c_str(),
              opts.socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::fprintf(stderr, "[dsa_submit] socket: %s\n", std::strerror(errno));
    return 5;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    std::fprintf(stderr, "[dsa_submit] connect %s: %s\n",
                 opts.socket_path.c_str(), std::strerror(errno));
    ::close(fd);
    transient = true;  // daemon restarting (ECONNREFUSED/ENOENT)
    return 5;
  }
  if (opts.recv_timeout_ms > 0) {
    timeval tv = {};
    tv.tv_sec = static_cast<time_t>(opts.recv_timeout_ms / 1000);
    tv.tv_usec =
        static_cast<suseconds_t>((opts.recv_timeout_ms % 1000) * 1000);
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  if (!SendFrame(fd, kFrameRequest, BuildRequest(opts))) {
    std::fprintf(stderr, "[dsa_submit] send failed (daemon gone?)\n");
    ::close(fd);
    transient = true;
    return 5;
  }
  char type = 0;
  const RecvStatus rs = RecvFrame(fd, type, json);
  ::close(fd);
  if (rs != RecvStatus::kOk || type != kFrameResponse) {
    std::fprintf(stderr, "[dsa_submit] response: %s\n",
                 std::string(ToString(rs)).c_str());
    transient = true;  // torn frame / daemon died mid-response
    return 5;
  }
  got_response = true;
  return 0;
}

}  // namespace

int Submit(const ClientOptions& opts) {
  std::string json;
  bool got_response = false;
  bool transient = false;
  int rc = Attempt(opts, json, got_response, transient);
  for (int attempt = 0; !got_response && transient && attempt < opts.retries;
       ++attempt) {
    // Deterministic exponential backoff: 50, 100, 200, ... ms. Bounded
    // by --retries; a daemon that never comes back still fails typed
    // with exit 5.
    const auto backoff = std::chrono::milliseconds(50LL << attempt);
    std::fprintf(stderr,
                 "[dsa_submit] transient transport failure, retry %d/%d in %lld ms\n",
                 attempt + 1, opts.retries,
                 static_cast<long long>(backoff.count()));
    std::this_thread::sleep_for(backoff);
    rc = Attempt(opts, json, got_response, transient);
  }
  if (!got_response) return rc;

  if (!opts.json_path.empty()) {
    std::ofstream out(opts.json_path, std::ios::binary | std::ios::trunc);
    out << json << "\n";
    out.close();  // the flush: a full disk fails here, not at the write
    if (out.fail()) {
      std::fprintf(stderr, "[dsa_submit] cannot write %s\n",
                   opts.json_path.c_str());
      return 5;
    }
  }

  resilience::JsonValue resp;
  if (!resilience::ParseJson(json, resp) || !resp.is_object()) {
    std::fprintf(stderr, "[dsa_submit] response is not valid JSON\n");
    return 5;
  }
  const std::string status = Field(resp, "status");
  const std::string error = Field(resp, "error");
  const std::string ok_n = Field(resp, "cells_ok");
  const std::string failed_n = Field(resp, "cells_failed");
  const std::string cached_n = Field(resp, "cells_cached");
  std::printf("[dsa_submit] status=%s ok=%s failed=%s cached=%s%s%s\n",
              status.c_str(), ok_n.empty() ? "0" : ok_n.c_str(),
              failed_n.empty() ? "0" : failed_n.c_str(),
              cached_n.empty() ? "0" : cached_n.c_str(),
              error.empty() ? "" : " error=", error.c_str());
  const resilience::JsonValue* cells = resp.Find("cells");
  if (!opts.quiet && cells != nullptr && cells->is_array()) {
    for (const resilience::JsonValue& cell : cells->array) {
      if (!cell.is_object()) continue;
      const std::string cell_status = Field(cell, "cell_status");
      if (cell_status == "ok") continue;
      std::printf("[dsa_submit]   %-40s %-10s %s\n",
                  Field(cell, "job").c_str(), cell_status.c_str(),
                  Field(cell, "error").c_str());
    }
  }

  if (status == "ok") {
    return (failed_n.empty() || failed_n == "0") ? 0 : 1;
  }
  if (status == "interrupted") return 1;
  // overload / deadline / bad-request: the request was refused before or
  // instead of simulation — an admission verdict, not a cell failure.
  return 4;
}

}  // namespace dsa::serve
