// Loopback client for the service workload: non-blocking JSON-frame
// connections and reply correlation by request id.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "parhull/service/protocol.h"

namespace perfbench {

// One JSON request frame: {"id":N,"tenant":"T","cmd":"C"}\n
std::string json_request(std::uint64_t id, std::string_view tenant,
                         std::string_view cmd);

// A parsed reply line. `id` is set when the reply echoed a numeric id.
struct Reply {
  std::optional<std::uint64_t> id;
  std::string status;  // "ok", "overloaded", ...
  std::vector<parhull::service::JsonField> fields;

  const std::string* field(std::string_view key) const;
  // Integer field, or `fallback` when absent or not a number.
  std::uint64_t uint_field(std::string_view key, std::uint64_t fallback) const;
};

bool parse_reply(std::string_view line, Reply& out);

// Requests in flight keyed by their JSON id. The server may answer out of
// order (a shed reply from the event loop overtakes replies still being
// executed by workers), so replies are matched by id, never by position.
template <class Info>
class ReplyTracker {
 public:
  void add(std::uint64_t id, Info info) { pending_.emplace(id, std::move(info)); }

  // The request a reply answers, removed from the set; empty for an id that
  // is unknown or was already answered.
  std::optional<Info> take(std::uint64_t id) {
    auto it = pending_.find(id);
    if (it == pending_.end()) return std::nullopt;
    Info info = std::move(it->second);
    pending_.erase(it);
    return info;
  }

  std::size_t size() const { return pending_.size(); }

  // Every request still unanswered; empties the set.
  std::vector<Info> drain() {
    std::vector<Info> out;
    out.reserve(pending_.size());
    for (auto& [id, info] : pending_) out.push_back(std::move(info));
    pending_.clear();
    return out;
  }

 private:
  std::unordered_map<std::uint64_t, Info> pending_;
};

// A TCP connection to the loopback server. Writes are buffered and flushed
// without blocking; reads hand back complete '\n'-terminated lines.
class Connection {
 public:
  Connection() = default;
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool connect(std::uint16_t port);
  int fd() const { return fd_; }

  void send(const std::string& frame);
  bool flush();  // false on a socket error
  bool wants_write() const { return !out_.empty(); }

  // Read whatever is available and pass each complete line to on_line.
  // False on EOF or a socket error.
  bool read_lines(const std::function<void(std::string_view)>& on_line);

  // Closed-loop helper for set-up and oracles: send one frame and wait for
  // its reply line (the connection must have nothing else in flight).
  bool call(const std::string& frame, std::string& reply, int timeout_ms);

 private:
  int fd_ = -1;
  std::string in_;
  std::string out_;
};

}  // namespace perfbench
