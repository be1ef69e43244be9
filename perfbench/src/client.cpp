#include "client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>

namespace perfbench {

std::string json_request(std::uint64_t id, std::string_view tenant,
                         std::string_view cmd) {
  std::string out = "{\"id\":" + std::to_string(id) + ",\"tenant\":\"";
  parhull::service::append_json_escaped(out, tenant);
  out += "\",\"cmd\":\"";
  parhull::service::append_json_escaped(out, cmd);
  out += "\"}\n";
  return out;
}

const std::string* Reply::field(std::string_view key) const {
  const auto* f = parhull::service::find_field(fields, key);
  return f != nullptr ? &f->value : nullptr;
}

std::uint64_t Reply::uint_field(std::string_view key,
                                std::uint64_t fallback) const {
  const std::string* v = field(key);
  if (v == nullptr || v->empty()) return fallback;
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v->c_str(), &end, 10);
  return end != nullptr && *end == '\0' ? x : fallback;
}

bool parse_reply(std::string_view line, Reply& out) {
  out = Reply{};
  if (!parhull::service::parse_json_object(line, out.fields, nullptr)) {
    return false;
  }
  const auto* id = parhull::service::find_field(out.fields, "id");
  if (id != nullptr && !id->quoted) {
    char* end = nullptr;
    const unsigned long long x = std::strtoull(id->value.c_str(), &end, 10);
    if (end != nullptr && *end == '\0') out.id = x;
  }
  const std::string* status = out.field("status");
  if (status == nullptr) return false;
  out.status = *status;
  return true;
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

bool Connection::connect(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return false;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL, 0) | O_NONBLOCK) == 0;
}

void Connection::send(const std::string& frame) { out_ += frame; }

bool Connection::flush() {
  while (!out_.empty()) {
    const ssize_t n = ::send(fd_, out_.data(), out_.size(), MSG_NOSIGNAL);
    if (n > 0) {
      out_.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool Connection::read_lines(
    const std::function<void(std::string_view)>& on_line) {
  char buf[65536];
  while (true) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      in_.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return false;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;
  }
  std::size_t start = 0;
  for (std::size_t nl; (nl = in_.find('\n', start)) != std::string::npos;
       start = nl + 1) {
    on_line(std::string_view(in_).substr(start, nl - start));
  }
  in_.erase(0, start);
  return true;
}

bool Connection::call(const std::string& frame, std::string& reply,
                      int timeout_ms) {
  send(frame);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  bool got = false;
  while (!got) {
    if (!flush()) return false;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) return false;
    pollfd p{fd_, static_cast<short>(POLLIN | (wants_write() ? POLLOUT : 0)),
             0};
    if (::poll(&p, 1, static_cast<int>(left)) < 0 && errno != EINTR) {
      return false;
    }
    if ((p.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    const bool open = read_lines([&](std::string_view line) {
      if (!got) {
        reply.assign(line);
        got = true;
      }
    });
    if (!open && !got) return false;
  }
  return true;
}

}  // namespace perfbench
