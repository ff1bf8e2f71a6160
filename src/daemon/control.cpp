#include "daemon/control.hpp"

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/strings.hpp"

namespace ldmsxx {
namespace {

/// How long the server waits on a silent (or non-reading) client before it
/// drops the connection. Clients are served one at a time, so without it one
/// idle connection would hold off every later command.
constexpr time_t kClientIdleTimeoutSec = 2;

Status FillSockaddr(const std::string& path, sockaddr_un* addr) {
  if (path.size() + 1 > sizeof(addr->sun_path)) {
    return {ErrorCode::kInvalidArgument, "socket path too long: " + path};
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return Status::Ok();
}

/// Read until '\n' or EOF (commands and replies are single lines). Reads in
/// 4 KB chunks, since a reply page runs to tens of KB. Bytes after the
/// newline are dropped; a connection carries one reply.
Status ReadLine(int fd, std::string* line) {
  line->clear();
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n == 0) {
      return line->empty() ? Status{ErrorCode::kDisconnected, "EOF"}
                           : Status::Ok();
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return {ErrorCode::kDisconnected, std::strerror(errno)};
    }
    const auto* end = static_cast<const char*>(
        std::memchr(chunk, '\n', static_cast<std::size_t>(n)));
    if (end != nullptr) {
      line->append(chunk, static_cast<std::size_t>(end - chunk));
      return Status::Ok();
    }
    line->append(chunk, static_cast<std::size_t>(n));
  }
}

Status WriteLine(int fd, const std::string& line) {
  std::string out = line;
  out.push_back('\n');
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n =
        ::send(fd, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return {ErrorCode::kDisconnected, std::strerror(errno)};
    }
    off += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

ControlServer::ControlServer(Ldmsd& daemon, std::string socket_path,
                             KeyManager* keys)
    : daemon_(daemon),
      processor_(daemon),
      socket_path_(std::move(socket_path)),
      keys_(keys) {}

ControlServer::~ControlServer() { Stop(); }

Status ControlServer::Start() {
  sockaddr_un addr{};
  Status st = FillSockaddr(socket_path_, &addr);
  if (!st.ok()) return st;
  ::unlink(socket_path_.c_str());
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return {ErrorCode::kInternal, std::strerror(errno)};
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0) {
    return {ErrorCode::kInvalidArgument,
            "bind " + socket_path_ + ": " + std::strerror(errno)};
  }
  // Owner-only: the paper's access control.
  ::chmod(socket_path_.c_str(), 0600);
  if (::listen(listen_fd_, 16) < 0) {
    return {ErrorCode::kInternal, std::strerror(errno)};
  }
  running_ = true;
  server_ = std::thread([this] { ServeLoop(); });
  daemon_.log().Info("control socket at ", socket_path_);
  return Status::Ok();
}

void ControlServer::Stop() {
  if (!running_.exchange(false)) return;
  // Wake the blocked accept() with shutdown, but only touch listen_fd_
  // (close + reset) after the server thread has joined — it reads the fd
  // until then.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (server_.joinable()) server_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(socket_path_.c_str());
}

void ControlServer::ServeLoop() {
  while (running_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed
    }
    // Serve inline, one client at a time; a client idle past the timeout is
    // dropped so the next one gets served.
    const timeval idle{kClientIdleTimeoutSec, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &idle, sizeof idle);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &idle, sizeof idle);
    ServeClient(fd);
    ::close(fd);
  }
}

void ControlServer::ServeClient(int fd) {
  // Buffered line framing. A client may dribble a command byte by byte or
  // pack several newline-terminated verbs into a single write; either way
  // each complete line gets exactly one reply, in order. A trailing
  // fragment with no terminating newline at EOF is discarded, never
  // executed half-parsed.
  std::string buffer;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n == 0) return;  // EOF; any partial line in `buffer` is dropped
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // includes the idle timeout (EAGAIN)
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    std::size_t newline;
    while ((newline = buffer.find('\n', start)) != std::string::npos) {
      const std::string_view line(buffer.data() + start, newline - start);
      start = newline + 1;
      if (Trim(line).empty()) continue;
      commands_.fetch_add(1, std::memory_order_relaxed);
      if (!WriteLine(fd, HandleLine(line)).ok()) return;
    }
    buffer.erase(0, start);
  }
}

std::string ControlServer::HandleLine(std::string_view line) {
  std::string_view body = Trim(line);
  bool authenticated = false;
  if (StartsWith(body, "auth ")) {
    // auth <key_id>:<mac_hex> <verb ...> — the MAC covers everything after
    // the token, so a verb (or its arguments) can't be swapped under a
    // captured prefix.
    const std::string_view rest = Trim(body.substr(5));
    const std::size_t space = rest.find(' ');
    if (space == std::string_view::npos) {
      auth_failures_.fetch_add(1, std::memory_order_relaxed);
      return "ERROR: malformed auth prefix";
    }
    const std::string_view token = rest.substr(0, space);
    body = Trim(rest.substr(space + 1));
    if (keys_ == nullptr || !keys_->Verify(token, body)) {
      auth_failures_.fetch_add(1, std::memory_order_relaxed);
      return "ERROR: authentication failed";
    }
    authenticated = true;
  }
  const std::size_t space = body.find(' ');
  const std::string_view verb =
      body.substr(0, space == std::string_view::npos ? body.size() : space);
  if (keys_ != nullptr && !authenticated && IsMutatingControlVerb(verb)) {
    auth_failures_.fetch_add(1, std::memory_order_relaxed);
    return "ERROR: auth required for " + std::string(verb);
  }
  // Key management lives at the server, not the config processor: rotation
  // must go through the same KeyManager that gates this socket.
  if (verb == "key_rotate") {
    if (keys_ == nullptr) return "ERROR: no control key configured";
    Status st = keys_->Rotate();
    if (!st.ok()) return "ERROR: " + st.ToString();
    daemon_.log().Info("control key rotated, key_id=", keys_->current().id);
    return "OK key_id=" + std::to_string(keys_->current().id);
  }
  if (verb == "auth_status") {
    std::string out = keys_ == nullptr ? "enabled=0" : "enabled=1";
    if (keys_ != nullptr) {
      out += " key_id=" + std::to_string(keys_->current().id);
      out += " rotations=" + std::to_string(keys_->rotations());
    }
    out += " failures=" +
           std::to_string(auth_failures_.load(std::memory_order_relaxed));
    return "OK " + out;
  }
  std::string output;
  Status st = processor_.Execute(body, &output);
  if (!st.ok()) return "ERROR: " + st.ToString();
  // Query verbs reply "OK <payload>"; mutating verbs keep the bare "OK".
  return output.empty() ? "OK" : "OK " + output;
}

Status ControlServer::SendCommand(const std::string& socket_path,
                                  const std::string& command,
                                  std::string* reply, const KeyManager* keys) {
  sockaddr_un addr{};
  Status st = FillSockaddr(socket_path, &addr);
  if (!st.ok()) return st;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return {ErrorCode::kInternal, std::strerror(errno)};
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return {ErrorCode::kDisconnected, "connect " + socket_path + ": " + err};
  }
  std::string wire(Trim(command));
  if (keys != nullptr) wire = "auth " + keys->Sign(wire) + " " + wire;
  st = WriteLine(fd, wire);
  if (st.ok()) st = ReadLine(fd, reply);
  ::close(fd);
  if (!st.ok()) return st;
  if (reply->rfind("ERROR", 0) == 0) {
    return {ErrorCode::kInvalidArgument, *reply};
  }
  return Status::Ok();
}

}  // namespace ldmsxx
