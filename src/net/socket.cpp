#include "net/socket.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include "common/error.hpp"
#include "common/fault.hpp"

namespace clear::net {

namespace {

sockaddr_in resolve(const Endpoint& endpoint) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  CLEAR_CHECK_MSG(
      ::inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr) == 1,
      "not an IPv4 address: '" << endpoint.host
                               << "' (the net layer binds numeric addresses; "
                                  "use 127.0.0.1 for loopback)");
  return addr;
}

}  // namespace

Endpoint parse_endpoint(const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  CLEAR_CHECK_MSG(colon != std::string::npos && colon > 0 &&
                      colon + 1 < spec.size(),
                  "endpoint '" << spec << "' is not HOST:PORT");
  Endpoint endpoint;
  endpoint.host = spec.substr(0, colon);
  const std::string port_str = spec.substr(colon + 1);
  std::uint64_t port = 0;
  for (const char c : port_str) {
    CLEAR_CHECK_MSG(c >= '0' && c <= '9', "endpoint '" << spec
                                                       << "' has a non-numeric "
                                                          "port");
    port = port * 10 + static_cast<std::uint64_t>(c - '0');
    CLEAR_CHECK_MSG(port <= 65535, "endpoint '" << spec
                                                << "' port exceeds 65535");
  }
  endpoint.port = static_cast<std::uint16_t>(port);
  return endpoint;
}

int listen_tcp(const Endpoint& endpoint, int backlog) {
  const sockaddr_in addr = resolve(endpoint);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  CLEAR_CHECK_MSG(fd >= 0, "socket() failed: " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  // Accepted sockets inherit TCP_NODELAY from the listener (Linux). Without
  // it, a response written while an earlier one is still unacknowledged
  // waits for the peer's next segment.
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    CLEAR_CHECK_MSG(false, "bind(" << endpoint.host << ":" << endpoint.port
                                   << ") failed: " << std::strerror(err));
  }
  if (::listen(fd, backlog) != 0) {
    const int err = errno;
    ::close(fd);
    CLEAR_CHECK_MSG(false, "listen(" << endpoint.host << ":" << endpoint.port
                                     << ") failed: " << std::strerror(err));
  }
  set_nonblocking(fd, true);
  return fd;
}

int connect_tcp(const Endpoint& endpoint) {
  const sockaddr_in addr = resolve(endpoint);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  CLEAR_CHECK_MSG(fd >= 0, "socket() failed: " << std::strerror(errno));
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    const int err = errno;
    ::close(fd);
    CLEAR_CHECK_MSG(false, "connect(" << endpoint.host << ":" << endpoint.port
                                      << ") failed: " << std::strerror(err));
  }
  // Loopback batches of small frames: without TCP_NODELAY, Nagle adds
  // 40ms-class stalls that would swamp the latency histograms.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

int connect_tcp(const Endpoint& endpoint, int timeout_ms) {
  if (timeout_ms <= 0) return connect_tcp(endpoint);
  const sockaddr_in addr = resolve(endpoint);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  CLEAR_CHECK_MSG(fd >= 0, "socket() failed: " << std::strerror(errno));
  // Nonblocking connect + poll: the only portable way to put a deadline on
  // connection establishment.
  set_nonblocking(fd, true);
  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS && errno != EINTR) {
    const int err = errno;
    ::close(fd);
    CLEAR_CHECK_MSG(false, "connect(" << endpoint.host << ":" << endpoint.port
                                      << ") failed: " << std::strerror(err));
  }
  if (rc != 0) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    int pr;
    do {
      pr = ::poll(&pfd, 1, timeout_ms);
    } while (pr < 0 && errno == EINTR);
    if (pr == 0) {
      ::close(fd);
      CLEAR_CHECK_MSG(false, "net.timeout: connect(" << endpoint.host << ":"
                                                     << endpoint.port
                                                     << ") timed out after "
                                                     << timeout_ms << "ms");
    }
    if (pr < 0) {
      const int err = errno;
      ::close(fd);
      CLEAR_CHECK_MSG(false,
                      "poll during connect failed: " << std::strerror(err));
    }
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      ::close(fd);
      CLEAR_CHECK_MSG(false, "connect(" << endpoint.host << ":"
                                        << endpoint.port << ") failed: "
                                        << std::strerror(err));
    }
  }
  set_nonblocking(fd, false);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

std::uint16_t local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  CLEAR_CHECK_MSG(
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
      "getsockname failed: " << std::strerror(errno));
  return ntohs(addr.sin_port);
}

void set_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  CLEAR_CHECK_MSG(flags >= 0, "fcntl(F_GETFL) failed: "
                                  << std::strerror(errno));
  const int next = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  CLEAR_CHECK_MSG(::fcntl(fd, F_SETFL, next) == 0,
                  "fcntl(F_SETFL) failed: " << std::strerror(errno));
}

void close_fd(int fd) {
  if (fd >= 0) ::close(fd);
}

bool FaultedStream::drop_guard() {
  if (fd_ < 0) return true;
  if (!fault::net_drop_fires(stream_id_)) return false;
  // Sever like a dying peer: abort the connection (RST, not orderly FIN) so
  // the other side sees a hard close, then report closed to our caller.
  ::shutdown(fd_, SHUT_RDWR);
  ::close(fd_);
  fd_ = -1;
  dropped_ = true;
  return true;
}

IoResult FaultedStream::read_some(void* buf, std::size_t n) {
  IoResult result;
  ++ops_;
  if (drop_guard()) {
    result.closed = true;
    return result;
  }
  ssize_t rc;
  do {
    rc = ::recv(fd_, buf, n, 0);
  } while (rc < 0 && errno == EINTR);
  if (rc > 0) {
    result.n = static_cast<std::size_t>(rc);
  } else if (rc == 0) {
    result.closed = true;  // Orderly EOF.
  } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
    result.would_block = true;
  } else {
    result.closed = true;  // ECONNRESET and friends: treat as gone.
  }
  return result;
}

IoResult FaultedStream::write_some(const void* buf, std::size_t n) {
  IoResult result;
  ++ops_;
  if (drop_guard()) {
    result.closed = true;
    return result;
  }
  const std::size_t cap = fault::net_write_cap(stream_id_, ops_);
  const std::size_t attempt = std::min(n, cap);
  if (attempt == 0) return result;
  ssize_t rc;
  do {
    // MSG_NOSIGNAL: a dead peer must surface as EPIPE, not kill the process.
    rc = ::send(fd_, buf, attempt, MSG_NOSIGNAL);
  } while (rc < 0 && errno == EINTR);
  if (rc >= 0) {
    result.n = static_cast<std::size_t>(rc);
  } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
    result.would_block = true;
  } else {
    result.closed = true;  // EPIPE / ECONNRESET: peer is gone.
  }
  return result;
}

void FaultedStream::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

}  // namespace clear::net
