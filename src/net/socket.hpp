// Thin POSIX TCP helpers for the net layer: RAII fds, nonblocking setup,
// and fault-guarded stream IO.
//
// Every byte the net layer moves goes through FaultedStream, whose
// read/write ops consult the deterministic network-fault knobs in
// src/common/fault: the short-write spec caps a send at a few bytes
// (forcing callers through their partial-write / backpressure paths), and
// the armed drop countdown severs the connection mid-operation (simulating
// a peer dying mid-request). With the knobs disarmed the guards are two
// branch instructions per syscall.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace clear::net {

/// "HOST:PORT" split into its parts. Port 0 asks the kernel for an
/// ephemeral port when listening.
struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// Parse "HOST:PORT" (throws clear::Error with the offending spec).
Endpoint parse_endpoint(const std::string& spec);

/// Create a nonblocking listening socket bound to the endpoint
/// (SO_REUSEADDR and TCP_NODELAY set; accepted sockets inherit Nagle off).
/// Throws clear::Error on failure.
int listen_tcp(const Endpoint& endpoint, int backlog = 64);

/// Blocking TCP connect. Throws clear::Error on failure.
int connect_tcp(const Endpoint& endpoint);

/// TCP connect with a deadline: a connection not established within
/// `timeout_ms` throws an addressed "net.timeout" clear::Error instead of
/// blocking in the kernel. `timeout_ms <= 0` means no deadline (identical
/// to the overload above). The returned fd is blocking.
int connect_tcp(const Endpoint& endpoint, int timeout_ms);

/// The port a bound socket actually landed on (resolves port 0).
std::uint16_t local_port(int fd);

void set_nonblocking(int fd, bool on);
void close_fd(int fd);

/// One read/write attempt's outcome.
struct IoResult {
  std::size_t n = 0;          ///< Bytes moved.
  bool closed = false;        ///< Peer EOF, hard error, or injected drop.
  bool would_block = false;   ///< EAGAIN on a nonblocking fd.
};

/// A socket whose IO is guarded by the deterministic network-fault knobs.
/// Does not own the fd's lifetime policy (callers close via close()), but
/// an injected drop closes it immediately — after that every op reports
/// closed, exactly like a real dead peer.
class FaultedStream {
 public:
  FaultedStream() = default;
  FaultedStream(int fd, std::uint64_t stream_id)
      : fd_(fd), stream_id_(stream_id) {}

  int fd() const { return fd_; }
  bool open() const { return fd_ >= 0; }
  /// True when the armed drop countdown fired on this stream.
  bool dropped() const { return dropped_; }

  IoResult read_some(void* buf, std::size_t n);
  IoResult write_some(const void* buf, std::size_t n);
  void close();

 private:
  /// Consult the drop knob before a syscall; severs the connection when it
  /// fires.
  bool drop_guard();

  int fd_ = -1;
  std::uint64_t stream_id_ = 0;
  std::uint64_t ops_ = 0;  ///< Guarded-op index (read and write share it).
  bool dropped_ = false;
};

}  // namespace clear::net
