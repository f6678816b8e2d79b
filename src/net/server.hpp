// NetServer: the epoll front end that puts CLEAR-Serve on a wire.
//
// A single-threaded, level-triggered epoll event loop owns every socket.
// Frames arrive on nonblocking connections, are decoded incrementally
// (src/net/protocol), and feed the embedded serve::Server on its virtual
// clock: each request is admitted at the arrival timestamp carried *in its
// frame*. Arrivals that would run that clock backwards (interleaved
// connections) are clamped to the server's high-water mark (counted, never
// reordered).
//
// Batches are released at their max_wait_us deadline on the wall clock, not
// at the next arrival. The loop anchors the virtual clock at the latest
// admitted arrival and the steady_clock time its frame was read, sleeps
// until the earliest pending deadline on that clock, and on a wait that
// returns no event advances the server to that clock's now, releasing what
// is due (net.deadline_releases). A frame already readable is always
// admitted first. What a request is
// answered (prediction, probability bits, route) is a pure function of the
// request stream, as on the library path; batch boundaries, exec_us and the
// session state a response reports are too, as long as no deadline release
// fires and no frame is held (DESIGN.md §14).
//
// A user whose fine-tune is still running on the serve::Server's trainer
// thread would make submit() wait for it, so the loop holds that user's
// frames in a per-user FIFO instead (net.held_requests) and keeps serving
// everyone else. Held frames count against the batcher's max_pending: a
// frame that would pass it is shed at once (net.held_sheds). The trainer's
// wake fd is in the epoll set; when it fires, each settled user's held
// frames are submitted in order, stamped no earlier than the server's
// latest arrival. Drain, shutdown and export submit every held frame
// first, waiting for the trainer if they must.
//
// Shutdown is drain-on-shutdown: a kShutdown frame (or stop()) flushes every
// pending batch, delivers every result the wire can still carry, lets the
// write buffers empty, and only then exits the loop.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <ctime>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "serve/server.hpp"

namespace clear::net {

struct NetServerConfig {
  Endpoint listen;  ///< Port 0 binds an ephemeral port (see port()).
  std::size_t max_connections = 64;
  /// When nonempty, the bound port is written here (a single decimal line)
  /// after listen succeeds — how scripts discover an ephemeral port.
  std::string port_file;
  /// Ignored: the deadline timer releases every batch. Kept only while
  /// perfbench/src/workload.cpp still sets it; delete it with that line.
  std::uint64_t idle_flush_ms = 0;
};

/// Wire-level counters, deterministic for a deterministic workload (except
/// bytes split across reads, which the kernel decides; byte *totals* are
/// deterministic).
struct NetCounters {
  std::uint64_t accepted = 0;
  std::uint64_t closed = 0;
  std::uint64_t rejected = 0;  ///< Accepts refused at max_connections.
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t decode_errors = 0;      ///< Framing/payload errors (fatal).
  std::uint64_t partial_drops = 0;      ///< Conn died mid-frame.
  std::uint64_t dropped_responses = 0;  ///< Result outlived its connection.
  std::uint64_t clamped_arrivals = 0;   ///< Arrivals clamped monotonic.
  std::uint64_t deadline_releases = 0;  ///< Timer wakes releasing a batch.
  /// Requests held while their user's fine-tune ran (submitted later).
  std::uint64_t held_requests = 0;
  /// Requests shed instead of held: held plus pending reached max_pending.
  std::uint64_t held_sheds = 0;
};

class NetServer {
 public:
  /// Binds and listens immediately (so port() is valid before run()).
  /// The serve::Server must outlive the NetServer; the net layer is its
  /// only driver while run() executes.
  NetServer(serve::Server& server, NetServerConfig config);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  std::uint16_t port() const { return port_; }
  const NetCounters& counters() const { return counters_; }

  /// Run the event loop until a kShutdown frame arrives or stop() is
  /// called. Blocking; call from the thread that owns the server.
  void run();

  /// Thread-safe shutdown request: the loop drains the serve::Server,
  /// flushes write buffers, and exits.
  void stop();

 private:
  struct Connection {
    FaultedStream stream;
    FrameDecoder decoder;
    std::string outbuf;
    std::size_t outpos = 0;
    std::uint64_t id = 0;
    bool writable_armed = false;  ///< EPOLLOUT interest currently on.
  };

  using Clock = std::chrono::steady_clock;

  /// A request read while its user's fine-tune was running, stamped with
  /// its own frame's arrival.
  struct HeldRequest {
    serve::ServeRequest request;
    Clock::time_point read_wall;
  };

  /// Virtual µs at wall time `t` on the clock anchored by the latest
  /// admitted arrival.
  std::uint64_t virtual_now(Clock::time_point t) const;
  /// The next wait's timeout: until the earliest batch deadline. Null
  /// (block until an event) when nothing is in flight.
  const timespec* wait_timeout(timespec& storage) const;
  /// A wait returned no event: release what is due, then route the results.
  void on_timer();
  void accept_ready();
  void handle_readable(Connection& conn);
  void handle_writable(Connection& conn);
  /// Decode + dispatch every complete frame buffered on `conn`.
  /// Returns false when the connection must close (framing error).
  bool pump_frames(Connection& conn);
  bool on_request(Connection& conn, const Frame& frame);
  /// Submit held frames in order: every user's when `wait` (blocking on
  /// the trainer), else only those of users whose fine-tune has finished.
  void release_held(bool wait);
  // Shard-coordination handlers (coordinator-driven; see src/shard).
  bool on_export(Connection& conn, const Frame& frame);
  bool on_import(Connection& conn, const Frame& frame);
  bool on_adopt(Connection& conn, const Frame& frame);
  void begin_shutdown();
  /// Pull completed results out of the serve layer and route each to its
  /// connection (or count it dropped).
  void dispatch_results();
  void send_frame(Connection& conn, const std::string& frame);
  void flush(Connection& conn);
  void update_write_interest(Connection& conn);
  void close_connection(std::uint64_t id, const char* why);
  WireDrainAck ack_snapshot() const;

  serve::Server& server_;
  NetServerConfig config_;
  NetCounters counters_;

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  ///< Self-pipe backing stop().
  std::uint16_t port_ = 0;

  std::uint64_t anchor_virt_us_ = 0;  ///< Latest admitted arrival.
  Clock::time_point anchor_wall_;     ///< When that arrival's frame was read.
  Clock::time_point read_wall_;       ///< When the bytes now pumped arrived.

  std::uint64_t next_conn_id_ = 1;
  std::map<std::uint64_t, std::unique_ptr<Connection>> connections_;
  /// Closed connections parked until the next loop iteration, so a close
  /// deep inside flush() cannot free a Connection& still on the stack.
  std::vector<std::unique_ptr<Connection>> graveyard_;
  /// (user_id, request_id) -> connection id, for routing responses.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> routes_;
  /// Per-user FIFOs of held requests; a user is present only while it has
  /// some.
  std::map<std::uint64_t, std::deque<HeldRequest>> held_;
  bool stopping_ = false;
};

}  // namespace clear::net
