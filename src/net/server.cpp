#include "net/server.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <climits>
#include <cstring>
#include <fstream>
#include <iterator>
#include <vector>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/logging.hpp"
#include "common/obs.hpp"
#include "serve/journal.hpp"

namespace clear::net {

namespace {

// epoll user-data ids for the three non-connection fds.
constexpr std::uint64_t kListenId = 0;
constexpr std::uint64_t kWakeId = ~0ull;
constexpr std::uint64_t kTrainerId = ~0ull - 1;

constexpr std::size_t kReadChunk = 64 * 1024;

// epoll_pwait2 takes a timespec: a timeout in whole ms would add up to 1 ms
// to a 2 ms batch wait. It needs glibc 2.35 to build and Linux 5.11 to run;
// without either, the wait falls back to epoll_wait with the timeout rounded
// up to whole ms, so a batch may be released up to 1 ms past its deadline.
#ifndef CLEAR_HAVE_EPOLL_PWAIT2
#if defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 35))
#define CLEAR_HAVE_EPOLL_PWAIT2 1
#else
#define CLEAR_HAVE_EPOLL_PWAIT2 0
#endif
#endif

int wait_events(int epoll_fd, std::vector<epoll_event>& events,
                const timespec* timeout) {
  const int max = static_cast<int>(events.size());
#if CLEAR_HAVE_EPOLL_PWAIT2
  static std::atomic<bool> kernel_has_pwait2{true};
  if (kernel_has_pwait2.load(std::memory_order_relaxed)) {
    const int n = ::epoll_pwait2(epoll_fd, events.data(), max, timeout,
                                 nullptr);
    if (n >= 0 || errno != ENOSYS) return n;
    kernel_has_pwait2.store(false, std::memory_order_relaxed);
  }
#endif
  int timeout_ms = -1;
  if (timeout != nullptr) {
    const long long ms = static_cast<long long>(timeout->tv_sec) * 1000 +
                         (timeout->tv_nsec + 999'999) / 1'000'000;
    timeout_ms = static_cast<int>(std::min<long long>(ms, INT_MAX));
  }
  return ::epoll_wait(epoll_fd, events.data(), max, timeout_ms);
}

}  // namespace

NetServer::NetServer(serve::Server& server, NetServerConfig config)
    : server_(server),
      config_(std::move(config)),
      anchor_wall_(Clock::now()),
      read_wall_(anchor_wall_) {
  listen_fd_ = listen_tcp(config_.listen);
  port_ = local_port(listen_fd_);

  epoll_fd_ = ::epoll_create1(0);
  CLEAR_CHECK_MSG(epoll_fd_ >= 0,
                  "epoll_create1 failed: " << std::strerror(errno));
  CLEAR_CHECK_MSG(::pipe(wake_fds_) == 0,
                  "pipe failed: " << std::strerror(errno));
  set_nonblocking(wake_fds_[0], true);

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenId;
  CLEAR_CHECK_MSG(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0,
                  "epoll_ctl(listen) failed: " << std::strerror(errno));
  ev.data.u64 = kWakeId;
  CLEAR_CHECK_MSG(
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fds_[0], &ev) == 0,
      "epoll_ctl(wake) failed: " << std::strerror(errno));
  ev.data.u64 = kTrainerId;
  CLEAR_CHECK_MSG(
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, server_.trainer_fd(), &ev) == 0,
      "epoll_ctl(trainer) failed: " << std::strerror(errno));

  if (!config_.port_file.empty()) {
    std::ofstream out(config_.port_file, std::ios::trunc);
    CLEAR_CHECK_MSG(out.good(),
                    "cannot write port file '" << config_.port_file << "'");
    out << port_ << "\n";
  }
  CLEAR_INFO("net: listening on " << config_.listen.host << ":" << port_);
}

NetServer::~NetServer() {
  for (auto& [id, conn] : connections_) conn->stream.close();
  connections_.clear();
  close_fd(listen_fd_);
  close_fd(wake_fds_[0]);
  close_fd(wake_fds_[1]);
  close_fd(epoll_fd_);
}

void NetServer::stop() {
  // Async-signal-safe wake: one byte through the self-pipe.
  const char b = 's';
  [[maybe_unused]] const ssize_t rc = ::write(wake_fds_[1], &b, 1);
}

void NetServer::run() {
  CLEAR_OBS_SPAN("net.run");
  std::vector<epoll_event> events(64);
  while (true) {
    graveyard_.clear();
    // Drain-on-shutdown: once stopping, stay in the loop only to flush
    // write buffers; exit when every connection's outbuf is empty.
    if (stopping_) {
      bool pending = false;
      for (auto& [id, conn] : connections_)
        pending = pending || conn->outpos < conn->outbuf.size();
      if (!pending) break;
    }
    timespec timeout{};
    const int n = wait_events(epoll_fd_, events, wait_timeout(timeout));
    if (n < 0) {
      if (errno == EINTR) continue;
      CLEAR_CHECK_MSG(false, "epoll wait failed: " << std::strerror(errno));
    }
    if (n == 0) {
      if (stopping_) break;  // Peers never drained us; give up.
      on_timer();
      continue;
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t id = events[i].data.u64;
      const std::uint32_t mask = events[i].events;
      if (id == kWakeId) {
        char buf[64];
        while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
        }
        begin_shutdown();
        continue;
      }
      if (id == kTrainerId) {
        server_.clear_trainer_wake();
        release_held(/*wait=*/false);
        dispatch_results();
        continue;
      }
      if (id == kListenId) {
        if (!stopping_) accept_ready();
        continue;
      }
      auto it = connections_.find(id);
      if (it == connections_.end()) continue;  // Closed earlier this wake.
      Connection& conn = *it->second;
      if (mask & (EPOLLHUP | EPOLLERR)) {
        // A peer that resets (closing with our reply unread) can leave its
        // last frames, a shutdown say, still queued: read them first.
        if (mask & EPOLLIN) handle_readable(conn);
        close_connection(id, "peer hung up");
        continue;
      }
      if (mask & EPOLLIN) handle_readable(conn);
      // Re-check: handle_readable may have closed the connection.
      auto again = connections_.find(id);
      if (again == connections_.end()) continue;
      if (mask & EPOLLOUT) handle_writable(*again->second);
    }
  }
}

std::uint64_t NetServer::virtual_now(Clock::time_point t) const {
  return anchor_virt_us_ +
         static_cast<std::uint64_t>(
             std::chrono::duration_cast<std::chrono::microseconds>(
                 t - anchor_wall_)
                 .count());
}

const timespec* NetServer::wait_timeout(timespec& storage) const {
  std::uint64_t wait_us = 100'000;  // Stopping: only write buffers matter.
  if (!stopping_) {
    if (server_.in_flight() == 0) return nullptr;
    const std::uint64_t due = server_.next_deadline_us();
    const std::uint64_t virt = virtual_now(Clock::now());
    wait_us = due > virt ? due - virt : 0;
  }
  storage.tv_sec = static_cast<std::time_t>(wait_us / 1'000'000);
  storage.tv_nsec = static_cast<long>(wait_us % 1'000'000 * 1000);
  return &storage;
}

void NetServer::on_timer() {
  const std::size_t before = server_.in_flight();
  if (before == 0) return;
  server_.advance(virtual_now(Clock::now()));
  if (server_.in_flight() < before) {
    ++counters_.deadline_releases;
    CLEAR_OBS_COUNT("net.deadline_releases", 1);
  }
  dispatch_results();
}

void NetServer::accept_ready() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      CLEAR_WARN("net: accept failed: " << std::strerror(errno));
      return;
    }
    if (connections_.size() >= config_.max_connections) {
      // Refuse at the door: closing immediately is an unambiguous signal,
      // and cheaper than parsing frames we would shed anyway.
      ++counters_.rejected;
      CLEAR_OBS_COUNT("net.rejected", 1);
      ::close(fd);
      continue;
    }
    set_nonblocking(fd, true);
    const std::uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Connection>();
    conn->id = id;
    conn->stream = FaultedStream(fd, id);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      CLEAR_WARN("net: epoll_ctl(add conn) failed: " << std::strerror(errno));
      ::close(fd);
      continue;
    }
    connections_.emplace(id, std::move(conn));
    ++counters_.accepted;
    CLEAR_OBS_COUNT("net.accepted", 1);
    CLEAR_OBS_GAUGE("net.connections", static_cast<double>(connections_.size()));
  }
}

void NetServer::handle_readable(Connection& conn) {
  char buf[kReadChunk];
  while (true) {
    const IoResult r = conn.stream.read_some(buf, sizeof(buf));
    if (r.n > 0) {
      read_wall_ = Clock::now();
      counters_.bytes_in += r.n;
      CLEAR_OBS_COUNT("net.bytes_in", static_cast<double>(r.n));
      conn.decoder.feed(buf, r.n);
      if (!pump_frames(conn)) {
        close_connection(conn.id, "framing error");
        return;
      }
      // A frame handler may have started shutdown; stop reading new bytes.
      if (stopping_) return;
      continue;
    }
    if (r.would_block) return;
    // Peer is gone (EOF, reset, or injected drop). Bytes buffered past the
    // last complete frame mean it died mid-request: that request is shed at
    // the wire — count it with the serve layer's sheds so operators see one
    // total, plus the net-level counter that says *why*.
    if (conn.decoder.buffered() > 0) {
      ++counters_.partial_drops;
      CLEAR_OBS_COUNT("net.partial_drops", 1);
      CLEAR_OBS_COUNT("serve.shed", 1);
      CLEAR_WARN("net: connection " << conn.id << " dropped mid-frame ("
                                    << conn.decoder.buffered()
                                    << " bytes past frame "
                                    << conn.decoder.frames_decoded() << ")");
    }
    close_connection(conn.id, "peer closed");
    return;
  }
}

bool NetServer::pump_frames(Connection& conn) {
  Frame frame;
  while (true) {
    const DecodeStatus status = conn.decoder.next(frame);
    if (status == DecodeStatus::kNeedMore) return true;
    if (status != DecodeStatus::kFrame) {
      ++counters_.decode_errors;
      CLEAR_OBS_COUNT("net.decode_errors", 1);
      CLEAR_WARN("net: connection " << conn.id << ": "
                                    << conn.decoder.error());
      return false;
    }
    ++counters_.frames_in;
    CLEAR_OBS_COUNT("net.frames_in", 1);
    switch (frame.type) {
      case FrameType::kRequest:
        if (!on_request(conn, frame)) return false;
        break;
      case FrameType::kDrain:
        release_held(/*wait=*/true);
        server_.drain();
        dispatch_results();
        send_frame(conn, encode_drain_ack(ack_snapshot()));
        break;
      case FrameType::kShutdown:
        begin_shutdown();
        send_frame(conn, encode_drain_ack(ack_snapshot()));
        return true;  // No more reads matter; loop now only flushes.
      case FrameType::kPing: {
        std::uint64_t nonce = 0;
        std::string error;
        if (!parse_ping(frame, nonce, error)) {
          ++counters_.decode_errors;
          CLEAR_OBS_COUNT("net.decode_errors", 1);
          CLEAR_WARN("net: connection " << conn.id << ": bad ping: " << error);
          return false;
        }
        if (fault::shard_drop_heartbeat_fires()) {
          // Injected silence: the coordinator sees a missed beat.
          CLEAR_OBS_COUNT("net.heartbeats.dropped", 1);
          break;
        }
        WirePong pong;
        pong.nonce = nonce;
        pong.sessions = server_.sessions().size();
        send_frame(conn, encode_pong(pong));
        break;
      }
      case FrameType::kExport:
        if (!on_export(conn, frame)) return false;
        break;
      case FrameType::kSessionImage:
        if (!on_import(conn, frame)) return false;
        break;
      case FrameType::kAdopt:
        if (!on_adopt(conn, frame)) return false;
        break;
      case FrameType::kMetricsPull:
        send_frame(conn, encode_metrics_json(obs::metrics_json()));
        break;
      case FrameType::kResponse:
      case FrameType::kDrainAck:
      case FrameType::kPong:
      case FrameType::kImportAck:
      case FrameType::kAdoptAck:
      case FrameType::kMetricsJson:
        ++counters_.decode_errors;
        CLEAR_OBS_COUNT("net.decode_errors", 1);
        CLEAR_WARN("net: connection "
                   << conn.id << ": client sent a server-only frame type "
                   << frame_type_name(frame.type));
        return false;
    }
  }
}

bool NetServer::on_request(Connection& conn, const Frame& frame) {
  WireRequest wire;
  std::string error;
  if (!parse_request(frame, wire, error)) {
    ++counters_.decode_errors;
    CLEAR_OBS_COUNT("net.decode_errors", 1);
    CLEAR_WARN("net: connection " << conn.id << ": bad request payload: "
                                  << error);
    return false;
  }
  // Geometry gate: the serve layer trusts map dimensions (normalization
  // would throw deep inside submit), so a map that doesn't match the
  // deployed model is a protocol violation, not a sheddable request.
  const auto& model = server_.source().config.model;
  if (wire.map.extent(0) != model.feature_dim ||
      wire.map.extent(1) != model.window_count) {
    ++counters_.decode_errors;
    CLEAR_OBS_COUNT("net.decode_errors", 1);
    CLEAR_WARN("net: connection "
               << conn.id << ": request map is " << wire.map.shape_str()
               << ", model expects [" << model.feature_dim << ", "
               << model.window_count << "]");
    return false;
  }
  serve::ServeRequest request;
  request.user_id = wire.user_id;
  request.request_id = wire.request_id;
  request.quality = wire.quality;
  request.label = wire.label;
  request.map = std::move(wire.map);
  request.arrival_us = wire.arrival_us;
  // Submitting behind a running fine-tune would stall every user on it:
  // hold the frame, and every later one of the user's, until it finishes.
  if (held_.count(request.user_id) != 0 ||
      server_.would_block(request.user_id)) {
    // Held frames count against the batcher's global bound, so a client
    // flooding its own fine-tuning user is shed as the serve layer would
    // shed it, not buffered for the whole fine-tune.
    std::size_t pending = server_.in_flight();
    for (const auto& [user, queue] : held_) pending += queue.size();
    if (pending >= server_.config().batch.max_pending) {
      ++counters_.held_sheds;
      CLEAR_OBS_COUNT("net.held_sheds", 1);
      CLEAR_OBS_COUNT("serve.shed", 1);
      WireResponse shed;
      shed.request_id = request.request_id;
      shed.user_id = request.user_id;
      shed.shed = true;
      shed.arrival_us = request.arrival_us;
      shed.exec_us = request.arrival_us;
      shed.error = "server overloaded (" + std::to_string(pending) +
                   " requests pending)";
      send_frame(conn, encode_response(shed));
      return true;
    }
    routes_[{request.user_id, request.request_id}] = conn.id;
    held_[request.user_id].push_back({std::move(request), read_wall_});
    ++counters_.held_requests;
    CLEAR_OBS_COUNT("net.held_requests", 1);
    return true;
  }
  routes_[{request.user_id, request.request_id}] = conn.id;
  // The serve layer's virtual clock must not run backwards. One connection
  // sending in order never trips this; interleaved connections (or a
  // malicious client) get clamped to the high-water mark — the request is
  // still served, just as if it had arrived "now".
  const std::uint64_t floor_us = server_.last_arrival_us();
  if (request.arrival_us < floor_us) {
    request.arrival_us = floor_us;
    ++counters_.clamped_arrivals;
    CLEAR_OBS_COUNT("net.clamped_arrivals", 1);
  }
  server_.submit(std::move(request));
  anchor_virt_us_ = server_.last_arrival_us();
  anchor_wall_ = read_wall_;
  dispatch_results();
  return true;
}

void NetServer::release_held(bool wait) {
  for (auto it = held_.begin(); it != held_.end();) {
    std::deque<HeldRequest>& queue = it->second;
    while (!queue.empty() && (wait || !server_.would_block(it->first))) {
      HeldRequest held = std::move(queue.front());
      queue.pop_front();
      // Stamped no earlier than the clock has run: the frame waited for its
      // own user's fine-tune, which is not a clamp. A stamp that moves the
      // clock anchors it at the wall time the frame was read.
      serve::ServeRequest& request = held.request;
      if (request.arrival_us > server_.last_arrival_us()) {
        anchor_virt_us_ = request.arrival_us;
        anchor_wall_ = held.read_wall;
      } else {
        request.arrival_us = server_.last_arrival_us();
      }
      server_.submit(std::move(request));
    }
    it = queue.empty() ? held_.erase(it) : std::next(it);
  }
}

bool NetServer::on_export(Connection& conn, const Frame& frame) {
  std::uint64_t user = 0;
  std::string error;
  if (!parse_export(frame, user, error)) {
    ++counters_.decode_errors;
    CLEAR_OBS_COUNT("net.decode_errors", 1);
    CLEAR_WARN("net: connection " << conn.id << ": bad export: " << error);
    return false;
  }
  // Quiesce first: the user's held frames and pending rows must complete
  // (and their responses route) before the session freezes — exporting
  // mid-batch would fork the session's history across shards.
  release_held(/*wait=*/true);
  server_.drain();
  dispatch_results();
  WireSessionImage out;
  out.user_id = user;
  if (std::optional<serve::Server::ExportedSession> exp =
          server_.export_session(user)) {
    out.found = true;
    out.image = serve::encode_session_image(exp->image);
    out.checkpoint = std::move(exp->checkpoint);
  }
  send_frame(conn, encode_session_image(out));
  // Retire only after the image is on (or queued for) the wire: a send
  // failure closes the connection, and the coordinator treats the shard as
  // dead — the session must still be in this shard's journal for adoption.
  if (out.found) server_.retire_session(user);
  return true;
}

bool NetServer::on_import(Connection& conn, const Frame& frame) {
  WireSessionImage wire;
  std::string error;
  if (!parse_session_image(frame, wire, error)) {
    ++counters_.decode_errors;
    CLEAR_OBS_COUNT("net.decode_errors", 1);
    CLEAR_WARN("net: connection " << conn.id << ": bad session image: "
                                  << error);
    return false;
  }
  WireImportAck ack;
  ack.user_id = wire.user_id;
  if (!wire.found) {
    ack.error = "import frame carries no session (found = false)";
  } else {
    try {
      const serve::SessionImage image =
          serve::decode_session_image(wire.image);
      if (image.user_id != wire.user_id) {
        ack.error = "image user does not match the frame header";
      } else {
        ack.ok = server_.import_session(image, wire.checkpoint);
        if (!ack.ok) ack.error = "import failed (see shard log)";
      }
    } catch (const Error& e) {
      ack.error = e.what();
    }
  }
  send_frame(conn, encode_import_ack(ack));
  return true;
}

bool NetServer::on_adopt(Connection& conn, const Frame& frame) {
  std::string dir;
  std::string error;
  if (!parse_adopt(frame, dir, error)) {
    ++counters_.decode_errors;
    CLEAR_OBS_COUNT("net.decode_errors", 1);
    CLEAR_WARN("net: connection " << conn.id << ": bad adopt: " << error);
    return false;
  }
  WireAdoptAck ack;
  // Rebuild the dead shard's sessions in a scratch server — recover() is
  // snapshot restore + journal replay + checkpoint re-attach, the exact
  // machinery a restart of the dead shard would run — then move each one
  // over with the same export/import path a live migration uses.
  try {
    serve::ServeConfig scratch_config = server_.config();
    scratch_config.journal.directory = dir;
    serve::Server scratch(server_.source(), std::move(scratch_config));
    const serve::RecoveryReport report = scratch.recover();
    CLEAR_INFO("net: adopting " << report.sessions << " sessions from '"
                                << dir << "' (" << report.personalized
                                << " personalized)");
    std::vector<std::uint64_t> users;
    for (const serve::Session* s : scratch.sessions().sessions())
      users.push_back(s->user_id());
    for (const std::uint64_t user : users) {
      std::optional<serve::Server::ExportedSession> exp =
          scratch.export_session(user);
      if (!exp) continue;
      const bool personal = exp->image.has_personal;
      if (server_.import_session(exp->image, exp->checkpoint)) {
        ++ack.sessions;
        if (personal) ++ack.personalized;
        // The dead directory no longer claims the session; a second adopt
        // of the same directory must not double-import it.
        scratch.retire_session(user);
      } else {
        ++ack.failed;
      }
    }
  } catch (const Error& e) {
    CLEAR_WARN("net: adoption of '" << dir << "' failed: " << e.what());
    ++ack.failed;
  }
  send_frame(conn, encode_adopt_ack(ack));
  return true;
}

void NetServer::begin_shutdown() {
  if (stopping_) return;
  stopping_ = true;
  release_held(/*wait=*/true);
  server_.drain();
  dispatch_results();
  // Graceful-shutdown durability: with the batcher flushed and every
  // session mutation applied, a final compacting snapshot means the next
  // start replays nothing. No-op when journaling is off.
  server_.snapshot_now();
}

void NetServer::dispatch_results() {
  for (serve::ServeResult& result : server_.take_results()) {
    const auto key = std::make_pair(result.user_id, result.request_id);
    const auto route = routes_.find(key);
    std::uint64_t conn_id = 0;
    if (route != routes_.end()) {
      conn_id = route->second;
      routes_.erase(route);
    }
    const auto it = connections_.find(conn_id);
    if (it == connections_.end()) {
      // The requester hung up before its result completed. The session
      // state is already updated inside the serve layer (that's the
      // point — a dead wire must not corrupt the session); only the
      // reply is lost.
      ++counters_.dropped_responses;
      CLEAR_OBS_COUNT("net.dropped_responses", 1);
      continue;
    }
    WireResponse wire;
    wire.request_id = result.request_id;
    wire.user_id = result.user_id;
    wire.shed = result.status == serve::ServeResult::Status::kShed;
    wire.predicted = result.predicted;
    wire.fear_probability = result.fear_probability;
    wire.session_state = static_cast<std::uint32_t>(result.session_state);
    wire.degraded = result.degraded;
    wire.route_kind = static_cast<std::uint32_t>(result.route.kind);
    wire.route_id = result.route.id;
    wire.batch_rows = static_cast<std::uint32_t>(result.batch_rows);
    wire.arrival_us = result.arrival_us;
    wire.exec_us = result.exec_us;
    wire.error = result.error;
    send_frame(*it->second, encode_response(wire));
  }
}

void NetServer::send_frame(Connection& conn, const std::string& frame) {
  if (!conn.stream.open()) return;
  conn.outbuf.append(frame);
  ++counters_.frames_out;
  CLEAR_OBS_COUNT("net.frames_out", 1);
  flush(conn);
}

void NetServer::flush(Connection& conn) {
  while (conn.outpos < conn.outbuf.size()) {
    const IoResult r = conn.stream.write_some(conn.outbuf.data() + conn.outpos,
                                              conn.outbuf.size() - conn.outpos);
    if (r.n > 0) {
      conn.outpos += r.n;
      counters_.bytes_out += r.n;
      CLEAR_OBS_COUNT("net.bytes_out", static_cast<double>(r.n));
      continue;
    }
    if (r.would_block) break;
    if (r.closed) {
      close_connection(conn.id, "peer closed during write");
      return;
    }
  }
  if (conn.outpos >= conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.outpos = 0;
  } else if (conn.outpos > conn.outbuf.size() / 2) {
    conn.outbuf.erase(0, conn.outpos);
    conn.outpos = 0;
  }
  update_write_interest(conn);
}

void NetServer::handle_writable(Connection& conn) { flush(conn); }

void NetServer::update_write_interest(Connection& conn) {
  if (!conn.stream.open()) return;
  const bool want = conn.outpos < conn.outbuf.size();
  if (want == conn.writable_armed) return;
  epoll_event ev{};
  ev.events = want ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
  ev.data.u64 = conn.id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.stream.fd(), &ev) == 0)
    conn.writable_armed = want;
}

void NetServer::close_connection(std::uint64_t id, const char* why) {
  const auto it = connections_.find(id);
  if (it == connections_.end()) return;
  Connection& conn = *it->second;
  if (conn.stream.open()) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.stream.fd(), nullptr);
    conn.stream.close();
  }
  CLEAR_DEBUG("net: closing connection " << id << " (" << why << ")");
  graveyard_.push_back(std::move(it->second));
  connections_.erase(it);
  ++counters_.closed;
  CLEAR_OBS_COUNT("net.closed", 1);
  CLEAR_OBS_GAUGE("net.connections", static_cast<double>(connections_.size()));
}

WireDrainAck NetServer::ack_snapshot() const {
  const serve::ServeCounters& c = server_.counters();
  WireDrainAck ack;
  ack.requests = c.requests;
  ack.ok = c.ok;
  ack.shed = c.shed;
  return ack;
}

}  // namespace clear::net
