#include "gen.hpp"

#include <poll.h>
#include <sched.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace perfbench {

namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

std::uint64_t request_key(std::uint64_t user, std::uint64_t request) {
  return (user << 32) ^ request;
}

/// Write as much of out[pos..] as the socket takes without blocking.
void flush_some(int fd, std::string& out, std::size_t& pos) {
  while (pos < out.size()) {
    const ssize_t n = ::write(fd, out.data() + pos, out.size() - pos);
    if (n > 0) {
      pos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    throw std::runtime_error(std::string("generator write failed: ") +
                             std::strerror(errno));
  }
  if (pos == out.size()) {
    out.clear();
    pos = 0;
  }
}

}  // namespace

double cpu_s(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

Mark mark_now() {
  Mark m;
  m.serving_cpu_s =
      cpu_s(CLOCK_PROCESS_CPUTIME_ID) - cpu_s(CLOCK_THREAD_CPUTIME_ID);
  // "cpu  user nice system idle iowait irq softirq steal ..." in ticks.
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    stat >> v;
    m.host_ticks += v;
    if (field == 7) m.stolen_ticks = v;
  }
  return m;
}

PhaseResult run_phase(int fd, const std::vector<net::WireRequest>& requests,
                      const std::vector<std::int64_t>& due_ns,
                      Clock::time_point start, Clock::duration patience,
                      const std::vector<std::size_t>& segment_starts,
                      std::size_t window) {
  if (requests.size() != due_ns.size())
    throw std::runtime_error("generator: one due time per request required");
  const std::size_t n = requests.size();
  PhaseResult r;
  r.lag_ms.assign(n, 0.0);
  r.recv_ms.assign(n, -1.0);
  r.responses.resize(n);
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i)
    if (!index.emplace(request_key(requests[i].user_id,
                                   requests[i].request_id), i)
             .second)
      throw std::runtime_error("generator: duplicate (user, request) id");

  const auto due = [&](std::size_t i) {
    return start + std::chrono::nanoseconds(due_ns[i]);
  };
  const Clock::time_point deadline =
      (n ? due(n - 1) : start) + patience;

  net::FrameDecoder decoder;
  net::Frame frame;
  std::string out;
  std::size_t out_pos = 0;
  std::size_t next = 0;
  std::size_t answered = 0;
  bool drain_sent = false;
  bool peer_open = true;
  static char buf[1 << 16];
  std::size_t mark = 0;

  while (answered < n && peer_open) {
    Clock::time_point now = Clock::now();
    while (next < n && now >= due(next) &&
           (window == 0 || next - answered < window)) {
      if (mark < segment_starts.size() && segment_starts[mark] == next) {
        r.marks.push_back(mark_now());
        ++mark;
      }
      r.lag_ms[next] = ms_between(due(next), now);
      out += net::encode_request(requests[next]);
      const Clock::time_point encoded = Clock::now();
      r.encode_us += us_between(now, encoded);
      now = encoded;
      ++next;
    }
    if (next == n && !drain_sent) {
      // Batching is arrival-driven: only a drain releases the tail batch (the
      // in-process replay drains at the same point).
      out += net::encode_drain();
      drain_sent = true;
    }
    flush_some(fd, out, out_pos);

    now = Clock::now();
    if (now >= deadline) break;
    // Busy-poll instead of sleeping: an idle virtual CPU takes milliseconds
    // to wake, which would be charged to the server twice — as late sends
    // and as late receive stamps. Yielding keeps the core available.
    pollfd p{fd, static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)), 0};
    const int rc = ::poll(&p, 1, 0);
    if (rc < 0 && errno != EINTR)
      throw std::runtime_error(std::string("generator poll failed: ") +
                               std::strerror(errno));
    if (rc <= 0 || !(p.revents & (POLLIN | POLLHUP | POLLERR))) {
      ::sched_yield();
      continue;
    }

    for (;;) {
      const ssize_t got = ::read(fd, buf, sizeof(buf));
      if (got < 0 && errno == EINTR) continue;
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (got <= 0) {
        peer_open = false;
        break;
      }
      const Clock::time_point stamp = Clock::now();
      decoder.feed(buf, static_cast<std::size_t>(got));
      for (;;) {
        const net::DecodeStatus st = decoder.next(frame);
        if (st == net::DecodeStatus::kNeedMore) break;
        if (st != net::DecodeStatus::kFrame)
          throw std::runtime_error("generator: bad frame from server: " +
                                   decoder.error());
        if (frame.type != net::FrameType::kResponse) continue;  // Acks.
        net::WireResponse resp;
        std::string error;
        const Clock::time_point t0 = Clock::now();
        if (!net::parse_response(frame, resp, error))
          throw std::runtime_error("generator: bad response: " + error);
        r.decode_us += us_between(t0, Clock::now());
        const auto it = index.find(request_key(resp.user_id, resp.request_id));
        if (it == index.end()) {
          ++r.unknown;
          continue;
        }
        if (r.recv_ms[it->second] >= 0.0) {
          ++r.duplicates;
          continue;
        }
        r.recv_ms[it->second] = ms_between(start, stamp);
        r.responses[it->second] = std::move(resp);
        ++answered;
      }
    }
  }
  if (!segment_starts.empty()) r.marks.push_back(mark_now());
  return r;
}

void send_shutdown(int fd) {
  std::string out = net::encode_shutdown();
  std::size_t pos = 0;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(30);
  net::FrameDecoder decoder;
  net::Frame frame;
  static char buf[1 << 16];
  while (Clock::now() < deadline) {
    if (!out.empty()) flush_some(fd, out, pos);
    pollfd p{fd, static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)), 0};
    if (::poll(&p, 1, 100) <= 0) continue;
    const ssize_t got = ::read(fd, buf, sizeof(buf));
    if (got < 0 && (errno == EAGAIN || errno == EINTR)) continue;
    if (got <= 0) return;  // Peer closed: shutdown done.
    decoder.feed(buf, static_cast<std::size_t>(got));
    while (decoder.next(frame) == net::DecodeStatus::kFrame)
      if (frame.type == net::FrameType::kDrainAck) return;
  }
  throw std::runtime_error("server did not acknowledge shutdown in 30 s");
}

}  // namespace perfbench
