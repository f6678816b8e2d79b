#include "net/loadgen.hpp"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/logging.hpp"
#include "common/obs.hpp"
#include "net/protocol.hpp"

namespace clear::net {

namespace {

// Hash-kind tags for the independent decision streams.
constexpr std::uint64_t kKindGap = 0x6A9;
constexpr std::uint64_t kKindBurst = 0xB57;
constexpr std::uint64_t kKindUser = 0x05E;
constexpr std::uint64_t kKindLabel = 0x1AB;
constexpr std::uint64_t kKindQuality = 0x9AA;
constexpr std::uint64_t kKindMap = 0xFEA7;

double exact_percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t idx = static_cast<std::size_t>(
      std::max(1.0, std::min(rank, static_cast<double>(sorted.size()))));
  return sorted[idx - 1];
}

/// One nonblocking client connection with its own decoder and write buffer.
struct LoadConn {
  FaultedStream stream;
  FrameDecoder decoder;
  std::string outbuf;
  std::size_t outpos = 0;
  bool dead = false;
};

// Gap (us) request `i` contributes to the cumulative hashed schedule; zero
// when the burstiness coin collapses it onto the previous arrival.
double schedule_gap_us(const LoadgenConfig& config, std::size_t i) {
  const double mean_gap_us =
      config.rate_rps > 0.0 ? 1e6 / config.rate_rps : 0.0;
  const double b = std::max(1.0, config.burstiness);
  if (b > 1.0) {
    const double ub =
        fault::uniform01(fault::mix(config.seed, kKindBurst, i, 0));
    if (ub < 1.0 - 1.0 / b) return 0.0;  // Collapsed gap: same instant.
  }
  const double u = fault::uniform01(fault::mix(config.seed, kKindGap, i, 0));
  // Exponential gap; stretch by b so the offered rate survives the
  // collapsed gaps. -log(1-u) with u in [0,1) is finite.
  return -mean_gap_us * std::log(1.0 - u) * b;
}

WireRequest make_request(const LoadgenConfig& config, std::size_t index,
                         std::uint64_t arrival_us) {
  WireRequest request;
  request.request_id = static_cast<std::uint64_t>(index) + 1;
  request.user_id =
      fault::mix(config.seed, kKindUser, index, 0) %
      std::max<std::size_t>(1, config.users);
  request.arrival_us = arrival_us;
  // Quality in [0.75, 1.0]: mostly clean signal, enough spread to touch the
  // quality-tracking path without mass-degrading sessions.
  request.quality =
      0.75 + 0.25 * fault::uniform01(fault::mix(config.seed, kKindQuality,
                                                index, 0));
  const std::uint64_t lh = fault::mix(config.seed, kKindLabel, index, 0);
  if (fault::uniform01(lh) < config.label_fraction)
    request.label = static_cast<int>((lh >> 33) & 1);
  request.map = Tensor({config.features, config.window});
  // Distribution drift: past the onset index a drifting user's maps shift
  // by a constant offset. A pure function of the absolute index, like every
  // other per-request quantity, so --start-index resumption reproduces the
  // exact same drifted stream.
  const float shift = (config.drift_users > 0 &&
                       request.user_id < config.drift_users &&
                       config.drift_after_index > 0 &&
                       index >= config.drift_after_index)
                          ? static_cast<float>(config.drift_shift)
                          : 0.0f;
  auto flat = request.map.flat();
  for (std::size_t i = 0; i < flat.size(); ++i) {
    const std::uint64_t h =
        fault::mix(config.seed ^ request.user_id, kKindMap, index, i);
    flat[i] = static_cast<float>(fault::uniform01(h) * 2.0 - 1.0) + shift;
  }
  return request;
}

/// The deterministic slice of a response, kept for --responses capture.
/// Wall-clock quantities (exec time, batch composition) are excluded on
/// purpose: two runs of the same virtual-clock stream must produce
/// byte-identical capture files, which is exactly what the chaos gate
/// diffs against its golden run.
struct CapturedResponse {
  std::uint64_t request_id = 0;
  std::uint64_t user_id = 0;
  bool shed = false;
  std::int32_t predicted = -1;
  std::uint32_t prob_bits = 0;  ///< Bit pattern of fear_probability.
  std::uint32_t route_kind = 0;
  std::uint64_t route_id = 0;
};

void write_responses_file(const std::string& path,
                          std::vector<CapturedResponse> captured) {
  std::sort(captured.begin(), captured.end(),
            [](const CapturedResponse& a, const CapturedResponse& b) {
              return a.request_id < b.request_id;
            });
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  CLEAR_CHECK_MSG(out.good(),
                  "loadgen cannot open responses file '" << path << "'");
  for (const CapturedResponse& r : captured) {
    out << "req=" << r.request_id << " user=" << r.user_id
        << " shed=" << (r.shed ? 1 : 0) << " pred=" << r.predicted
        << " prob=" << std::hex << std::setw(8) << std::setfill('0')
        << r.prob_bits << std::dec << std::setfill(' ')
        << " route=" << r.route_kind << ":" << r.route_id << "\n";
  }
  out.flush();
  CLEAR_CHECK_MSG(out.good(),
                  "loadgen failed writing responses file '" << path << "'");
}

void flush_conn(LoadConn& conn) {
  while (conn.outpos < conn.outbuf.size()) {
    const IoResult r = conn.stream.write_some(
        conn.outbuf.data() + conn.outpos, conn.outbuf.size() - conn.outpos);
    if (r.n > 0) {
      conn.outpos += r.n;
      continue;
    }
    if (r.closed) {
      conn.dead = true;
      conn.stream.close();
    }
    break;  // would_block (or dead): try again next loop.
  }
  if (conn.outpos >= conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.outpos = 0;
  } else if (conn.outpos > conn.outbuf.size() / 2) {
    conn.outbuf.erase(0, conn.outpos);
    conn.outpos = 0;
  }
}

}  // namespace

std::uint64_t scheduled_arrival_us(const LoadgenConfig& config,
                                   std::size_t index) {
  double t = 0.0;
  for (std::size_t i = 0; i <= index; ++i) t += schedule_gap_us(config, i);
  return static_cast<std::uint64_t>(t);
}

std::string LoadgenReport::json(const LoadgenConfig& config) const {
  std::ostringstream out;
  out.precision(6);
  out << std::fixed;
  out << "{\n";
  out << "  \"schema\": \"clear-bench-loadgen-v1\",\n";
  out << "  \"config\": {\"connections\": " << config.connections
      << ", \"requests\": " << config.requests << ", \"rate_rps\": "
      << config.rate_rps << ", \"burstiness\": " << config.burstiness
      << ", \"seed\": " << config.seed << ", \"users\": " << config.users
      << "},\n";
  out << "  \"sent\": " << sent << ",\n";
  out << "  \"received\": " << received << ",\n";
  out << "  \"ok\": " << ok << ",\n";
  out << "  \"shed\": " << shed << ",\n";
  out << "  \"dropped\": " << dropped << ",\n";
  out << "  \"wall_seconds\": " << wall_seconds << ",\n";
  out << "  \"offered_rps\": " << offered_rps << ",\n";
  out << "  \"achieved_rps\": " << achieved_rps << ",\n";
  out << "  \"latency_us\": {\"p50\": " << latency.p50_us << ", \"p90\": "
      << latency.p90_us << ", \"p99\": " << latency.p99_us << ", \"p999\": "
      << latency.p999_us << ", \"max\": " << latency.max_us << ", \"mean\": "
      << latency.mean_us << "},\n";
  // Machine-portable gate quantities: fractions, not microseconds.
  const double achieved_ratio =
      offered_rps > 0.0 ? achieved_rps / offered_rps : 0.0;
  const double answered =
      sent > 0 ? static_cast<double>(received) / static_cast<double>(sent)
               : 0.0;
  const double ok_fraction =
      received > 0 ? static_cast<double>(ok) / static_cast<double>(received)
                   : 0.0;
  out << "  \"ratios\": {\"achieved_ratio\": " << achieved_ratio
      << ", \"answered_fraction\": " << answered << ", \"ok_fraction\": "
      << ok_fraction << "}\n";
  out << "}\n";
  return out.str();
}

LoadgenReport run_loadgen(const LoadgenConfig& config) {
  CLEAR_OBS_SPAN("net.loadgen");
  CLEAR_CHECK_MSG(config.connections >= 1, "loadgen needs >= 1 connection");
  CLEAR_CHECK_MSG(config.requests >= 1, "loadgen needs >= 1 request");
  CLEAR_CHECK_MSG(config.rate_rps > 0.0, "loadgen rate must be positive");

  using Clock = std::chrono::steady_clock;
  LoadgenReport report;
  report.offered_rps = config.rate_rps;

  std::vector<std::unique_ptr<LoadConn>> conns;
  conns.reserve(config.connections);
  for (std::size_t i = 0; i < config.connections; ++i) {
    auto conn = std::make_unique<LoadConn>();
    // Stream ids offset by 1000 so loadgen fault decisions do not collide
    // with the server's connection ids under one NetFaultSpec.
    conn->stream = FaultedStream(connect_tcp(config.target), 1000 + i);
    set_nonblocking(conn->stream.fd(), true);
    conns.push_back(std::move(conn));
  }

  // Scheduled virtual send time per request: one cumulative hash walk,
  // sharing scheduled_arrival_us's gap law (O(n) total, not O(n^2) calls).
  // With start_index set, the walk covers the skipped prefix too, so
  // request start_index + i carries the *absolute* virtual arrival it would
  // have had in an uninterrupted run — the served virtual clock continues,
  // while wall-clock pacing below is rebased so this run starts sending
  // immediately instead of waiting out the prefix.
  std::vector<std::uint64_t> schedule(config.requests);
  std::uint64_t pace_base_us = 0;
  {
    double t = 0.0;
    for (std::size_t i = 0; i < config.start_index; ++i)
      t += schedule_gap_us(config, i);
    pace_base_us = static_cast<std::uint64_t>(t);
    for (std::size_t i = 0; i < config.requests; ++i) {
      t += schedule_gap_us(config, config.start_index + i);
      schedule[i] = static_cast<std::uint64_t>(t);
    }
  }
  // Wall send offset of request i relative to loadgen start.
  const auto pace_us = [&schedule, pace_base_us](std::size_t i) {
    return schedule[i] - pace_base_us;
  };

  // request_id -> scheduled send wall-offset (us), for latency measurement.
  std::map<std::uint64_t, std::uint64_t> outstanding;
  std::vector<double> latencies;
  latencies.reserve(config.requests);
  std::vector<CapturedResponse> captured;
  if (!config.responses_path.empty()) captured.reserve(config.requests);

  const auto start = Clock::now();
  const auto elapsed_us = [&start]() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              start)
            .count());
  };
  const std::uint64_t timeout_us = static_cast<std::uint64_t>(
      std::max(0.0, config.timeout_seconds) * 1e6);

  std::size_t next_send = 0;
  bool drain_sent = false;
  std::uint64_t last_drain_us = 0;
  char buf[16 * 1024];
  Frame frame;

  while (true) {
    const std::uint64_t now_us = elapsed_us();

    // Send every request whose scheduled time has passed — regardless of
    // outstanding responses (open loop).
    while (next_send < config.requests && pace_us(next_send) <= now_us) {
      LoadConn& conn = *conns[next_send % conns.size()];
      const WireRequest request = make_request(
          config, config.start_index + next_send, schedule[next_send]);
      if (!conn.dead) {
        conn.outbuf += encode_request(request);
        outstanding[request.request_id] = pace_us(next_send);
        ++report.sent;
        CLEAR_OBS_COUNT("loadgen.sent", 1);
      } else {
        ++report.dropped;  // Its connection died; nobody will answer.
      }
      ++next_send;
    }
    // All sent: one drain flushes the server's trailing batches (virtual
    // time only advances on arrivals, so without this the tail would sit
    // in the batcher forever).
    // Re-drain every 250ms while responses are missing: a request that was
    // still in a connection's (or the kernel's) buffer when the previous
    // drain reached the server lands in the batcher *after* it, and only
    // another drain (or the server's deadline timer) will release it.
    if (next_send == config.requests && !outstanding.empty() &&
        (!drain_sent || now_us - last_drain_us > 250000)) {
      bool sent_one = false;
      for (auto& conn : conns)
        if (!conn->dead) {
          conn->outbuf += encode_drain();
          sent_one = true;
          break;
        }
      if (!sent_one) break;  // Every connection is dead.
      drain_sent = true;
      last_drain_us = now_us;
    }

    for (auto& conn : conns)
      if (!conn->dead && !conn->outbuf.empty()) flush_conn(*conn);

    if (outstanding.empty() && next_send == config.requests) break;
    if (now_us > timeout_us) {
      CLEAR_WARN("loadgen: timed out with " << outstanding.size()
                                            << " unanswered requests");
      break;
    }

    // Poll readable; wake in time for the next scheduled send.
    std::vector<pollfd> fds;
    fds.reserve(conns.size());
    for (auto& conn : conns) {
      if (conn->dead) continue;
      pollfd p{};
      p.fd = conn->stream.fd();
      p.events = POLLIN;
      if (!conn->outbuf.empty()) p.events |= POLLOUT;
      fds.push_back(p);
    }
    if (fds.empty()) break;
    int wait_ms = 20;
    if (next_send < config.requests) {
      const std::uint64_t target = pace_us(next_send);
      const std::uint64_t now2 = elapsed_us();
      wait_ms = target > now2
                    ? static_cast<int>(std::min<std::uint64_t>(
                          20, (target - now2) / 1000))
                    : 0;
    }
    ::poll(fds.data(), fds.size(), wait_ms);

    for (auto& conn : conns) {
      if (conn->dead) continue;
      while (true) {
        const IoResult r = conn->stream.read_some(buf, sizeof(buf));
        if (r.n > 0) {
          conn->decoder.feed(buf, r.n);
          continue;
        }
        if (r.closed) {
          conn->dead = true;
          conn->stream.close();
        }
        break;
      }
      while (conn->decoder.next(frame) == DecodeStatus::kFrame) {
        if (frame.type == FrameType::kDrainAck) continue;
        CLEAR_CHECK_MSG(frame.type == FrameType::kResponse,
                        "loadgen received unexpected frame type "
                            << frame_type_name(frame.type));
        WireResponse response;
        std::string error;
        CLEAR_CHECK_MSG(parse_response(frame, response, error),
                        "loadgen received bad response: " << error);
        const auto it = outstanding.find(response.request_id);
        if (it == outstanding.end()) continue;  // Duplicate or unknown.
        const std::uint64_t recv_us = elapsed_us();
        const double latency_us = static_cast<double>(
            recv_us > it->second ? recv_us - it->second : 0);
        outstanding.erase(it);
        latencies.push_back(latency_us);
        CLEAR_OBS_RECORD("loadgen.latency_us", latency_us);
        ++report.received;
        if (response.shed)
          ++report.shed;
        else
          ++report.ok;
        if (!config.responses_path.empty()) {
          CapturedResponse cap;
          cap.request_id = response.request_id;
          cap.user_id = response.user_id;
          cap.shed = response.shed;
          cap.predicted = response.predicted;
          std::memcpy(&cap.prob_bits, &response.fear_probability,
                      sizeof(cap.prob_bits));
          cap.route_kind = response.route_kind;
          cap.route_id = response.route_id;
          captured.push_back(cap);
        }
      }
      if (!conn->decoder.error().empty())
        CLEAR_CHECK_MSG(false, "loadgen wire error: " << conn->decoder.error());
    }
  }

  if (config.shutdown_after) {
    for (auto& conn : conns) {
      if (conn->dead) continue;
      conn->outbuf += encode_shutdown();
      // Best-effort blocking-ish flush; the server exits once it reads it.
      set_nonblocking(conn->stream.fd(), false);
      flush_conn(*conn);
      break;
    }
  }
  for (auto& conn : conns) conn->stream.close();

  if (!config.responses_path.empty())
    write_responses_file(config.responses_path, std::move(captured));

  report.dropped += outstanding.size();
  report.wall_seconds =
      static_cast<double>(elapsed_us()) / 1e6;
  report.achieved_rps = report.wall_seconds > 0.0
                            ? static_cast<double>(report.received) /
                                  report.wall_seconds
                            : 0.0;
  std::sort(latencies.begin(), latencies.end());
  report.latency.p50_us = exact_percentile(latencies, 0.50);
  report.latency.p90_us = exact_percentile(latencies, 0.90);
  report.latency.p99_us = exact_percentile(latencies, 0.99);
  report.latency.p999_us = exact_percentile(latencies, 0.999);
  report.latency.max_us = latencies.empty() ? 0.0 : latencies.back();
  double sum = 0.0;
  for (const double v : latencies) sum += v;
  report.latency.mean_us =
      latencies.empty() ? 0.0 : sum / static_cast<double>(latencies.size());
  return report;
}

}  // namespace clear::net
