// Open-loop traffic generator: one thread, one connection.
//
// Every request has a due time fixed before the phase starts; the generator
// hands it to the socket at that time whether or not earlier requests were
// answered, so a stalled server shows as latency on every later request
// instead of as a slower send rate. Requests are encoded with the public
// wire codec at send time and responses are decoded as they arrive, each
// stamped with the wall time of the read that delivered it.
//
// The generator's own lateness (enqueue time minus due time) is recorded
// per request: when it is large, the run measured the generator, not the
// server, and is invalid.
#pragma once

#include <chrono>
#include <ctime>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/protocol.hpp"

namespace perfbench {

namespace net = clear::net;
using Clock = std::chrono::steady_clock;

/// Clocks read at a segment boundary.
struct Mark {
  double serving_cpu_s = 0.0;  ///< Every thread but the generator's.
  /// Host-wide CPU time (/proc/stat, all cores, in clock ticks) and the part
  /// of it the hypervisor stole from this machine.
  std::uint64_t host_ticks = 0;
  std::uint64_t stolen_ticks = 0;
};

struct PhaseResult {
  /// Per request, in schedule order: enqueue minus due (ms).
  std::vector<double> lag_ms;
  /// Per request: response receipt from phase start (ms); < 0 unanswered.
  std::vector<double> recv_ms;
  std::vector<net::WireResponse> responses;  ///< Per request.
  std::size_t unknown = 0;     ///< Responses naming no request sent.
  std::size_t duplicates = 0;  ///< Second responses to one request.
  double encode_us = 0.0;      ///< Total time in encode_request.
  double decode_us = 0.0;      ///< Total time decoding response frames.
  /// Read when each segment's first request is sent, and once at the end.
  std::vector<Mark> marks;
};

/// Send `requests` on `fd` (a connected TCP socket) at `due_ns` offsets from
/// `start`, then a kDrain frame, and collect responses until every request
/// is answered or `patience` passes after the last due time. `due_ns` must
/// be nondecreasing. `segment_starts` (ascending request indices) mark where
/// the serving side's CPU clock is read. `window` > 0 also holds a request
/// back while that many are unanswered (an untimed warm-up's pacing).
PhaseResult run_phase(int fd, const std::vector<net::WireRequest>& requests,
                      const std::vector<std::int64_t>& due_ns,
                      Clock::time_point start, Clock::duration patience,
                      const std::vector<std::size_t>& segment_starts = {},
                      std::size_t window = 0);

/// Seconds on a CPU-time clock (CLOCK_PROCESS_CPUTIME_ID, a thread's).
double cpu_s(clockid_t clock);

/// The serving side's CPU (the whole process minus the calling thread, the
/// generator) and the host's tick counts, now.
Mark mark_now();

/// Send kShutdown and wait (bounded) for the peer to acknowledge or close.
void send_shutdown(int fd);

}  // namespace perfbench
