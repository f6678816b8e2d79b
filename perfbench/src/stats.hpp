// Metric arithmetic for the CLEAR-Serve benchmark: tail-safe percentiles,
// failures counted as misses, time-to-personal per user, and the output
// digest that proves the wire answered exactly what the library path does.
//
// Everything here is pure (no clocks, no sockets) so selftest.cpp can pin
// the rules the benchmark's numbers rest on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

/// A sample that missed every limit: a shed or unanswered request, or a
/// user that never reached their personal engine.
inline constexpr double kMiss = std::numeric_limits<double>::infinity();

/// Fewest samples that must lie beyond a reported percentile.
inline constexpr std::size_t kMinTail = 10;

/// Nearest-rank percentile (q in (0, 1)) of `samples`, misses included as
/// +inf. Throws std::runtime_error naming `what` when fewer than kMinTail
/// samples lie beyond the percentile's rank — such a "p99" is the max in
/// disguise. A result of kMiss means the percentile itself missed.
double percentile(std::vector<double> samples, double q,
                  const std::string& what);

/// Median of finitely many values (throws on an empty input); used for
/// repeated timings inside one run, where no tail rule applies.
double median(std::vector<double> values);

/// Start indices of the equal contiguous segments a phase of `n` requests
/// splits into: as many as keep at least `min_size` requests in each, up to
/// `max_segments`. Timings are reported as the median over segments, so a
/// burst of host noise spoils one segment instead of the run. Throws when
/// `n < min_size`.
std::vector<std::size_t> segment_starts(std::size_t n, std::size_t min_size,
                                        std::size_t max_segments);

/// One request as the time-to-personal computation sees it.
struct UserSample {
  std::uint64_t user = 0;
  double due_ms = 0.0;   ///< Scheduled send, from phase start.
  double recv_ms = kMiss;  ///< Response received; kMiss when unanswered.
  bool personal = false;   ///< Served by the user's own engine.
};

/// Per user (ascending id): time from the user's first scheduled send to
/// the first response served by their personal engine, or kMiss when no
/// such response arrived.
std::vector<double> time_to_personal(const std::vector<UserSample>& samples);

/// The deterministic fields of one response (batch_rows and exec_us are
/// timing-dependent on the wire and deliberately left out).
struct OutputRecord {
  std::uint64_t user = 0;
  std::uint64_t request = 0;
  bool shed = false;
  std::int32_t predicted = -1;
  std::uint32_t probability_bits = 0;
  std::uint32_t route_kind = 0;
  std::uint64_t route_id = 0;
};

/// Order-independent digest: records sorted by (user, request), then
/// FNV-1a over every field.
std::uint64_t output_digest(std::vector<OutputRecord> records);

}  // namespace perfbench
