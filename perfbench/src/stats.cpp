#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <tuple>

namespace perfbench {

double percentile(std::vector<double> samples, double q,
                  const std::string& what) {
  if (!(q > 0.0 && q < 1.0))
    throw std::runtime_error(what + ": percentile rank must lie in (0, 1)");
  const std::size_t n = samples.size();
  // 1-based nearest rank; the samples strictly after it are the tail.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  if (n == 0 || rank == 0 || n - rank < kMinTail)
    throw std::runtime_error(
        what + ": " + std::to_string(n) + " samples leave " +
        std::to_string(n == 0 ? 0 : n - std::max<std::size_t>(rank, 1)) +
        " beyond the percentile; at least " + std::to_string(kMinTail) +
        " are required");
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::runtime_error("median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<std::size_t> segment_starts(std::size_t n, std::size_t min_size,
                                        std::size_t max_segments) {
  if (min_size == 0 || n < min_size)
    throw std::runtime_error(std::to_string(n) + " requests cannot fill one " +
                             std::to_string(min_size) + "-request segment");
  const std::size_t count = std::min(max_segments, n / min_size);
  std::vector<std::size_t> starts;
  for (std::size_t k = 0; k < count; ++k) starts.push_back(k * n / count);
  return starts;
}

std::vector<double> time_to_personal(const std::vector<UserSample>& samples) {
  struct Span {
    double first_due = kMiss;
    double first_personal = kMiss;
  };
  std::map<std::uint64_t, Span> users;
  for (const UserSample& s : samples) {
    Span& span = users[s.user];
    span.first_due = std::min(span.first_due, s.due_ms);
    if (s.personal && std::isfinite(s.recv_ms))
      span.first_personal = std::min(span.first_personal, s.recv_ms);
  }
  std::vector<double> out;
  out.reserve(users.size());
  for (const auto& [user, span] : users)
    out.push_back(std::isfinite(span.first_personal)
                      ? span.first_personal - span.first_due
                      : kMiss);
  return out;
}

namespace {

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 0x100000001b3ull;
    }
  }
};

}  // namespace

std::uint64_t output_digest(std::vector<OutputRecord> records) {
  std::sort(records.begin(), records.end(),
            [](const OutputRecord& a, const OutputRecord& b) {
              return std::tie(a.user, a.request) < std::tie(b.user, b.request);
            });
  Fnv f;
  for (const OutputRecord& r : records) {
    f.add(r.user, 8);
    f.add(r.request, 8);
    f.add(r.shed ? 1 : 0, 1);
    f.add(static_cast<std::uint32_t>(r.predicted), 4);
    f.add(r.probability_bits, 4);
    f.add(r.route_kind, 4);
    f.add(r.route_id, 8);
  }
  return f.h;
}

}  // namespace perfbench
