// Tests of the benchmark's own metric code (run by `run.py --self-test`).
// Exits 0 when every check holds; prints each failure otherwise.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what.c_str());
    ++failures;
  }
}

bool throws(double q, std::size_t n) {
  try {
    percentile(std::vector<double>(n, 1.0), q, "test");
    return false;
  } catch (const std::runtime_error&) {
    return true;
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void percentiles_need_ten_samples_beyond() {
  check(throws(0.99, 999), "p99 of 999 samples (9 beyond) must be refused");
  check(!throws(0.99, 1000), "p99 of 1000 samples (10 beyond) is allowed");
  check(throws(0.90, 99), "p90 of 99 samples must be refused");
  check(!throws(0.90, 100), "p90 of 100 samples is allowed");
  check(throws(0.50, 19), "p50 of 19 samples must be refused");
  check(!throws(0.50, 20), "p50 of 20 samples is allowed");
  check(throws(0.50, 0), "a percentile of nothing must be refused");
  check(percentile(ramp(1000), 0.99, "t") == 990.0,
        "p99 of 1..1000 is the 990th value, leaving exactly 10 beyond");
  check(percentile(ramp(20), 0.5, "t") == 10.0, "p50 of 1..20 is 10");
}

void segments_keep_their_minimum() {
  const std::vector<std::size_t> s = segment_starts(5120, 1000, 9);
  check(s.size() == 5 && s[0] == 0 && s[1] == 1024 && s[4] == 4096,
        "5120 requests split into five segments of 1024");
  check(segment_starts(20000, 1000, 9).size() == 9, "at most nine segments");
  bool refused = false;
  try {
    segment_starts(999, 1000, 9);
  } catch (const std::runtime_error&) {
    refused = true;
  }
  check(refused, "fewer requests than one segment must be refused");
}

void failures_count_as_misses() {
  // 1000 fast answers, then fail 11 of them: more than 1% missed, so p99
  // itself is a miss however fast the answered requests were.
  std::vector<double> lat(1000, 1.0);
  check(percentile(lat, 0.99, "t") == 1.0, "all answered: p99 is 1 ms");
  for (std::size_t i = 0; i < 11; ++i) lat[i] = kMiss;
  check(std::isinf(percentile(lat, 0.99, "t")),
        "11 failures in 1000 requests push p99 to a miss");
  // Failures sit at the slow end: they move every percentile upward.
  std::vector<double> mixed = ramp(100);
  for (std::size_t i = 0; i < 50; ++i) mixed[i] = kMiss;
  check(percentile(mixed, 0.5, "t") == 100.0,
        "with half the requests failed, p50 is the slowest success");
}

void never_personalized_users_are_misses() {
  std::vector<UserSample> s;
  // user 1: first send at 0 ms, personal answer at 250 ms.
  s.push_back({1, 0.0, 5.0, false});
  s.push_back({1, 100.0, 250.0, true});
  s.push_back({1, 200.0, 260.0, true});
  // user 2: answered, never personal.
  s.push_back({2, 50.0, 55.0, false});
  // user 3: its personal request went unanswered.
  s.push_back({3, 10.0, kMiss, true});
  const std::vector<double> ttp = time_to_personal(s);
  check(ttp.size() == 3, "one time-to-personal per user");
  check(ttp.size() == 3 && ttp[0] == 250.0,
        "ttp runs from the first scheduled send to the first personal answer");
  check(ttp.size() == 3 && std::isinf(ttp[1]),
        "a user never served by a personal engine is a miss");
  check(ttp.size() == 3 && std::isinf(ttp[2]),
        "an unanswered personal request does not count as personalized");
}

void digest_rejects_one_flipped_probability_bit() {
  std::vector<OutputRecord> a;
  for (std::uint64_t u = 0; u < 50; ++u)
    for (std::uint64_t r = 0; r < 4; ++r)
      a.push_back({u, r, false, static_cast<std::int32_t>((u + r) % 2),
                   0x3F000000u + static_cast<std::uint32_t>(u * 7 + r), 1,
                   u % 4});
  std::vector<OutputRecord> shuffled(a.rbegin(), a.rend());
  check(output_digest(a) == output_digest(shuffled),
        "the digest does not depend on response order");
  for (std::uint32_t bit = 0; bit < 32; ++bit) {
    std::vector<OutputRecord> b = a;
    b[123].probability_bits ^= 1u << bit;
    check(output_digest(a) != output_digest(b),
          "flipping probability bit " + std::to_string(bit) +
              " changes the digest");
  }
  std::vector<OutputRecord> c = a;
  c[7].route_id ^= 1;
  check(output_digest(a) != output_digest(c), "a changed route is caught");
  c = a;
  c.pop_back();
  check(output_digest(a) != output_digest(c), "a missing response is caught");
}

}  // namespace

int main() {
  percentiles_need_ten_samples_beyond();
  segments_keep_their_minimum();
  failures_count_as_misses();
  never_personalized_users_are_misses();
  digest_rejects_one_flipped_probability_bit();
  if (failures) {
    std::printf("%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench self-test: all checks passed\n");
  return 0;
}
