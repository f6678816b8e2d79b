// perfbench — the CLEAR-Serve benchmark (README.md in this directory).
//
//   perfbench --workload steady|onboard|fleet --seed N --seconds S
//             --trace 0|1 --work-dir DIR [--trace-out FILE]
//
// One run: set the workload up several times (setup_s is the median), keep
// the last set-up, drive its timed phase from the open-loop generator,
// shut the serving side down, and check every answer against an in-process
// replay of the same stream through serve::Server. An untraced run prints
// the end-to-end metrics; a traced run enables the obs registry, replays
// the stream at its pacing through Server::submit, probes each layer, and
// prints the per-layer metrics. The last stdout line is one JSON object.
#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/logging.hpp"
#include "common/obs.hpp"
#include "common/parallel.hpp"
#include "gen.hpp"
#include "layers.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

constexpr std::size_t kSetups = 5;
/// A generator later than one batching window (BatchPolicy::max_wait_us)
/// at p99 measured itself, not the server.
constexpr double kMaxSendLagMs = 2.0;
/// Warm-up requests in flight at once.
constexpr std::size_t kWarmWindow = 32;
/// Timed phases tried before a run is reported invalid.
constexpr int kAttempts = 3;
constexpr int kRecoveries = 3;
/// Latency and CPU are the median over segments of the timed phase; a
/// segment holds enough requests for its own p99 (10 beyond it).
constexpr std::size_t kMinSegment = 1000;
constexpr std::size_t kMaxSegments = 9;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_dir = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--work-dir") {
      a.work_dir = value;
      have_dir = true;
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else {
      throw std::runtime_error("unknown flag " + key);
    }
  }
  if (argc % 2 == 0 || !have_workload || !have_dir)
    throw std::runtime_error(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
        "--work-dir DIR [--trace-out FILE]");
  return a;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

clockid_t thread_clock(std::thread& t) {
  clockid_t id{};
  if (::pthread_getcpuclockid(t.native_handle(), &id) != 0)
    throw std::runtime_error("pthread_getcpuclockid failed");
  return id;
}

double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0, resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir))
    if (e.is_regular_file()) total += e.file_size();
  return total;
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir {
  explicit ScratchDir(fs::path p) : path(std::move(p)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  fs::path path;
};

struct Setup {
  Model model;
  Plan plan;
  serve::ServeConfig config;
  std::unique_ptr<Serving> serving;
  PhaseResult warm;
  double seconds = 0.0;
};

/// Dataset synthesis, cloud-stage fit, servers listening, warm-up.
std::unique_ptr<Setup> set_up(Workload w, const Args& a,
                              const std::string& journal_dir) {
  const Clock::time_point t0 = Clock::now();
  auto s = std::make_unique<Setup>();
  s->model = fit_model();
  s->plan = make_plan(w, s->model.dataset, a.seed, a.seconds);
  s->config = serve_config(w, s->model, journal_dir);
  s->serving = std::make_unique<Serving>(w, s->model, s->config);
  if (!s->plan.warm.empty()) {
    // Virtual arrivals drive batching, so the warm-up needs no schedule; a
    // bounded window keeps every loop's backlog short enough to answer the
    // coordinator's heartbeats.
    s->warm = run_phase(s->serving->fd, to_wire(s->plan.warm),
                        std::vector<std::int64_t>(s->plan.warm.size(), 0),
                        Clock::now(), std::chrono::seconds(60), {},
                        kWarmWindow);
    for (std::size_t i = 0; i < s->plan.warm.size(); ++i)
      if (s->warm.recv_ms[i] < 0 || s->warm.responses[i].shed)
        throw std::runtime_error("warm-up request failed");
  }
  s->seconds = seconds_since(t0);
  return s;
}

std::uint32_t float_bits(float f) {
  std::uint32_t u = 0;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

std::vector<OutputRecord> wire_records(const PhaseResult& p) {
  std::vector<OutputRecord> out;
  for (std::size_t i = 0; i < p.responses.size(); ++i) {
    if (p.recv_ms[i] < 0) continue;
    const net::WireResponse& r = p.responses[i];
    out.push_back({r.user_id, r.request_id, r.shed, r.predicted,
                   float_bits(r.fear_probability), r.route_kind, r.route_id});
  }
  return out;
}

std::vector<OutputRecord> library_records(
    const std::vector<serve::ServeResult>& results) {
  std::vector<OutputRecord> out;
  for (const serve::ServeResult& r : results)
    out.push_back({r.user_id, r.request_id,
                   r.status == serve::ServeResult::Status::kShed, r.predicted,
                   float_bits(r.fear_probability),
                   static_cast<std::uint32_t>(r.route.kind),
                   static_cast<std::uint64_t>(r.route.id)});
  return out;
}

/// Responses whose deterministic fields differ from the replay's answer to
/// the same request (or that the replay never gave).
std::size_t mismatches(const std::vector<OutputRecord>& wire,
                       const std::vector<OutputRecord>& replay) {
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> expect;
  for (const OutputRecord& r : replay)
    expect[{r.user, r.request}] = output_digest({r});
  std::size_t n = 0;
  for (const OutputRecord& r : wire) {
    const auto it = expect.find({r.user, r.request});
    n += it == expect.end() || it->second != output_digest({r});
  }
  return n;
}

struct Metric {
  double value;
  const char* unit;
};

std::string json_result(bool correct, std::size_t attempted,
                        std::size_t failed,
                        const std::map<std::string, Metric>& metrics) {
  std::ostringstream os;
  os.precision(12);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!std::isfinite(m.value))
      throw std::runtime_error("metric " + name + " is not finite");
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << m.value
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

/// One timed phase's raw measurements. CPU figures are seconds over the
/// phase; the serving side is every thread but the generator.
struct Timed {
  PhaseResult phase;
  double wall = 0.0;
  double proc_cpu = 0.0;
  double gen_cpu = 0.0;
  double loop_cpu = 0.0;   ///< Summed over the NetServer::run threads.
  double coord_cpu = 0.0;  ///< Coordinator::run thread (fleet).
  double resident_mb = 0.0;
};

/// The generator gets a core of its own for the timed phase: a thread it
/// shares a core with (a fine-tune on the event loop, say) would hold it off
/// for a whole time slice. Every thread the benchmark starts inherits the
/// set of the other cores from the main thread.
struct CoreSplit {
  cpu_set_t generator{}, serving{};
  bool active = false;

  CoreSplit() {
    cpu_set_t all;
    if (::sched_getaffinity(0, sizeof(all), &all) != 0 || CPU_COUNT(&all) < 2)
      return;
    int last = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &all)) last = c;
    serving = all;
    CPU_CLR(last, &serving);
    CPU_SET(last, &generator);
    active = true;
  }
  void use(const cpu_set_t& set) const {
    if (active) ::sched_setaffinity(0, sizeof(set), &set);
  }
};

Timed drive(Setup& s, const std::vector<std::size_t>& segments,
            const CoreSplit& cores) {
  Serving& serving = *s.serving;
  const std::vector<net::WireRequest> wire = to_wire(s.plan.timed);
  std::vector<clockid_t> loops;
  for (auto& node : serving.nodes) loops.push_back(thread_clock(node->thread));
  const bool fleet = serving.coordinator != nullptr;
  const clockid_t coord =
      fleet ? thread_clock(serving.coordinator_thread) : CLOCK_THREAD_CPUTIME_ID;
  const auto loop_total = [&] {
    double t = 0.0;
    for (const clockid_t c : loops) t += cpu_s(c);
    return t;
  };

  Timed t;
  const double loop0 = loop_total();
  const double coord0 = fleet ? cpu_s(coord) : 0.0;
  const double proc0 = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
  const double gen0 = cpu_s(CLOCK_THREAD_CPUTIME_ID);
  cores.use(cores.generator);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(50);
  t.phase = run_phase(serving.fd, wire, s.plan.due_ns, start,
                      std::chrono::seconds(20), segments);
  t.wall = seconds_since(start);
  cores.use(cores.serving);
  t.proc_cpu = cpu_s(CLOCK_PROCESS_CPUTIME_ID) - proc0;
  t.gen_cpu = cpu_s(CLOCK_THREAD_CPUTIME_ID) - gen0;
  t.loop_cpu = loop_total() - loop0;
  t.coord_cpu = fleet ? cpu_s(coord) - coord0 : 0.0;
  // Freed heap (earlier set-ups, transient buffers) goes back to the system
  // first, so the figure is memory in use rather than the allocator's
  // high-water mark.
  ::malloc_trim(0);
  t.resident_mb = rss_mb();
  return t;
}

/// Latency and CPU per segment of the timed phase. A segment in which the
/// generator ran late at p99 is invalid: it measured the generator. Of the
/// valid segments, the quieter half — least CPU time stolen from this
/// machine by its hypervisor — is kept: a steal burst stalls every thread,
/// so it measured the host.
struct Segments {
  std::vector<double> p50, p99, cpu_us;  ///< Kept segments.
  std::vector<double> lag_p99, stolen_frac;  ///< Every segment.
  std::size_t valid = 0;
};

Segments per_segment(const Timed& t, const std::vector<double>& latency_ms,
                     const std::vector<std::size_t>& starts) {
  const std::vector<Mark>& marks = t.phase.marks;
  if (marks.size() != starts.size() + 1)
    throw std::runtime_error("the timed phase ended before every send");
  const auto bounds = [&](std::size_t k) {
    return std::make_pair(starts[k], k + 1 < starts.size() ? starts[k + 1]
                                                           : latency_ms.size());
  };
  const auto slice = [](const std::vector<double>& v,
                        std::pair<std::size_t, std::size_t> b) {
    return std::vector<double>(v.begin() + static_cast<long>(b.first),
                               v.begin() + static_cast<long>(b.second));
  };
  Segments out;
  std::vector<std::size_t> kept;
  for (std::size_t k = 0; k < starts.size(); ++k) {
    out.lag_p99.push_back(percentile(slice(t.phase.lag_ms, bounds(k)), 0.99,
                                     "gen.send_lag_p99_ms"));
    const double ticks = static_cast<double>(marks[k + 1].host_ticks -
                                             marks[k].host_ticks);
    out.stolen_frac.push_back(
        ticks > 0 ? static_cast<double>(marks[k + 1].stolen_ticks -
                                        marks[k].stolen_ticks) /
                        ticks
                  : 0.0);
    if (out.lag_p99.back() <= kMaxSendLagMs) kept.push_back(k);
  }
  out.valid = kept.size();
  std::stable_sort(kept.begin(), kept.end(), [&](std::size_t a, std::size_t b) {
    return out.stolen_frac[a] < out.stolen_frac[b];
  });
  kept.resize((kept.size() + 1) / 2);
  for (const std::size_t k : kept) {
    const auto b = bounds(k);
    const std::vector<double> part = slice(latency_ms, b);
    out.p50.push_back(percentile(part, 0.50, "latency_p50_ms"));
    out.p99.push_back(percentile(part, 0.99, "latency_p99_ms"));
    out.cpu_us.push_back(1e6 * (marks[k + 1].serving_cpu_s -
                                marks[k].serving_cpu_s) /
                         static_cast<double>(b.second - b.first));
  }
  return out;
}

/// Wall time from each request's due time to its answer; a shed or
/// unanswered request is a miss.
std::vector<double> latencies(const Plan& plan, const PhaseResult& p) {
  std::vector<double> out(plan.timed.size(), kMiss);
  for (std::size_t i = 0; i < out.size(); ++i)
    if (p.recv_ms[i] >= 0 && !p.responses[i].shed)
      out[i] = p.recv_ms[i] - 1e-6 * static_cast<double>(plan.due_ns[i]);
  return out;
}

int run(const Args& a) {
  const Workload w = parse_workload(a.workload);
  log::set_level(log::Level::kWarn);
  // Serial runtime, as `clear-cli serve` runs by default: no pool, so the
  // fleet's shards share none, and threads stay within four cores
  // (generator + event loop, or generator + coordinator + two shard loops).
  // Pool wake-ups would also add the virtual-CPU wake latency of an idle
  // core to every parallel region.
  set_num_threads(1);
  const CoreSplit cores;
  cores.use(cores.serving);
  ScratchDir scratch(a.work_dir);
  std::ostream& err = std::cerr;

  // -- Set up several times (setup_s is the median), then drive the timed
  // phase from the last set-up. A phase whose generator ran late in more
  // than half its segments is thrown away and run again on a fresh set-up.
  std::vector<double> setup_s;
  std::unique_ptr<Setup> s;
  const auto fresh_setup = [&] {
    if (s) {
      s->serving->shutdown();
      s.reset();
    }
    s = set_up(w, a, (scratch.path / ("journal-" + std::to_string(setup_s.size())))
                         .string());
    setup_s.push_back(s->seconds);
  };
  for (std::size_t k = 0; k + 1 < kSetups; ++k) fresh_setup();
  if (a.trace) obs::reset();
  Timed timed;
  Segments seg;
  std::vector<double> latency_ms;
  std::vector<std::size_t> starts;
  for (int attempt = 1;; ++attempt) {
    fresh_setup();
    starts = segment_starts(s->plan.timed.size(), kMinSegment, kMaxSegments);
    obs::set_enabled(a.trace);
    timed = drive(*s, starts, cores);
    obs::set_enabled(false);
    latency_ms = latencies(s->plan, timed.phase);
    seg = per_segment(timed, latency_ms, starts);
    if (2 * seg.valid >= starts.size()) break;
    err << "INVALID attempt " << attempt << ": the generator ran late in "
        << starts.size() - seg.valid << " of " << starts.size()
        << " segments; it measured itself, not the server\n";
    if (attempt == kAttempts) return 3;
  }
  const Plan& plan = s->plan;
  const PhaseResult& phase = timed.phase;
  Serving& serving = *s->serving;
  const std::size_t n = plan.timed.size();

  // onboard: the crash image is the journal directory as a SIGKILL would
  // leave it — taken before shutdown writes its graceful snapshot.
  const fs::path crash = scratch.path / "crash";
  if (w == Workload::kOnboard)
    fs::copy(s->config.journal.directory, crash, fs::copy_options::recursive);
  serving.shutdown();

  // -- Outputs: accounting, then the digest against an in-process replay.
  std::size_t answered = 0, ok = 0;
  for (std::size_t i = 0; i < n; ++i) {
    answered += phase.recv_ms[i] >= 0;
    ok += std::isfinite(latency_ms[i]);
  }
  bool correct = answered == n && phase.unknown == 0 &&
                 phase.duplicates == 0 && s->warm.unknown == 0 &&
                 s->warm.duplicates == 0;
  if (!correct)
    err << "FAIL: " << n - answered << " of " << n
        << " timed requests unanswered, " << phase.unknown + s->warm.unknown
        << " unknown and " << phase.duplicates + s->warm.duplicates
        << " duplicate responses\n";

  serve::ServeConfig replay_config = s->config;
  if (w == Workload::kOnboard)
    replay_config.journal.directory = (scratch.path / "replay").string();
  serve::Server replay(s->model.source, replay_config);
  if (w == Workload::kOnboard) replay.open_journal();
  for (const serve::ServeRequest& r : plan.warm) replay.submit(r);
  replay.drain();
  // Traced runs pace the replay like the wire (so submit sees the same
  // cache and session churn per unit time) and time every submit.
  std::vector<double> submit_us;
  const Clock::time_point replay_start = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    serve::ServeRequest r = plan.timed[i];
    if (a.trace)
      std::this_thread::sleep_until(replay_start +
                                    std::chrono::nanoseconds(plan.due_ns[i]));
    const Clock::time_point t0 = Clock::now();
    replay.submit(std::move(r));
    submit_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  replay.drain();
  std::vector<OutputRecord> wire = wire_records(s->warm);
  for (const OutputRecord& r : wire_records(phase)) wire.push_back(r);
  const std::uint64_t wire_digest = output_digest(wire);
  const std::vector<serve::ServeResult> replay_results = replay.take_results();
  const std::uint64_t replay_digest =
      output_digest(library_records(replay_results));
  if (wire_digest != replay_digest) {
    correct = false;
    err << "FAIL: " << mismatches(wire, library_records(replay_results))
        << " of " << wire.size()
        << " responses differ from the in-process replay\n";
  }

  // -- onboard: time-to-personal, recovery of the crash image, bytes.
  std::vector<double> ttp;
  std::vector<double> recover_s;
  serve::RecoveryReport report;
  std::uint64_t live_sessions = 0;
  std::vector<std::uint64_t> personal_users;
  std::map<int, std::vector<double>> ckpt_bytes;
  double crash_bytes = 0.0;
  if (w == Workload::kOnboard) {
    std::vector<UserSample> samples;
    for (std::size_t i = 0; i < n; ++i)
      samples.push_back(
          {plan.timed[i].user_id, 1e-6 * static_cast<double>(plan.due_ns[i]),
           phase.recv_ms[i] < 0 ? kMiss : phase.recv_ms[i],
           phase.recv_ms[i] >= 0 && !phase.responses[i].shed &&
               phase.responses[i].route_kind ==
                   static_cast<std::uint32_t>(serve::BatchKey::Kind::kPersonal)});
    ttp = time_to_personal(samples);

    for (const serve::Session* session :
         serving.nodes[0]->server->sessions().sessions()) {
      ++live_sessions;
      if (session->state() == serve::SessionState::kPersonalized)
        personal_users.push_back(session->user_id());
    }
    for (const std::uint64_t u : personal_users)
      ckpt_bytes[static_cast<int>(u % 3)].push_back(static_cast<double>(
          serve::read_user_checkpoint(crash.string(), u).size()));
    crash_bytes = static_cast<double>(dir_bytes(crash));

    for (int k = 0; k < kRecoveries; ++k) {
      const fs::path dir = scratch.path / ("recover-" + std::to_string(k));
      fs::copy(crash, dir, fs::copy_options::recursive);
      serve::ServeConfig rc = s->config;
      rc.journal.directory = dir.string();
      const Clock::time_point t0 = Clock::now();
      serve::Server server(s->model.source, rc);
      report = server.recover();
      net::NetServer listening(server, net::NetServerConfig{});
      recover_s.push_back(seconds_since(t0));  // Accepting from here on.
    }
    if (report.records_replayed == 0 || report.sessions != live_sessions ||
        report.personalized != personal_users.size() ||
        report.personalized_expected != personal_users.size() ||
        report.session_fallbacks != 0) {
      correct = false;
      err << "FAIL: recovery restored " << report.sessions << "/"
          << live_sessions << " sessions and " << report.personalized << "/"
          << personal_users.size() << " personal engines ("
          << report.records_replayed << " records replayed)\n";
    }
  }

  // -- Metrics.
  const double p50 = median(seg.p50);
  const double p99 = median(seg.p99);
  if (!std::isfinite(p99))
    throw std::runtime_error("latency p99 is a miss: over 1% failed");
  std::size_t requests = 0, journal_bytes = 0, finetunes = 0, hits = 0,
              misses = 0;
  std::uint64_t wire_bytes = 0;
  for (const auto& node : serving.nodes) {
    const serve::ServeCounters& c = node->server->counters();
    requests += c.requests;
    journal_bytes += c.journal_bytes;
    finetunes += c.finetunes;
    hits += node->server->cache().stats().hits;
    misses += node->server->cache().stats().misses;
    wire_bytes += node->net->counters().bytes_in + node->net->counters().bytes_out;
  }
  const double lag_p99 = percentile(phase.lag_ms, 0.99, "gen.send_lag_p99_ms");

  err << "workload " << a.workload << " seed " << a.seed << ": " << n
      << " timed requests (" << ok << " ok, " << n - ok << " failed), "
      << plan.warm.size() << " warm-up; digest " << std::hex << wire_digest
      << " (replay " << replay_digest << ")" << std::dec << "\n"
      << "  latency p50 " << p50 << " ms, p99 " << p99 << " ms: median of the "
      << seg.p99.size() << " quietest of " << seg.valid << " valid segments of "
      << starts.size() << " (>= " << kMinSegment
      << " samples each; whole-phase p99 "
      << percentile(latency_ms, 0.99, "latency_p99_ms") << " ms)\n"
      << "  generator lag p99 " << lag_p99 << " ms; per segment lag ms / "
      << "stolen %:";
  for (std::size_t k = 0; k < starts.size(); ++k)
    err << " " << seg.lag_p99[k] << "/" << 100.0 * seg.stolen_frac[k];
  err << "\n"
      << "  setup";
  for (const double t : setup_s) err << " " << t;
  err << " s; serving cpu " << timed.proc_cpu - timed.gen_cpu << " s over "
      << timed.wall << " s; rss " << timed.resident_mb << " MiB; finetunes "
      << finetunes << "; cache " << hits << " hits, " << misses
      << " misses\n";
  if (w == Workload::kOnboard)
    err << "  " << ttp.size() << " users, " << personal_users.size()
        << " personalized; recovery: " << report.sessions << " sessions, "
        << report.personalized << " personal engines, "
        << report.records_replayed << " records replayed\n";

  std::map<std::string, Metric> metrics;
  if (!a.trace) {
    metrics["setup_s"] = {median(setup_s), "s"};
    metrics["latency_p50_ms"] = {p50, "ms"};
    metrics["latency_p99_ms"] = {p99, "ms"};
    metrics["cpu_us_per_req"] = {median(seg.cpu_us), "us"};
    metrics["rss_mb"] = {timed.resident_mb, "MiB"};
  } else {
    LayerInputs in;
    in.model = &s->model;
    in.plan = &plan;
    for (std::size_t i = 0; i < n; ++i)
      if (phase.recv_ms[i] >= 0) in.responses.push_back(phase.responses[i]);
    if (w == Workload::kOnboard) {
      in.checkpoint_dir = crash.string();
      in.personal_users = personal_users;
    }
    for (const auto& [name, value] : probe_layers(in))
      metrics[name] = {value, "us"};

    const auto tier_mean = [&](int t) {
      const auto it = ckpt_bytes.find(t);
      if (it == ckpt_bytes.end()) return 0.0;
      double sum = 0.0;
      for (const double b : it->second) sum += b;
      return sum / static_cast<double>(it->second.size());
    };
    const auto frac = [](double part, double whole) {
      return whole > 0.0 ? part / whole : 0.0;
    };
    const double req = static_cast<double>(requests);
    double rows = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      if (std::isfinite(latency_ms[i])) rows += phase.responses[i].batch_rows;
    metrics["net.bytes_per_req"] = {static_cast<double>(wire_bytes) / req, "B"};
    metrics["net.loop_busy_frac"] = {
        frac(timed.loop_cpu,
             timed.wall * static_cast<double>(serving.nodes.size())),
        "frac"};
    metrics["serve.batch_rows_mean"] = {rows / static_cast<double>(ok), "rows"};
    metrics["serve.cache_hit_frac"] = {
        frac(static_cast<double>(hits), static_cast<double>(hits + misses)),
        "frac"};
    metrics["serve.submit_us_p50"] = {
        percentile(submit_us, 0.5, "serve.submit_us_p50"), "us"};
    metrics["serve.submit_us_p99"] = {
        percentile(submit_us, 0.99, "serve.submit_us_p99"), "us"};
    metrics["serve.finetunes"] = {static_cast<double>(finetunes), "count"};
    metrics["serve.journal_bytes_per_req"] = {
        static_cast<double>(journal_bytes) / req, "B"};
    metrics["serve.ckpt_bytes_per_user.fp32"] = {tier_mean(0), "B"};
    metrics["serve.ckpt_bytes_per_user.fp16"] = {tier_mean(1), "B"};
    metrics["serve.ckpt_bytes_per_user.int8"] = {tier_mean(2), "B"};
    metrics["serve.recovered_sessions"] = {
        static_cast<double>(report.sessions), "count"};
    metrics["serve.reattached_frac"] = {
        frac(static_cast<double>(report.personalized),
             static_cast<double>(report.personalized_expected)),
        "frac"};
    if (serving.coordinator) {
      metrics["shard.coord_busy_frac"] = {frac(timed.coord_cpu, timed.wall),
                                          "frac"};
      metrics["shard.queued"] = {
          static_cast<double>(serving.coordinator->counters().queued),
          "count"};
    }
    metrics["parallel.worker_cpu_frac"] = {
        frac(std::max(0.0, timed.proc_cpu - timed.gen_cpu - timed.loop_cpu -
                               timed.coord_cpu),
             timed.wall),
        "frac"};
    metrics["gen.send_lag_p99_ms"] = {lag_p99, "ms"};
    metrics["gen.codec_us_per_req"] = {
        (phase.encode_us + phase.decode_us) / static_cast<double>(n), "us"};
    metrics["traced.latency_p50_ms"] = {p50, "ms"};
    metrics["ttp_p50_ms"] = {
        ttp.empty() ? 0.0 : percentile(ttp, 0.5, "ttp_p50_ms"), "ms"};
    metrics["ttp_p90_ms"] = {
        ttp.empty() ? 0.0 : percentile(ttp, 0.9, "ttp_p90_ms"), "ms"};
    metrics["recover_s"] = {recover_s.empty() ? 0.0 : median(recover_s), "s"};
    metrics["bytes_per_user"] = {
        frac(crash_bytes, static_cast<double>(personal_users.size())), "B"};
    if (!a.trace_out.empty()) {
      std::ofstream out(a.trace_out, std::ios::trunc);
      out << obs::snapshot_json();
    }
  }
  std::cout << json_result(correct, n, n - ok, metrics) << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
