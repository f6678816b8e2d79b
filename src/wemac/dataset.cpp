#include "wemac/dataset.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "features/feature_map.hpp"
#include "tensor/serialize.hpp"
#include "wemac/archetype.hpp"

namespace clear::wemac {

std::string WemacConfig::cache_key() const {
  // kGeneratorVersion must be bumped whenever the synthesis code or the
  // archetype tables change, so stale caches are never reused.
  constexpr int kGeneratorVersion = 10;
  std::ostringstream os;
  os << "v" << kGeneratorVersion << "_s" << seed << "_n" << n_volunteers
     << "_t" << trials_per_volunteer
     << "_w" << windows_per_trial << "_sec" << window_seconds << "_ff"
     << fear_fraction << "_r" << rates.bvp_hz << "-" << rates.gsr_hz << "-"
     << rates.skt_hz;
  return os.str();
}

WemacDataset::WemacDataset(WemacConfig config,
                           std::vector<VolunteerMeta> volunteers,
                           std::vector<Sample> samples)
    : config_(std::move(config)),
      volunteers_(std::move(volunteers)),
      samples_(std::move(samples)) {
  build_index();
}

void WemacDataset::build_index() {
  by_volunteer_.assign(volunteers_.size(), {});
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const std::size_t v = samples_[i].volunteer_id;
    CLEAR_CHECK_MSG(v < volunteers_.size(), "sample has invalid volunteer id");
    by_volunteer_[v].push_back(i);
  }
}

const std::vector<std::size_t>& WemacDataset::samples_of(
    std::size_t volunteer_id) const {
  CLEAR_CHECK_MSG(volunteer_id < by_volunteer_.size(),
                  "volunteer id out of range");
  return by_volunteer_[volunteer_id];
}

std::size_t WemacDataset::feature_dim() const {
  CLEAR_CHECK_MSG(!samples_.empty(), "empty dataset");
  return samples_.front().feature_map.extent(0);
}

namespace {

/// Inject faults into one channel and repair it the way an edge device
/// would: hold-last gap fill plus clamping to rails derived from the clean
/// signal's range (legitimate dynamics survive, saturation and spikes get
/// pinned back). Called only when the spec can fire, so the clean path is
/// byte-for-byte the historical generator.
void fault_and_sanitize(std::vector<double>& signal, double rate_hz,
                        std::uint64_t stream_id,
                        const fault::FaultSpec& faults,
                        fault::FaultStats* stats) {
  double lo = signal.empty() ? 0.0 : signal[0];
  double hi = lo;
  for (const double v : signal) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double margin = 0.5 * std::max(hi - lo, 1e-9);
  const fault::FaultStats s = fault::inject(signal, rate_hz, stream_id, faults);
  if (stats) stats->merge(s);
  fault::sanitize(signal, fault::GapFill::kHoldLast, lo - margin, hi + margin);
}

WemacDataset generate_wemac_impl(const WemacConfig& config,
                                 const fault::FaultSpec* faults,
                                 fault::FaultStats* stats) {
  CLEAR_CHECK_MSG(config.n_volunteers >= kNumArchetypes,
                  "need at least one volunteer per archetype");
  const auto& archetypes = default_archetypes();
  const auto& weights = default_archetype_weights();
  Rng master(config.seed);

  // Assign archetypes: guarantee each archetype at least one member, then
  // fill the rest by weighted sampling, so cluster structure always exists.
  std::vector<std::size_t> assignment(config.n_volunteers);
  for (std::size_t a = 0; a < kNumArchetypes; ++a) assignment[a] = a;
  const std::vector<double> w(weights.begin(), weights.end());
  for (std::size_t v = kNumArchetypes; v < config.n_volunteers; ++v)
    assignment[v] = master.categorical(w);
  // Shuffle so volunteer id carries no archetype information.
  const std::vector<std::size_t> perm = master.permutation(config.n_volunteers);
  std::vector<std::size_t> shuffled(config.n_volunteers);
  for (std::size_t v = 0; v < config.n_volunteers; ++v)
    shuffled[v] = assignment[perm[v]];

  std::vector<VolunteerMeta> volunteers;
  std::vector<Sample> samples;
  volunteers.reserve(config.n_volunteers);
  samples.reserve(config.n_volunteers * config.trials_per_volunteer);

  for (std::size_t v = 0; v < config.n_volunteers; ++v) {
    Rng vol_rng = master.fork(1000 + v);
    const std::size_t arch = shuffled[v];
    VolunteerMeta meta;
    meta.id = v;
    meta.archetype_id = arch;
    meta.profile = sample_profile(archetypes[arch], v, arch, vol_rng);
    const std::vector<Stimulus> schedule =
        make_schedule(config.trials_per_volunteer, config.fear_fraction,
                      config.trial_seconds(), vol_rng);
    for (std::size_t trial = 0; trial < schedule.size(); ++trial) {
      Rng trial_rng = vol_rng.fork(77000 + trial);
      TrialSignals signals = synthesize_trial(
          meta.profile, schedule[trial], config.rates, trial_rng);
      if (faults != nullptr && faults->any()) {
        // Stream ids mix (volunteer, trial, channel) so every channel of
        // every trial draws independent fault decisions from one spec.
        fault_and_sanitize(signals.bvp, config.rates.bvp_hz,
                           fault::mix(0x57454D, v, trial, 1), *faults, stats);
        fault_and_sanitize(signals.gsr, config.rates.gsr_hz,
                           fault::mix(0x57454D, v, trial, 2), *faults, stats);
        fault_and_sanitize(signals.skt, config.rates.skt_hz,
                           fault::mix(0x57454D, v, trial, 3), *faults, stats);
      }
      const std::vector<features::PhysioWindow> windows =
          slice_windows(signals, config.window_seconds);
      CLEAR_CHECK_MSG(windows.size() >= config.windows_per_trial,
                      "trial produced too few windows");
      std::vector<std::vector<double>> columns;
      columns.reserve(config.windows_per_trial);
      for (std::size_t wdx = 0; wdx < config.windows_per_trial; ++wdx)
        columns.push_back(features::extract_window_features(windows[wdx]));
      Sample s;
      s.volunteer_id = v;
      s.trial_id = trial;
      s.emotion = schedule[trial].emotion;
      s.label = is_fear(schedule[trial].emotion) ? 1 : 0;
      s.feature_map = features::build_feature_map(columns);
      samples.push_back(std::move(s));
    }
    volunteers.push_back(std::move(meta));
  }
  return WemacDataset(config, std::move(volunteers), std::move(samples));
}

}  // namespace

WemacDataset generate_wemac(const WemacConfig& config) {
  return generate_wemac_impl(config, nullptr, nullptr);
}

WemacDataset generate_wemac(const WemacConfig& config,
                            const fault::FaultSpec& faults,
                            fault::FaultStats* stats) {
  return generate_wemac_impl(config, &faults, stats);
}

namespace {
constexpr std::uint64_t kDatasetMagic = 0x57454D4143763101ull;  // "WEMACv1".
constexpr std::size_t kProfileDoubles = 22;

void put_profile(bytes::Writer& w, const VolunteerProfile& p) {
  w.u64(p.volunteer_id);
  w.u64(p.archetype_id);
  for (const double v :
       {p.hr_base, p.hr_fear_delta, p.hr_arousal_delta, p.hrv_sd,
        p.hrv_fear_scale, p.resp_rate, p.bvp_amp, p.bvp_amp_fear_scale,
        p.scr_rate_base, p.scr_rate_fear, p.scr_amp, p.scr_amp_fear_scale,
        p.gsr_tonic, p.gsr_fear_slope, p.skt_base, p.skt_fear_drop,
        p.bvp_noise, p.gsr_noise, p.skt_noise, p.cardiac_gain, p.gsr_gain,
        p.skt_gain})
    w.f64(v);
}

VolunteerProfile get_profile(bytes::Reader& r) {
  VolunteerProfile p;
  p.volunteer_id = r.u64();
  p.archetype_id = r.u64();
  double* fields[kProfileDoubles] = {
      &p.hr_base,         &p.hr_fear_delta,     &p.hr_arousal_delta,
      &p.hrv_sd,          &p.hrv_fear_scale,    &p.resp_rate,
      &p.bvp_amp,         &p.bvp_amp_fear_scale, &p.scr_rate_base,
      &p.scr_rate_fear,   &p.scr_amp,           &p.scr_amp_fear_scale,
      &p.gsr_tonic,       &p.gsr_fear_slope,    &p.skt_base,
      &p.skt_fear_drop,   &p.bvp_noise,         &p.gsr_noise,
      &p.skt_noise,       &p.cardiac_gain,      &p.gsr_gain,
      &p.skt_gain};
  for (double* f : fields) *f = r.f64();
  return p;
}
}  // namespace

void save_dataset(const WemacDataset& dataset, const std::string& path) {
  bytes::Writer w;
  w.u64(kDatasetMagic);
  const std::string key = dataset.config().cache_key();
  w.u64(key.size());
  w.raw(key);
  const WemacConfig& c = dataset.config();
  w.u64(c.seed);
  w.u64(c.n_volunteers);
  w.u64(c.trials_per_volunteer);
  w.u64(c.windows_per_trial);
  w.f64(c.window_seconds);
  w.f64(c.fear_fraction);
  w.f64(c.rates.bvp_hz);
  w.f64(c.rates.gsr_hz);
  w.f64(c.rates.skt_hz);
  w.u64(dataset.volunteers().size());
  for (const VolunteerMeta& m : dataset.volunteers()) {
    w.u64(m.id);
    w.u64(m.archetype_id);
    put_profile(w, m.profile);
  }
  w.u64(dataset.samples().size());
  for (const Sample& s : dataset.samples()) {
    w.u64(s.volunteer_id);
    w.u64(s.trial_id);
    w.u64(static_cast<std::uint64_t>(s.emotion));
    w.u64(static_cast<std::uint64_t>(s.label));
    io::put_tensor(w, s.feature_map);
  }
  bytes::write_file_atomic(path, w.take(), "dataset");
}

WemacDataset load_dataset(const std::string& path) {
  const std::string file = bytes::read_file(path);
  CLEAR_CHECK_MSG(!file.empty(), "cannot open dataset file: " << path);
  bytes::Reader r(file, "dataset");
  CLEAR_CHECK_MSG(r.u64() == kDatasetMagic, "bad dataset magic");
  (void)r.bytes(r.u64());  // cache key (informational)
  WemacConfig c;
  c.seed = r.u64();
  c.n_volunteers = r.u64();
  c.trials_per_volunteer = r.u64();
  c.windows_per_trial = r.u64();
  c.window_seconds = r.f64();
  c.fear_fraction = r.f64();
  c.rates.bvp_hz = r.f64();
  c.rates.gsr_hz = r.f64();
  c.rates.skt_hz = r.f64();
  const std::uint64_t n_vol = r.u64();
  CLEAR_CHECK_MSG(n_vol == c.n_volunteers, "dataset volunteer count mismatch");
  std::vector<VolunteerMeta> volunteers(
      r.count(n_vol, 4 * sizeof(std::uint64_t) + kProfileDoubles * 8));
  for (auto& m : volunteers) {
    m.id = r.u64();
    m.archetype_id = r.u64();
    m.profile = get_profile(r);
  }
  // A sample is at least its four u64 fields plus a CTSR header.
  std::vector<Sample> samples(r.count(r.u64(), 4 * 8 + 16));
  for (auto& s : samples) {
    s.volunteer_id = r.u64();
    s.trial_id = r.u64();
    s.emotion = static_cast<Emotion>(r.u64());
    s.label = static_cast<int>(r.u64());
    s.feature_map = io::get_tensor(r);
  }
  r.expect_end();
  return WemacDataset(std::move(c), std::move(volunteers), std::move(samples));
}

WemacDataset generate_or_load(const WemacConfig& config,
                              const std::string& cache_dir) {
  namespace fs = std::filesystem;
  const fs::path dir(cache_dir);
  const fs::path file = dir / ("wemac_" + config.cache_key() + ".bin");
  if (fs::exists(file)) {
    try {
      WemacDataset d = load_dataset(file.string());
      CLEAR_INFO("loaded cached WEMAC features from " << file.string());
      return d;
    } catch (const Error& e) {
      CLEAR_WARN("dataset cache unreadable (" << e.what()
                                              << "); regenerating");
    }
  }
  WemacDataset d = generate_wemac(config);
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (!ec) {
    try {
      save_dataset(d, file.string());
      CLEAR_INFO("cached WEMAC features at " << file.string());
    } catch (const Error& e) {
      CLEAR_WARN("could not write dataset cache: " << e.what());
    }
  }
  return d;
}

}  // namespace clear::wemac
