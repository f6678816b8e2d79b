#include "serve/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <limits>
#include <sstream>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "tensor/serialize.hpp"

namespace clear::serve {

namespace fs = std::filesystem;

namespace {

// 8-byte file magics: a 6-byte prefix ("CLRWAL" for the log, "CLRSNP" for
// snapshots) plus two ASCII digits echoing the on-disk format version.
// Readers accept exactly kJournalFormatVersion and refuse any other version
// at the header with an error that names it.
constexpr char kJournalMagicPrefix[6] = {'C', 'L', 'R', 'W', 'A', 'L'};
constexpr char kSnapshotMagicPrefix[6] = {'C', 'L', 'R', 'S', 'N', 'P'};
constexpr std::uint64_t kFormatVersion = kJournalFormatVersion;
/// Sanity cap on one record's payload: a labelled 17x6 map is ~500 bytes,
/// so anything near this is a corrupt length field, not a real record.
constexpr std::uint32_t kMaxRecordBytes = 16u << 20;

void put_point(bytes::Writer& w, const cluster::Point& p) {
  w.u64(p.size());
  for (const double v : p) w.f64(v);
}

cluster::Point get_point(bytes::Reader& r) {
  cluster::Point p(r.count(r.u64(), sizeof(double)));
  for (double& v : p) v = r.f64();
  return p;
}

SessionState get_state(bytes::Reader& r) {
  const std::uint64_t raw = r.u64();
  CLEAR_CHECK_MSG(raw <= static_cast<std::uint64_t>(SessionState::kShadowing),
                  "invalid session state " << raw);
  return static_cast<SessionState>(raw);
}

void put_record(bytes::Writer& w, const JournalRecord& r) {
  w.u64(r.seq);
  w.u64(static_cast<std::uint64_t>(r.type));
  w.u64(r.user_id);
  switch (r.type) {
    case RecordType::kRequest:
      w.u64(r.time_us);
      w.f64(r.quality);
      break;
    case RecordType::kObservation:
      put_point(w, r.point);
      break;
    case RecordType::kAssign:
      w.u64(r.cluster);
      break;
    case RecordType::kLabelled:
      w.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(r.label)));
      io::put_tensor(w, r.map);
      break;
    case RecordType::kFinetune:
      w.u64(r.ckpt_bytes);
      w.u64(r.ckpt_crc);
      break;
    case RecordType::kFinetuneAbort:
      break;
    case RecordType::kShed:
      w.u64((r.shed_charged ? 1u : 0u) | (r.shed_unadmitted ? 2u : 0u));
      break;
    case RecordType::kPredict:
      w.u64(r.time_us);
      break;
    case RecordType::kDriftTick:
      w.u64(r.drifting ? 1u : 0u);
      break;
    case RecordType::kReassessObs:
      put_point(w, r.point);
      break;
    case RecordType::kReassign:
    case RecordType::kPromote:
      w.u64(r.cluster);
      break;
    case RecordType::kShadowTick:
      w.u64(r.shadow_won ? 1u : 0u);
      break;
    case RecordType::kDemote:
      break;
    case RecordType::kUnknown:
      CLEAR_CHECK_MSG(false, "kUnknown is a read-side sentinel, never written");
      break;
  }
}

JournalRecord decode_record(std::string_view payload) {
  bytes::Reader r(payload, "journal record");
  JournalRecord rec;
  rec.seq = r.u64();
  const std::uint64_t type = r.u64();
  if (type < 1 || type > static_cast<std::uint64_t>(RecordType::kDemote)) {
    // A CRC-intact frame of a kind this reader does not know (written by a
    // newer format). The (seq, type, user_id) prefix is stable across
    // versions, so the session it names can be quarantined — keep reading
    // rather than distrusting every record after it.
    rec.type = RecordType::kUnknown;
    rec.raw_kind = type;
    rec.user_id = r.u64();
    return rec;
  }
  rec.type = static_cast<RecordType>(type);
  rec.user_id = r.u64();
  switch (rec.type) {
    case RecordType::kRequest:
      rec.time_us = r.u64();
      rec.quality = r.f64();
      break;
    case RecordType::kObservation:
      rec.point = get_point(r);
      break;
    case RecordType::kAssign:
      rec.cluster = r.u64();
      break;
    case RecordType::kLabelled:
      rec.label = static_cast<std::int32_t>(static_cast<std::int64_t>(r.u64()));
      rec.map = io::get_tensor(r);
      break;
    case RecordType::kFinetune:
      rec.ckpt_bytes = r.u64();
      rec.ckpt_crc = static_cast<std::uint32_t>(r.u64());
      break;
    case RecordType::kFinetuneAbort:
      break;
    case RecordType::kShed: {
      const std::uint64_t flags = r.u64();
      rec.shed_charged = (flags & 1) != 0;
      rec.shed_unadmitted = (flags & 2) != 0;
      break;
    }
    case RecordType::kPredict:
      rec.time_us = r.u64();
      break;
    case RecordType::kDriftTick:
      rec.drifting = r.u64() != 0;
      break;
    case RecordType::kReassessObs:
      rec.point = get_point(r);
      break;
    case RecordType::kReassign:
    case RecordType::kPromote:
      rec.cluster = r.u64();
      break;
    case RecordType::kShadowTick:
      rec.shadow_won = r.u64() != 0;
      break;
    case RecordType::kDemote:
      break;
    case RecordType::kUnknown:
      break;  // Handled above; unreachable.
  }
  return rec;
}

void put_image(bytes::Writer& w, const SessionImage& img) {
  w.u64(img.user_id);
  w.u64(static_cast<std::uint64_t>(img.state));
  w.u64(static_cast<std::uint64_t>(img.saved_state));
  w.u64(img.bad_streak);
  w.u64(img.good_streak);
  w.u64(img.cluster);
  w.u64(img.observations.size());
  for (const cluster::Point& p : img.observations) put_point(w, p);
  w.u64(img.labelled.size());
  for (const LabelledMap& m : img.labelled) {
    w.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(m.label)));
    io::put_tensor(w, m.map);
  }
  w.u64(img.finetune_enabled ? 1 : 0);
  w.u64(img.requests);
  w.u64(img.shed);
  w.u64(img.predictions);
  w.u64(img.first_arrival_us);
  w.u64(img.first_prediction_us.has_value() ? 1 : 0);
  w.u64(img.first_prediction_us.value_or(0));
  w.u64(img.has_personal ? 1 : 0);
  w.u64(img.drift_streak);
  w.u64(static_cast<std::uint64_t>(img.reassess_from));
  w.u64(img.candidate_cluster);
  w.u64(img.shadow_wins);
  w.u64(img.shadow_seen);
}

SessionImage get_image(bytes::Reader& r) {
  SessionImage img;
  img.user_id = r.u64();
  img.state = get_state(r);
  img.saved_state = get_state(r);
  img.bad_streak = r.u64();
  img.good_streak = r.u64();
  img.cluster = r.u64();
  img.observations.resize(r.count(r.u64(), sizeof(std::uint64_t)));
  for (cluster::Point& p : img.observations) p = get_point(r);
  // A labelled map is at least its label plus a CTSR header.
  img.labelled.resize(r.count(r.u64(), 8 + 16));
  for (LabelledMap& m : img.labelled) {
    m.label = static_cast<int>(static_cast<std::int64_t>(r.u64()));
    m.map = io::get_tensor(r);
  }
  img.finetune_enabled = r.u64() != 0;
  img.requests = r.u64();
  img.shed = r.u64();
  img.predictions = r.u64();
  img.first_arrival_us = r.u64();
  const bool has_first_pred = r.u64() != 0;
  const std::uint64_t first_pred = r.u64();
  if (has_first_pred) img.first_prediction_us = first_pred;
  img.has_personal = r.u64() != 0;
  img.drift_streak = r.u64();
  img.reassess_from = get_state(r);
  img.candidate_cluster = r.u64();
  img.shadow_wins = r.u64();
  img.shadow_seen = r.u64();
  return img;
}

void put_snapshot(bytes::Writer& w, const SnapshotData& data) {
  w.u64(data.last_seq);
  w.u64(data.last_arrival_us);
  w.u64(data.counters.requests);
  w.u64(data.counters.ok);
  w.u64(data.counters.shed);
  w.u64(data.counters.assignments);
  w.u64(data.counters.finetunes);
  w.u64(data.counters.finetune_failures);
  w.u64(data.counters.sanitized);
  w.u64(data.counters.degraded);
  w.u64(data.counters.recovered);
  w.u64(data.counters.drift_ticks);
  w.u64(data.counters.drift_detected);
  w.u64(data.counters.reassessments);
  w.u64(data.counters.drift_false_alarms);
  w.u64(data.counters.shadow_ticks);
  w.u64(data.counters.promotions);
  w.u64(data.counters.demotions);
  w.u64(data.sessions.size());
  for (const SessionImage& img : data.sessions) put_image(w, img);
}

SnapshotData decode_snapshot(std::string_view payload) {
  bytes::Reader r(payload, "snapshot payload");
  SnapshotData data;
  data.last_seq = r.u64();
  data.last_arrival_us = r.u64();
  data.counters.requests = r.u64();
  data.counters.ok = r.u64();
  data.counters.shed = r.u64();
  data.counters.assignments = r.u64();
  data.counters.finetunes = r.u64();
  data.counters.finetune_failures = r.u64();
  data.counters.sanitized = r.u64();
  data.counters.degraded = r.u64();
  data.counters.recovered = r.u64();
  data.counters.drift_ticks = r.u64();
  data.counters.drift_detected = r.u64();
  data.counters.reassessments = r.u64();
  data.counters.drift_false_alarms = r.u64();
  data.counters.shadow_ticks = r.u64();
  data.counters.promotions = r.u64();
  data.counters.demotions = r.u64();
  // A session image is at least its 21 fixed u64 fields.
  data.sessions.resize(r.count(r.u64(), 21 * sizeof(std::uint64_t)));
  for (SessionImage& img : data.sessions) img = get_image(r);
  return data;
}

/// Write every byte or throw (retrying EINTR); one call site per frame so a
/// record hits the kernel in a single write() whenever the OS allows.
void write_all(int fd, const char* data, std::size_t n, const char* what) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      CLEAR_CHECK_MSG(false, what << " failed: " << std::strerror(errno));
    }
    off += static_cast<std::size_t>(w);
  }
}

/// The 8-byte magic for a format version: 6-byte prefix + 2 ASCII digits.
std::string magic_bytes(const char (&prefix)[6], std::uint64_t version) {
  std::string m(prefix, sizeof(prefix));
  m.push_back(static_cast<char>('0' + (version / 10) % 10));
  m.push_back(static_cast<char>('0' + version % 10));
  return m;
}

std::string header_bytes(std::uint64_t version) {
  bytes::Writer h;
  h.raw(magic_bytes(kJournalMagicPrefix, version));
  h.u32(static_cast<std::uint32_t>(version));
  h.u32(0);  // Reserved; keeps the header at 16 bytes.
  return h.take();
}

/// The refusal for a file of another format version.
std::string unsupported_version(const std::string& file,
                                std::uint64_t version) {
  std::ostringstream os;
  os << file << " has unsupported format version " << version
     << " (this reader supports v" << kFormatVersion << ")";
  return os.str();
}

}  // namespace

const char* record_type_name(RecordType t) {
  switch (t) {
    case RecordType::kUnknown: return "unknown";
    case RecordType::kRequest: return "request";
    case RecordType::kObservation: return "observation";
    case RecordType::kAssign: return "assign";
    case RecordType::kLabelled: return "labelled";
    case RecordType::kFinetune: return "finetune";
    case RecordType::kFinetuneAbort: return "finetune_abort";
    case RecordType::kShed: return "shed";
    case RecordType::kPredict: return "predict";
    case RecordType::kDriftTick: return "drift_tick";
    case RecordType::kReassessObs: return "reassess_obs";
    case RecordType::kReassign: return "reassign";
    case RecordType::kShadowTick: return "shadow_tick";
    case RecordType::kPromote: return "promote";
    case RecordType::kDemote: return "demote";
  }
  return "?";
}

std::string journal_log_path(const std::string& directory) {
  return (fs::path(directory) / "journal.log").string();
}

std::string snapshot_path(const std::string& directory) {
  return (fs::path(directory) / "snapshot.snap").string();
}

std::string user_checkpoint_path(const std::string& directory,
                                 std::uint64_t user_id) {
  return (fs::path(directory) / ("user_" + std::to_string(user_id) + ".ckpt"))
      .string();
}

bool journal_state_exists(const std::string& directory) {
  std::error_code ec;
  return fs::exists(journal_log_path(directory), ec) ||
         fs::exists(snapshot_path(directory), ec);
}

Journal::Journal(JournalConfig config, std::uint64_t first_seq)
    : config_(std::move(config)), next_seq_(first_seq) {
  CLEAR_CHECK_MSG(!config_.directory.empty(), "journal directory is empty");
  CLEAR_CHECK_MSG(first_seq >= 1, "journal sequence numbers start at 1");
  std::error_code ec;
  fs::create_directories(config_.directory, ec);
  CLEAR_CHECK_MSG(!ec, "cannot create journal directory "
                           << config_.directory << ": " << ec.message());
  open_truncated();
}

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);
}

void Journal::open_truncated() {
  fault::maybe_fail_journal_io("journal open");
  if (fd_ >= 0) ::close(fd_);
  fd_ = ::open(journal_log_path(config_.directory).c_str(),
               O_WRONLY | O_CREAT | O_TRUNC, 0644);
  CLEAR_CHECK_MSG(fd_ >= 0, "cannot open " << journal_log_path(
                                                  config_.directory)
                                           << ": " << std::strerror(errno));
  const std::string header = header_bytes(kFormatVersion);
  write_all(fd_, header.data(), header.size(), "journal header write");
  since_snapshot_ = 0;
}

std::size_t Journal::append(JournalRecord record) {
  CLEAR_CHECK_MSG(fd_ >= 0, "journal is not open");
  fault::maybe_fail_journal_io("journal append");
  record.seq = next_seq_;
  bytes::Writer w;
  const std::size_t at = bytes::begin_record(w);
  put_record(w, record);
  CLEAR_CHECK_MSG(w.size() - at < kMaxRecordBytes, "journal record too big");
  bytes::end_record(w, at);
  const std::string frame = w.take();

  const std::size_t cap = fault::journal_torn_write_cap();
  if (cap < frame.size()) {
    // Injected torn write: persist a prefix, then fail — indistinguishable
    // on disk from a crash mid-append.
    write_all(fd_, frame.data(), cap, "journal append");
    CLEAR_CHECK_MSG(false, "injected torn journal write (kept " << cap
                                                                << " bytes)");
  }
  write_all(fd_, frame.data(), frame.size(), "journal append");
  if (config_.fsync) {
    CLEAR_CHECK_MSG(::fsync(fd_) == 0,
                    "journal fsync: " << std::strerror(errno));
  }
  ++next_seq_;
  ++records_;
  ++since_snapshot_;
  bytes_ += frame.size();
  return frame.size();
}

void Journal::write_snapshot(const SnapshotData& data) {
  write_snapshot_file(config_.directory, data, config_.fsync);
  // The snapshot is committed; dropping the journal prefix is now safe. A
  // crash before this truncate leaves stale records that replay skips by
  // sequence number.
  open_truncated();
}

bool Journal::due_for_snapshot() const {
  return config_.snapshot_every > 0 &&
         since_snapshot_ >= config_.snapshot_every;
}

void write_snapshot_file(const std::string& directory,
                         const SnapshotData& data, bool do_fsync) {
  bytes::Writer w;
  w.raw(magic_bytes(kSnapshotMagicPrefix, kFormatVersion));
  w.u32(static_cast<std::uint32_t>(kFormatVersion));
  const std::size_t at = bytes::begin_record(w);
  put_snapshot(w, data);
  bytes::end_record(w, at);
  bytes::write_file_atomic(snapshot_path(directory), w.take(), "snapshot",
                           do_fsync);
}

std::optional<SnapshotData> read_snapshot(const std::string& directory) {
  const std::string path = snapshot_path(directory);
  std::error_code ec;
  if (!fs::exists(path, ec)) return std::nullopt;
  const std::string file = bytes::read_file(path);
  constexpr std::size_t kMagicLen = 8;
  CLEAR_CHECK_MSG(file.size() >= kMagicLen + 12,
                  "snapshot " << path << " is truncated");
  CLEAR_CHECK_MSG(std::memcmp(file.data(), kSnapshotMagicPrefix,
                              sizeof(kSnapshotMagicPrefix)) == 0,
                  "snapshot " << path << " has a bad magic");
  const std::uint32_t version =
      bytes::Reader(std::string_view(file).substr(kMagicLen)).u32();
  CLEAR_CHECK_MSG(version == kFormatVersion,
                  unsupported_version("snapshot " + path, version));
  CLEAR_CHECK_MSG(
      file.compare(0, kMagicLen, magic_bytes(kSnapshotMagicPrefix, version)) ==
          0,
      "snapshot " << path << " has a bad magic");
  const std::string_view framed = std::string_view(file).substr(kMagicLen + 4);
  const bytes::Record rec =
      bytes::read_record(framed, std::numeric_limits<std::uint32_t>::max());
  CLEAR_CHECK_MSG(rec.status != bytes::RecordStatus::kShort &&
                      8 + std::size_t{rec.len} == framed.size(),
                  "snapshot " << path << " length mismatch");
  CLEAR_CHECK_MSG(rec.status == bytes::RecordStatus::kOk,
                  "snapshot " << path << " failed its CRC check");
  return decode_snapshot(rec.payload);
}

JournalReadResult read_journal(const std::string& directory) {
  JournalReadResult result;
  const std::string path = journal_log_path(directory);
  std::error_code ec;
  if (!fs::exists(path, ec)) {
    result.missing = true;
    return result;
  }
  const std::string file = bytes::read_file(path);
  constexpr std::size_t kHeaderLen = 16;
  if (file.size() < kHeaderLen ||
      std::memcmp(file.data(), kJournalMagicPrefix,
                  sizeof(kJournalMagicPrefix)) != 0) {
    // A bad header means nothing in the file can be trusted.
    result.tail_bytes_dropped = file.size();
    return result;
  }
  const std::uint32_t version =
      bytes::Reader(std::string_view(file).substr(8)).u32();
  if (version != kFormatVersion) {
    // Another format: the framing itself may differ, so the whole file is
    // untrusted.
    result.header_error =
        unsupported_version("journal.log", version) + "; refusing the whole file";
    result.tail_bytes_dropped = file.size();
    return result;
  }
  if (file.compare(0, kHeaderLen, header_bytes(version)) != 0) {
    result.tail_bytes_dropped = file.size();  // Magic/version echo mismatch.
    return result;
  }
  std::size_t off = kHeaderLen;
  while (off < file.size()) {
    // A torn or oversized frame, or a CRC mismatch, ends the trusted prefix.
    const bytes::Record rec = bytes::read_record(
        std::string_view(file).substr(off), kMaxRecordBytes - 1);
    if (rec.status != bytes::RecordStatus::kOk) break;
    try {
      JournalRecord decoded = decode_record(rec.payload);
      decoded.file_offset = off;
      result.records.push_back(std::move(decoded));
    } catch (const Error&) {
      break;  // Intact CRC but undecodable: treat like any corrupt tail.
    }
    off += 8 + rec.len;
  }
  result.tail_bytes_dropped = file.size() - off;
  return result;
}

void write_user_checkpoint(const std::string& directory,
                           std::uint64_t user_id, const std::string& blob,
                           bool do_fsync) {
  fault::maybe_fail_journal_io("checkpoint store write");
  bytes::write_file_atomic(user_checkpoint_path(directory, user_id), blob,
                           "user checkpoint", do_fsync);
}

std::string read_user_checkpoint(const std::string& directory,
                                 std::uint64_t user_id) {
  return bytes::read_file(user_checkpoint_path(directory, user_id));
}

std::string encode_session_image(const SessionImage& image) {
  bytes::Writer w;
  put_image(w, image);
  return w.take();
}

SessionImage decode_session_image(const std::string& image) {
  bytes::Reader r(image, "session image");
  SessionImage img = get_image(r);
  r.expect_end();
  return img;
}

}  // namespace clear::serve
