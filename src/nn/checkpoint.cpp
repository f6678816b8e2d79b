#include "nn/checkpoint.hpp"

#include <istream>
#include <ostream>

#include "common/bytes.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "tensor/serialize.hpp"

namespace clear::nn {

namespace {
constexpr std::uint64_t kCheckpointMagic = 0x434C454152434B32ull;  // "CLEARCK2"
constexpr std::uint64_t kCheckpointVersion = 2;
/// Smallest encoding of one entry: empty name + rank-0 CTSR header.
constexpr std::size_t kMinEntryBytes = 8 + 16;

/// Seal (name, tensor) entries; `name_of` / `value_of` project an entry.
template <typename Entries, typename NameOf, typename ValueOf>
std::string seal(const Entries& entries, NameOf name_of, ValueOf value_of) {
  std::size_t est = 32 + 8;
  for (const auto& e : entries)
    est += 8 + name_of(e).size() + 16 + value_of(e).rank() * 8 +
           value_of(e).numel() * sizeof(float);
  bytes::Writer w(est);
  const std::size_t at =
      bytes::begin_sealed(w, kCheckpointMagic, kCheckpointVersion);
  w.u64(entries.size());
  for (const auto& e : entries) {
    w.u64(name_of(e).size());
    w.raw(name_of(e));
    io::put_tensor(w, value_of(e));
  }
  bytes::end_sealed(w, at);
  return w.take();
}
}  // namespace

std::string encode_checkpoint(Sequential& model) {
  return seal(
      model.parameters(), [](const Param* p) -> const std::string& {
        return p->name;
      },
      [](const Param* p) -> const Tensor& { return p->value; });
}

std::string encode_checkpoint(const std::vector<NamedTensor>& entries) {
  return seal(
      entries, [](const NamedTensor& e) -> const std::string& { return e.name; },
      [](const NamedTensor& e) -> const Tensor& { return e.value; });
}

std::vector<NamedTensor> decode_checkpoint(std::string_view blob,
                                           bool verify_crc) {
  bytes::Reader r(bytes::open_sealed(blob, kCheckpointMagic,
                                     kCheckpointVersion, "checkpoint",
                                     verify_crc),
                  "checkpoint payload");
  std::vector<NamedTensor> out(r.count(r.u64(), kMinEntryBytes));
  for (NamedTensor& e : out) {
    e.name = std::string(r.bytes(r.u64()));
    e.value = io::get_tensor(r);
  }
  return out;
}

void load_checkpoint(std::string_view blob, Sequential& model) {
  std::vector<NamedTensor> entries = decode_checkpoint(blob);
  const std::vector<Param*> params = model.parameters();
  CLEAR_CHECK_MSG(entries.size() == params.size(),
                  "checkpoint parameter count mismatch: file has "
                      << entries.size() << ", model has " << params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    const NamedTensor& e = entries[i];
    CLEAR_CHECK_MSG(e.name == params[i]->name,
                    "checkpoint parameter name mismatch: "
                        << e.name << " vs " << params[i]->name);
    CLEAR_CHECK_MSG(e.value.same_shape(params[i]->value),
                    "checkpoint shape mismatch for "
                        << e.name << ": " << e.value.shape_str() << " vs "
                        << params[i]->value.shape_str());
  }
  for (std::size_t i = 0; i < params.size(); ++i)
    params[i]->value = std::move(entries[i].value);
}

std::uint32_t checkpoint_digest(std::string_view blob) {
  if (blob.size() >= 32 && bytes::Reader(blob).u64() == kCheckpointMagic)
    return static_cast<std::uint32_t>(
        bytes::Reader(blob.substr(blob.size() - 8)).u64());
  return crc32(blob.data(), blob.size());
}

void save_checkpoint(std::ostream& os, Sequential& model) {
  const std::string blob = encode_checkpoint(model);
  os.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  CLEAR_CHECK_MSG(os.good(), "IO error writing checkpoint");
}

void load_checkpoint(std::istream& is, Sequential& model) {
  std::string blob;
  char buf[1 << 16];
  while (is.read(buf, sizeof(buf)) || is.gcount() > 0)
    blob.append(buf, static_cast<std::size_t>(is.gcount()));
  load_checkpoint(blob, model);
}

std::vector<Tensor> snapshot_parameters(Sequential& model) {
  std::vector<Tensor> snap;
  for (const Param* p : model.parameters()) snap.push_back(p->value);
  return snap;
}

void restore_parameters(Sequential& model, const std::vector<Tensor>& snap) {
  const std::vector<Param*> params = model.parameters();
  CLEAR_CHECK_MSG(params.size() == snap.size(),
                  "snapshot parameter count mismatch");
  for (std::size_t i = 0; i < params.size(); ++i) {
    CLEAR_CHECK_MSG(snap[i].same_shape(params[i]->value),
                    "snapshot shape mismatch");
    params[i]->value = snap[i];
  }
}

}  // namespace clear::nn
