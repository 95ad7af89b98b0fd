#include "core/checkpoint.h"

#include <cstring>

#include "obs/metrics.h"
#include "util/bitset.h"
#include "util/failpoint.h"
#include "util/fs.h"
#include "util/hash.h"

namespace prefcover {

namespace {

constexpr char kMagic[8] = {'P', 'C', 'C', 'K', 'P', 'T', '0', '1'};
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderSize = 8 + 4 + 8 + 8 + 1 + 8 + 8;
constexpr size_t kFooterSize = 4;  // CRC-32

void AppendScalar(std::string* out, const void* data, size_t size) {
  out->append(static_cast<const char*>(data), size);
}

template <typename T>
void Append(std::string* out, T value) {
  AppendScalar(out, &value, sizeof(T));
}

template <typename T>
T ReadScalarAt(const std::string& data, size_t offset) {
  T value;
  std::memcpy(&value, data.data() + offset, sizeof(T));
  return value;
}

}  // namespace

uint64_t GreedyOptionsHash(const GreedyOptions& options, size_t k) {
  Fnv1a hash;
  hash.UpdateScalar(static_cast<uint64_t>(k));
  hash.UpdateScalar(static_cast<uint8_t>(options.variant));
  hash.UpdateScalar(options.stop_at_cover);
  hash.UpdateScalar(static_cast<uint64_t>(options.force_include.size()));
  for (NodeId v : options.force_include) hash.UpdateScalar(v);
  hash.UpdateScalar(static_cast<uint64_t>(options.force_exclude.size()));
  for (NodeId v : options.force_exclude) hash.UpdateScalar(v);
  return hash.digest();
}

Status WriteCheckpoint(const std::string& path,
                       const Checkpoint& checkpoint) {
  PREFCOVER_FAILPOINT_STATUS("checkpoint.write");
  std::string payload;
  payload.reserve(kHeaderSize + 4 * checkpoint.prefix.size() + kFooterSize);
  payload.append(kMagic, sizeof(kMagic));
  Append<uint32_t>(&payload, kVersion);
  Append<uint64_t>(&payload, checkpoint.graph_digest);
  Append<uint64_t>(&payload, checkpoint.options_hash);
  Append<uint8_t>(&payload,
                  checkpoint.variant == Variant::kNormalized ? 1 : 0);
  Append<uint64_t>(&payload, checkpoint.k);
  Append<uint64_t>(&payload,
                   static_cast<uint64_t>(checkpoint.prefix.size()));
  for (NodeId v : checkpoint.prefix) Append<NodeId>(&payload, v);
  Append<uint32_t>(&payload, Crc32(payload.data(), payload.size()));
  PREFCOVER_RETURN_NOT_OK(WriteFileAtomic(path, payload));
  // Planted *after* the durable rename: a crash here proves the file on
  // disk is complete and resumable (the kill-resume integration test).
  PREFCOVER_FAILPOINT("checkpoint.after_write");
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter(checkpoint_metric::kWrites)->Increment();
  registry.GetCounter(checkpoint_metric::kBytes)
      ->Increment(payload.size());
  return Status::OK();
}

Result<Checkpoint> ReadCheckpoint(const std::string& path) {
  PREFCOVER_FAILPOINT_STATUS("checkpoint.read");
  PREFCOVER_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  if (data.size() < kHeaderSize + kFooterSize) {
    return Status::Corruption("checkpoint file truncated: " + path);
  }
  if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("not a prefcover checkpoint (bad magic): " +
                              path);
  }
  const size_t body_size = data.size() - kFooterSize;
  const uint32_t stored_crc = ReadScalarAt<uint32_t>(data, body_size);
  const uint32_t actual_crc = Crc32(data.data(), body_size);
  if (stored_crc != actual_crc) {
    return Status::Corruption("checkpoint CRC mismatch: " + path);
  }
  const uint32_t version = ReadScalarAt<uint32_t>(data, 8);
  if (version != kVersion) {
    return Status::Corruption("unsupported checkpoint version " +
                              std::to_string(version));
  }
  Checkpoint checkpoint;
  checkpoint.graph_digest = ReadScalarAt<uint64_t>(data, 12);
  checkpoint.options_hash = ReadScalarAt<uint64_t>(data, 20);
  const uint8_t variant = ReadScalarAt<uint8_t>(data, 28);
  if (variant > 1) {
    return Status::Corruption("checkpoint variant byte invalid: " +
                              std::to_string(variant));
  }
  checkpoint.variant =
      variant == 1 ? Variant::kNormalized : Variant::kIndependent;
  checkpoint.k = ReadScalarAt<uint64_t>(data, 29);
  const uint64_t prefix_len = ReadScalarAt<uint64_t>(data, 37);
  if (prefix_len > checkpoint.k ||
      body_size != kHeaderSize + 4 * prefix_len) {
    return Status::Corruption(
        "checkpoint prefix length inconsistent with file size");
  }
  checkpoint.prefix.reserve(static_cast<size_t>(prefix_len));
  for (uint64_t i = 0; i < prefix_len; ++i) {
    checkpoint.prefix.push_back(
        ReadScalarAt<NodeId>(data, kHeaderSize + 4 * i));
  }
  return checkpoint;
}

Result<std::vector<NodeId>> ValidateCheckpointForResume(
    const Checkpoint& checkpoint, const PreferenceGraph& graph, size_t k,
    const GreedyOptions& options) {
  if (checkpoint.graph_digest != GraphDigest(graph)) {
    return Status::FailedPrecondition(
        "checkpoint was taken against a different graph (digest "
        "mismatch); refusing to resume");
  }
  if (checkpoint.options_hash != GreedyOptionsHash(options, k)) {
    return Status::FailedPrecondition(
        "checkpoint was taken with different solve options (k, variant, "
        "stop_at_cover or force lists); refusing to resume");
  }
  if (checkpoint.variant != options.variant ||
      checkpoint.k != static_cast<uint64_t>(k)) {
    // The hash already covers these; a mismatch here means a colliding
    // or hand-edited file.
    return Status::Corruption("checkpoint variant/k contradict its hash");
  }
  if (checkpoint.prefix.size() > k) {
    // ReadCheckpoint bounds the prefix by the file's own k; this guards
    // hand-built Checkpoint values.
    return Status::FailedPrecondition(
        "checkpoint prefix longer than the budget k");
  }
  const size_t n = graph.NumNodes();
  Bitset seen(n);
  Bitset excluded(n);
  for (NodeId v : options.force_exclude) {
    if (v < n) excluded.Set(v);
  }
  for (NodeId v : checkpoint.prefix) {
    if (v >= n) {
      return Status::FailedPrecondition(
          "checkpoint prefix item out of range: " + std::to_string(v));
    }
    if (seen.Test(v)) {
      return Status::FailedPrecondition(
          "checkpoint prefix item duplicated: " + std::to_string(v));
    }
    if (excluded.Test(v)) {
      return Status::FailedPrecondition(
          "checkpoint prefix contains force-excluded item " +
          std::to_string(v));
    }
    seen.Set(v);
  }
  obs::MetricsRegistry::Global()
      .GetCounter(checkpoint_metric::kResumes)
      ->Increment();
  return checkpoint.prefix;
}

}  // namespace prefcover
