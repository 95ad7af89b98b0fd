#include "graph/graph_io.h"

#include <cstdio>
#include <cstring>
#include <istream>
#include <ostream>

#include "graph/graph_builder.h"
#include "util/csv.h"
#include "util/failpoint.h"
#include "util/fs.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace prefcover {

namespace {

// Layout (little-endian): magic, then the payload — version u32, n u64,
// m u64, has_labels u8, n node weights f64, per node (out-degree u32,
// then (target u32, weight f64) per edge), per node (length u32, bytes)
// if labeled — then the FNV-1a of the payload as u64. The digest hashes
// n, m, weights and adjacency in that same byte order, so its bytes are
// the payload's minus version, has_labels and labels.
constexpr char kMagic[8] = {'P', 'C', 'G', 'R', 'A', 'P', 'H', '1'};
constexpr uint32_t kVersion = 1;
constexpr size_t kVersionBytes = sizeof(uint32_t);
constexpr size_t kCountsBytes = 2 * sizeof(uint64_t);
constexpr size_t kHeaderBytes = kVersionBytes + kCountsBytes + 1;
constexpr size_t kEdgeBytes = sizeof(NodeId) + sizeof(double);
constexpr uint32_t kMaxLabelBytes = 1u << 20;

template <typename T>
void Put(char** out, T value) {
  std::memcpy(*out, &value, sizeof(T));
  *out += sizeof(T);
}

// Bounds-checked cursor over an in-memory image.
class ImageReader {
 public:
  explicit ImageReader(std::string_view bytes) : bytes_(bytes) {}

  size_t offset() const { return pos_; }
  size_t remaining() const { return bytes_.size() - pos_; }

  template <typename T>
  bool Read(T* value) {
    if (remaining() < sizeof(T)) return false;
    std::memcpy(value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  // Returns the next `size` bytes, or null if fewer remain.
  const char* Take(size_t size) {
    if (remaining() < size) return nullptr;
    const char* p = bytes_.data() + pos_;
    pos_ += size;
    return p;
  }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

Status Truncated() {
  return Status::Corruption("unexpected end of graph file");
}

}  // namespace

std::string SerializeGraphBinary(const PreferenceGraph& graph) {
  const uint64_t n = graph.NumNodes();
  const uint64_t m = graph.NumEdges();
  size_t size = sizeof(kMagic) + kHeaderBytes +
                n * (sizeof(double) + sizeof(uint32_t)) + m * kEdgeBytes +
                sizeof(uint64_t);
  if (graph.HasLabels()) {
    for (NodeId v = 0; v < n; ++v) {
      size += sizeof(uint32_t) + graph.Label(v).size();
    }
  }
  std::string image(size, '\0');
  char* out = image.data();
  std::memcpy(out, kMagic, sizeof(kMagic));
  out += sizeof(kMagic);
  Put<uint32_t>(&out, kVersion);
  Put<uint64_t>(&out, n);
  Put<uint64_t>(&out, m);
  Put<uint8_t>(&out, graph.HasLabels() ? 1 : 0);
  std::memcpy(out, graph.NodeWeights().data(), n * sizeof(double));
  out += n * sizeof(double);
  for (NodeId v = 0; v < n; ++v) {
    AdjacencyView adj = graph.OutNeighbors(v);
    Put<uint32_t>(&out, static_cast<uint32_t>(adj.size()));
    for (size_t i = 0; i < adj.size(); ++i) {
      Put<NodeId>(&out, adj.nodes[i]);
      Put<double>(&out, adj.weights[i]);
    }
  }
  if (graph.HasLabels()) {
    for (NodeId v = 0; v < n; ++v) {
      const std::string& label = graph.Label(v);
      Put<uint32_t>(&out, static_cast<uint32_t>(label.size()));
      std::memcpy(out, label.data(), label.size());
      out += label.size();
    }
  }
  Fnv1a checksum;
  checksum.Update(image.data() + sizeof(kMagic),
                  static_cast<size_t>(out - image.data()) - sizeof(kMagic));
  Put<uint64_t>(&out, checksum.digest());
  return image;
}

Result<PreferenceGraph> DeserializeGraphBinary(std::string_view image) {
  if (image.size() < sizeof(kMagic) ||
      std::memcmp(image.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("not a .pcg graph file (bad magic)");
  }
  const std::string_view payload = image.substr(sizeof(kMagic));
  ImageReader r(payload);
  uint32_t version = 0;
  if (!r.Read(&version)) return Truncated();
  if (version != kVersion) {
    return Status::Corruption("unsupported graph format version " +
                              std::to_string(version));
  }
  uint64_t n = 0, m = 0;
  uint8_t has_labels = 0;
  if (!r.Read(&n) || !r.Read(&m) || !r.Read(&has_labels)) return Truncated();
  if (n > kInvalidNode) {
    return Status::Corruption("node count exceeds NodeId range");
  }
  if (n > 0 && m / n > n) {
    return Status::Corruption("edge count implausible for node count");
  }
  // The counts come from an untrusted file: check them against the bytes
  // present before allocating for them. Weights and degrees take 12 bytes
  // per node and the edges 12 each, so a corrupted count fails here
  // instead of attempting a multi-gigabyte allocation.
  constexpr size_t kNodeBytes = sizeof(double) + sizeof(uint32_t);
  if (r.remaining() / kNodeBytes < n ||
      (r.remaining() - n * kNodeBytes) / kEdgeBytes < m) {
    return Truncated();
  }

  OutCsr csr;
  csr.node_weights.resize(n);
  std::memcpy(csr.node_weights.data(), r.Take(n * sizeof(double)),
              n * sizeof(double));
  csr.offsets.resize(n + 1);
  csr.targets.resize(m);
  csr.weights.resize(m);
  uint64_t edges_seen = 0;
  for (uint64_t v = 0; v < n; ++v) {
    uint32_t deg = 0;
    if (!r.Read(&deg)) return Truncated();
    // A simple graph's out-degree cannot exceed n, and the per-node
    // degrees cannot sum past the header's edge count (which the bytes
    // present were checked against above).
    if (deg > n) {
      return Status::Corruption(
          "node " + std::to_string(v) + " declares out-degree " +
          std::to_string(deg) + " > node count " + std::to_string(n));
    }
    if (edges_seen + deg > m) {
      return Status::Corruption(
          "adjacency lists exceed the header edge count " +
          std::to_string(m) + " at node " + std::to_string(v));
    }
    const char* p = r.Take(deg * kEdgeBytes);
    if (p == nullptr) return Truncated();
    for (uint32_t i = 0; i < deg; ++i, p += kEdgeBytes) {
      NodeId to = 0;
      std::memcpy(&to, p, sizeof(to));
      if (to >= n) return Status::Corruption("edge target out of range");
      csr.targets[edges_seen + i] = to;
      std::memcpy(&csr.weights[edges_seen + i], p + sizeof(to),
                  sizeof(double));
    }
    edges_seen += deg;
    csr.offsets[v + 1] = edges_seen;
  }
  if (edges_seen != m) {
    return Status::Corruption("edge count mismatch: header says " +
                              std::to_string(m) + ", found " +
                              std::to_string(edges_seen));
  }
  const size_t adjacency_end = r.offset();
  if (has_labels != 0) {
    if (r.remaining() / sizeof(uint32_t) < n) return Truncated();
    csr.labels.resize(n);
    for (uint64_t v = 0; v < n; ++v) {
      uint32_t len = 0;
      if (!r.Read(&len)) return Truncated();
      if (len > kMaxLabelBytes) {
        return Status::Corruption("string length implausible: " +
                                  std::to_string(len));
      }
      const char* p = r.Take(len);
      if (p == nullptr) return Truncated();
      csr.labels[v].assign(p, len);
    }
  }
  const size_t payload_end = r.offset();
  uint64_t stored = 0;
  if (!r.Read(&stored)) return Status::Corruption("missing checksum");

  // One pass over the payload yields the checksum and, over the bytes
  // the two share, the graph's digest.
  Fnv1a checksum, digest;
  const char* bytes = payload.data();
  checksum.Update(bytes, kVersionBytes);
  Fnv1a::UpdateBoth(&checksum, &digest, bytes + kVersionBytes, kCountsBytes);
  checksum.Update(bytes + kVersionBytes + kCountsBytes, 1);
  Fnv1a::UpdateBoth(&checksum, &digest, bytes + kHeaderBytes,
                    adjacency_end - kHeaderBytes);
  checksum.Update(bytes + adjacency_end, payload_end - adjacency_end);
  if (stored != checksum.digest()) {
    return Status::Corruption("checksum mismatch");
  }

  // The file was produced from an already-validated graph; permissive
  // finalize preserves whatever shape it had (e.g. VC-reduction self-loops,
  // unnormalized transform intermediates).
  GraphValidationOptions options;
  options.require_normalized_node_weights = false;
  options.allow_self_loops = true;
  return GraphBuilder::FinalizeCsr(std::move(csr), options, digest.digest());
}

Status WriteGraphBinaryFile(const PreferenceGraph& graph,
                            const std::string& path) {
  PREFCOVER_FAILPOINT_STATUS("graph_io.write");
  // Atomic replace: a crash mid-write leaves the previous file (or no
  // file), never a torn .pcg that a later load would reject.
  return WriteFileAtomic(path, SerializeGraphBinary(graph));
}

Result<PreferenceGraph> ReadGraphBinaryFile(const std::string& path) {
  PREFCOVER_FAILPOINT_STATUS("graph_io.read");
  PREFCOVER_ASSIGN_OR_RETURN(std::string image, ReadFileToString(path));
  return DeserializeGraphBinary(image);
}

Status WriteGraphCsv(const PreferenceGraph& graph, std::ostream* nodes_out,
                     std::ostream* edges_out) {
  CsvWriter nodes(nodes_out);
  if (graph.HasLabels()) {
    nodes.WriteRecord({"id", "weight", "label"});
  } else {
    nodes.WriteRecord({"id", "weight"});
  }
  char buf[32];
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    std::snprintf(buf, sizeof(buf), "%.17g", graph.NodeWeight(v));
    if (graph.HasLabels()) {
      nodes.WriteRecord({std::to_string(v), buf, graph.Label(v)});
    } else {
      nodes.WriteRecord({std::to_string(v), buf});
    }
  }
  CsvWriter edges(edges_out);
  edges.WriteRecord({"from", "to", "weight"});
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    AdjacencyView adj = graph.OutNeighbors(v);
    for (size_t i = 0; i < adj.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", adj.weights[i]);
      edges.WriteRecord(
          {std::to_string(v), std::to_string(adj.nodes[i]), buf});
    }
  }
  if (!nodes_out->good() || !edges_out->good()) {
    return Status::IOError("failed writing CSV graph");
  }
  return Status::OK();
}

Result<PreferenceGraph> ReadGraphCsv(std::istream* nodes_in,
                                     std::istream* edges_in,
                                     const GraphValidationOptions& options) {
  GraphBuilder builder;
  CsvReader nodes(nodes_in);
  std::vector<std::string> fields;
  bool header = true;
  bool labeled = false;
  uint32_t expected_id = 0;
  while (nodes.Next(&fields)) {
    if (header) {
      header = false;
      if (fields.size() < 2 || fields[0] != "id") {
        return Status::InvalidArgument("nodes CSV must start with id,weight");
      }
      labeled = fields.size() >= 3;
      continue;
    }
    if (fields.size() < 2) {
      return Status::InvalidArgument("nodes CSV record too short");
    }
    PREFCOVER_ASSIGN_OR_RETURN(uint32_t id, ParseUint32(fields[0]));
    if (id != expected_id) {
      return Status::InvalidArgument(
          "nodes CSV ids must be dense and ascending; expected " +
          std::to_string(expected_id) + ", got " + std::to_string(id));
    }
    ++expected_id;
    PREFCOVER_ASSIGN_OR_RETURN(double w, ParseDouble(fields[1]));
    builder.AddNode(w, labeled && fields.size() >= 3 ? fields[2] : "");
  }
  PREFCOVER_RETURN_NOT_OK(nodes.status());

  CsvReader edges(edges_in);
  header = true;
  while (edges.Next(&fields)) {
    if (header) {
      header = false;
      if (fields.size() != 3 || fields[0] != "from") {
        return Status::InvalidArgument(
            "edges CSV must start with from,to,weight");
      }
      continue;
    }
    if (fields.size() != 3) {
      return Status::InvalidArgument("edges CSV record must have 3 fields");
    }
    PREFCOVER_ASSIGN_OR_RETURN(uint32_t from, ParseUint32(fields[0]));
    PREFCOVER_ASSIGN_OR_RETURN(uint32_t to, ParseUint32(fields[1]));
    PREFCOVER_ASSIGN_OR_RETURN(double w, ParseDouble(fields[2]));
    PREFCOVER_RETURN_NOT_OK(builder.AddEdge(from, to, w));
  }
  PREFCOVER_RETURN_NOT_OK(edges.status());

  return builder.Finalize(options);
}

}  // namespace prefcover
