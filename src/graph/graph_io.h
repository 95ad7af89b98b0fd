// Serialization of preference graphs.
//
// Two formats:
//   - binary (.pcg): compact little-endian dump of the CSR arrays with a
//     magic/version header and payload checksum; the format of record for
//     large graphs.
//   - text (CSV): two files or streams — nodes (id,weight[,label]) and
//     edges (from,to,weight) — convenient for interchange and debugging.

#ifndef PREFCOVER_GRAPH_GRAPH_IO_H_
#define PREFCOVER_GRAPH_GRAPH_IO_H_

#include <iosfwd>
#include <string>
#include <string_view>

#include "graph/graph_builder.h"
#include "graph/preference_graph.h"
#include "util/status.h"

namespace prefcover {

/// \name Binary format
/// @{

/// Encodes `graph` as a .pcg image.
std::string SerializeGraphBinary(const PreferenceGraph& graph);

/// Decodes a .pcg image. Fails with Corruption on bad magic, version,
/// structure, truncation or checksum mismatch, and with InvalidArgument
/// when a well-formed image holds an invalid graph (e.g. a repeated edge
/// or an edge weight outside (0, 1]). Adjacency lists stored out of
/// target order are sorted. The graph's digest comes out of the checksum
/// pass instead of a second hash over the CSR.
Result<PreferenceGraph> DeserializeGraphBinary(std::string_view image);

/// File-path conveniences: one atomic write of the image, and one read of
/// the whole file followed by DeserializeGraphBinary. A missing or
/// unreadable path (a directory, say) is an IOError.
Status WriteGraphBinaryFile(const PreferenceGraph& graph,
                            const std::string& path);
Result<PreferenceGraph> ReadGraphBinaryFile(const std::string& path);

/// @}
/// \name Text (CSV) format
/// @{

/// Writes nodes as `id,weight[,label]` and edges as `from,to,weight`,
/// each with a header row.
Status WriteGraphCsv(const PreferenceGraph& graph, std::ostream* nodes_out,
                     std::ostream* edges_out);

/// Reads the CSV pair produced by WriteGraphCsv. Validation options apply
/// at finalize time.
Result<PreferenceGraph> ReadGraphCsv(
    std::istream* nodes_in, std::istream* edges_in,
    const GraphValidationOptions& options = GraphValidationOptions());

/// @}

}  // namespace prefcover

#endif  // PREFCOVER_GRAPH_GRAPH_IO_H_
