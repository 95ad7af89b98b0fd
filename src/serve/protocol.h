// The line-oriented request/response protocol of the serving layer.
//
// Requests (one per line, fields separated by single spaces):
//
//   covered <id>             is item <id> covered by the reduced inventory?
//   subs <id> <j>            top-j substitutes for item <id>
//   coverk <k>               coverage of the first k selected items
//   batch <id> [<id> ...]    covered-bit per id (bulk admission probe)
//
// Responses (one line per request):
//
//   OK covered <0|1> <p>     retained-or-substitutable flag and the exact
//                            match probability (1 for retained items)
//   OK subs <c> [<id>:<w> ...]  c substitutes, strongest first
//   OK coverk <c>            C(prefix of length k)
//   OK batch <n> <bits>      n requested ids, '0'/'1' covered flags
//   ERR <Code> <message>     the request failed (parse error, id out of
//                            range, ...)
//
// Probabilities and weights are formatted with "%.17g": a double always
// round-trips, so two answers derived from the same value are
// byte-identical — the property the differential test locks between the
// serving path and a direct CoverFunction/graph lookup.
//
// ParseRequest/FormatResponse are pure; AnswerOnIndex computes a response
// from a ServingIndex (the QueryEngine calls it on the current index
// snapshot; tests call it directly).

#ifndef PREFCOVER_SERVE_PROTOCOL_H_
#define PREFCOVER_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/preference_graph.h"
#include "serve/serving_index.h"
#include "util/status.h"

namespace prefcover {
namespace serve {

/// \brief The four query kinds the engine serves.
enum class QueryType : uint8_t {
  kCovered,
  kSubstitutes,
  kCoverageAtK,
  kBatchCovered,
};

std::string_view QueryTypeName(QueryType type);

/// \brief One parsed request.
struct Request {
  QueryType type = QueryType::kCovered;
  /// Item id for kCovered / kSubstitutes.
  NodeId v = 0;
  /// Requested substitute count for kSubstitutes (capped at the index's
  /// top_m).
  uint32_t top_j = 0;
  /// Prefix length for kCoverageAtK.
  uint64_t coverage_k = 0;
  /// Item ids for kBatchCovered.
  std::vector<NodeId> batch;
};

/// \brief One answer: a Status plus the formatted protocol line ("OK ..."
/// on success, "ERR <Code> <message>" otherwise — the line is always
/// present so transports can reply without re-deriving the rendering).
struct Response {
  Status status;
  std::string line;
};

/// \brief Parses one protocol line into a Request. The engine-control
/// verbs (`stats`, `reload`, `quit`) are NOT queries and are rejected
/// here; transports handle them before parsing.
Result<Request> ParseRequest(std::string_view line);

/// \brief Renders `status` as the protocol error line
/// "ERR <Code> <message>".
std::string FormatErrorLine(const Status& status);

/// \brief Answers `request` against `index` — the single source of truth
/// for response content. Out-of-range ids and prefix lengths produce an
/// ERR response (never a crash).
Response AnswerOnIndex(const ServingIndex& index, const Request& request);

/// \brief "%.17g" rendering used for every probability/weight in the
/// protocol (exposed for the differential tests).
std::string FormatProbability(double value);

}  // namespace serve
}  // namespace prefcover

#endif  // PREFCOVER_SERVE_PROTOCOL_H_
