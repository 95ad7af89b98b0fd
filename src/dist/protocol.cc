#include "dist/protocol.h"

#include <charconv>
#include <cstdio>

#include "util/string_util.h"

namespace prefcover {
namespace dist {

std::string FormatF64(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

KvArgs::KvArgs(std::string_view line_after_verb) {
  for (const std::string& token :
       SplitString(TrimWhitespace(line_after_verb), ' ')) {
    if (token.empty()) continue;
    const size_t eq = token.find('=');
    if (eq == std::string::npos) continue;  // bare tokens are ignored
    entries_.emplace_back(token.substr(0, eq), token.substr(eq + 1));
  }
}

bool KvArgs::Get(std::string_view key, std::string_view* value) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) {
      *value = v;
      return true;
    }
  }
  return false;
}

Result<uint64_t> KvArgs::GetU64(std::string_view key) const {
  std::string_view raw;
  if (!Get(key, &raw)) {
    return Status::InvalidArgument("missing argument: " + std::string(key));
  }
  // Full-range u64 (graph digests use every bit), so not ParseInt64.
  uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(raw.data(), raw.data() + raw.size(), value, 10);
  if (ec != std::errc() || ptr != raw.data() + raw.size()) {
    return Status::InvalidArgument("not a u64: " + std::string(key) + "=" +
                                   std::string(raw));
  }
  return value;
}

Result<double> KvArgs::GetF64(std::string_view key) const {
  std::string_view raw;
  if (!Get(key, &raw)) {
    return Status::InvalidArgument("missing argument: " + std::string(key));
  }
  return ParseDouble(raw);
}

Result<std::string> KvArgs::GetString(std::string_view key) const {
  std::string_view raw;
  if (!Get(key, &raw)) {
    return Status::InvalidArgument("missing argument: " + std::string(key));
  }
  return std::string(raw);
}

std::string FormatNodeCsv(std::span<const NodeId> nodes) {
  if (nodes.empty()) return "-";
  std::string out;
  out.reserve(nodes.size() * 8);
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(nodes[i]);
  }
  return out;
}

Result<std::vector<NodeId>> ParseNodeCsv(std::string_view text) {
  std::vector<NodeId> nodes;
  if (text == "-" || text.empty()) return nodes;
  for (const std::string& token : SplitString(text, ',')) {
    PREFCOVER_ASSIGN_OR_RETURN(uint32_t id, ParseUint32(token));
    nodes.push_back(id);
  }
  return nodes;
}

std::string FormatScoredCsv(std::span<const CandidateProposal> entries) {
  if (entries.empty()) return "-";
  std::string out;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(entries[i].node) + ":" + FormatF64(entries[i].gain);
  }
  return out;
}

Result<std::vector<CandidateProposal>> ParseScoredCsv(std::string_view text) {
  std::vector<CandidateProposal> entries;
  if (text == "-" || text.empty()) return entries;
  for (const std::string& token : SplitString(text, ',')) {
    const size_t colon = token.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("not a <node>:<gain> pair: " + token);
    }
    CandidateProposal entry;
    entry.found = true;
    PREFCOVER_ASSIGN_OR_RETURN(entry.node,
                               ParseUint32(token.substr(0, colon)));
    PREFCOVER_ASSIGN_OR_RETURN(entry.gain,
                               ParseDouble(token.substr(colon + 1)));
    entries.push_back(entry);
  }
  return entries;
}

}  // namespace dist
}  // namespace prefcover
