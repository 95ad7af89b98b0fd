#include "clickstream/clickstream_io.h"

#include <cstdio>
#include <fstream>
#include <functional>
#include <memory_resource>
#include <string>
#include <string_view>
#include <unordered_set>

#include "util/csv.h"
#include "util/string_util.h"

namespace prefcover {

namespace {

// Hashes session ids as string_views, so the set is probed without
// building a key string.
struct SidHash {
  using is_transparent = void;
  size_t operator()(std::string_view sid) const {
    return std::hash<std::string_view>()(sid);
  }
};

}  // namespace

Status WriteClickstreamCsv(const Clickstream& clickstream,
                           std::ostream* out) {
  // Emit the optional dwell column only when some session carries dwell
  // data, so dwell-free streams stay byte-compatible with older readers.
  bool any_dwell = false;
  for (const Session& session : clickstream.sessions()) {
    if (session.HasDwell()) {
      any_dwell = true;
      break;
    }
  }
  CsvWriter writer(out);
  if (any_dwell) {
    writer.WriteRecord({"session_id", "event_type", "item_id",
                        "dwell_seconds"});
  } else {
    writer.WriteRecord({"session_id", "event_type", "item_id"});
  }
  const ItemDictionary& dict = clickstream.dictionary();
  size_t session_id = 0;
  char dwell_buf[32];
  for (const Session& session : clickstream.sessions()) {
    std::string sid = std::to_string(session_id++);
    for (size_t i = 0; i < session.clicks.size(); ++i) {
      if (any_dwell) {
        std::string dwell;
        if (session.HasDwell() && session.dwell_seconds[i] >= 0.0) {
          std::snprintf(dwell_buf, sizeof(dwell_buf), "%.10g",
                        session.dwell_seconds[i]);
          dwell = dwell_buf;
        }
        writer.WriteRecord(
            {sid, "click", dict.Name(session.clicks[i]), dwell});
      } else {
        writer.WriteRecord({sid, "click", dict.Name(session.clicks[i])});
      }
    }
    if (session.HasPurchase()) {
      if (any_dwell) {
        writer.WriteRecord({sid, "purchase", dict.Name(session.purchase),
                            ""});
      } else {
        writer.WriteRecord({sid, "purchase", dict.Name(session.purchase)});
      }
    }
  }
  if (!out->good()) return Status::IOError("failed writing clickstream CSV");
  return Status::OK();
}

Result<Clickstream> ReadClickstreamCsv(std::istream* in) {
  Clickstream clickstream;
  ItemDictionary* dict = clickstream.mutable_dictionary();
  CsvReader reader(in);
  std::vector<std::string> fields;
  bool header = true;
  bool has_dwell_column = false;
  std::string current_sid;
  bool have_session = false;
  Session current;
  // Ids of the sessions already read, to reject one that reappears. The
  // set's nodes come from one arena, so it costs no allocation per
  // session and leaves no trail of small freed chunks behind.
  std::pmr::monotonic_buffer_resource sid_arena;
  std::pmr::unordered_set<std::pmr::string, SidHash, std::equal_to<>>
      finished_sids(&sid_arena);

  auto flush = [&clickstream, &current]() {
    clickstream.AddSession(std::move(current));
    current = Session();
  };

  while (reader.Next(&fields)) {
    if (header) {
      header = false;
      if ((fields.size() != 3 && fields.size() != 4) ||
          fields[0] != "session_id") {
        return Status::InvalidArgument(
            "clickstream CSV must start with session_id,event_type,item_id"
            "[,dwell_seconds]");
      }
      has_dwell_column = fields.size() == 4;
      continue;
    }
    if (fields.size() != (has_dwell_column ? 4u : 3u)) {
      return Status::InvalidArgument(
          "clickstream record " + std::to_string(reader.record_number()) +
          " has the wrong field count");
    }
    const std::string& sid = fields[0];
    const std::string& type = fields[1];
    const std::string& item_name = fields[2];
    if (!have_session || sid != current_sid) {
      if (have_session) {
        flush();
        finished_sids.emplace(current_sid);
      }
      if (finished_sids.contains(std::string_view(sid))) {
        return Status::InvalidArgument("session '" + sid +
                                       "' reappears after other sessions; "
                                       "input must be grouped by session");
      }
      current_sid = sid;
      have_session = true;
    }
    ItemId item = dict->Intern(item_name);
    if (type == "click") {
      current.clicks.push_back(item);
      if (has_dwell_column) {
        double dwell = -1.0;
        if (!fields[3].empty()) {
          auto parsed = ParseDouble(fields[3]);
          if (!parsed.ok()) {
            return Status::InvalidArgument(
                "bad dwell value in record " +
                std::to_string(reader.record_number()));
          }
          dwell = *parsed;
        }
        current.dwell_seconds.push_back(dwell);
      }
    } else if (type == "purchase") {
      if (current.HasPurchase()) {
        return Status::InvalidArgument("session '" + sid +
                                       "' has multiple purchases");
      }
      current.purchase = item;
    } else {
      return Status::InvalidArgument("unknown event type '" + type +
                                     "' in record " +
                                     std::to_string(reader.record_number()));
    }
  }
  PREFCOVER_RETURN_NOT_OK(reader.status());
  if (have_session) flush();
  return clickstream;
}

Status WriteClickstreamCsvFile(const Clickstream& clickstream,
                               const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  return WriteClickstreamCsv(clickstream, &out);
}

Result<Clickstream> ReadClickstreamCsvFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  return ReadClickstreamCsv(&in);
}

}  // namespace prefcover
