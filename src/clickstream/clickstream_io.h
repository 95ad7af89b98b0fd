// Clickstream CSV interchange.
//
// Event format, one event per record, compatible in spirit with the
// YooChoose RecSys-2015 layout the paper evaluates on:
//
//   session_id,event_type,item_id[,dwell_seconds]
//
// where event_type is "click" or "purchase". A session is a run of
// consecutive records with one id, so a file sorted by session streams in
// one pass whatever its size.
//
// DecodeClickstreamCsv is the one decoder of this format. The in-memory
// reader below and the streaming construction (streaming_construction.h)
// both run it and differ only in what they do with each finished session,
// which leaves one rule apart: ReadClickstreamCsv rejects a session id
// that reappears after other sessions, while the streaming construction
// takes it as a new session. Remembering every finished id would cost the
// streaming pass 15-37% more time on the end-to-end benchmark's CSVs, and
// memory that grows with the session count.

#ifndef PREFCOVER_CLICKSTREAM_CLICKSTREAM_IO_H_
#define PREFCOVER_CLICKSTREAM_CLICKSTREAM_IO_H_

#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

#include "clickstream/clickstream.h"
#include "util/status.h"

namespace prefcover {

/// \brief Receives each session DecodeClickstreamCsv finishes, with the id
/// the CSV gives it. The decoder reads every session into one Session,
/// which it clears (keeping its capacity) once the sink returns. A non-OK
/// status stops the decode and is returned from it.
using ClickstreamSessionSink =
    std::function<Status(std::string_view session_id, const Session& session)>;

/// \brief Decodes an event CSV, interning item names into `*dictionary`
/// in appearance order and handing each finished session to `sink`.
///
/// Rules enforced, each failure an InvalidArgument naming its record or
/// session:
///   - the header is session_id,event_type,item_id with an optional
///     dwell_seconds column, and every record has the header's field count;
///   - a dwell value is empty (unknown) or a number;
///   - event types are "click" or "purchase";
///   - a session has at most one purchase (the paper's data has
///     single-purchase sessions by construction).
/// An empty stream decodes to no sessions.
Status DecodeClickstreamCsv(std::istream* in, ItemDictionary* dictionary,
                            const ClickstreamSessionSink& sink);

/// \brief Writes the clickstream as event CSV (with header).
Status WriteClickstreamCsv(const Clickstream& clickstream, std::ostream* out);

/// \brief Reads an event CSV into memory through DecodeClickstreamCsv.
///
/// Also rejects a session id that reappears after other sessions, so input
/// that is not grouped by session is caught rather than split silently.
Result<Clickstream> ReadClickstreamCsv(std::istream* in);

/// File-path conveniences.
Status WriteClickstreamCsvFile(const Clickstream& clickstream,
                               const std::string& path);
Result<Clickstream> ReadClickstreamCsvFile(const std::string& path);

}  // namespace prefcover

#endif  // PREFCOVER_CLICKSTREAM_CLICKSTREAM_IO_H_
