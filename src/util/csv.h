// Minimal CSV reading/writing used by the clickstream I/O layer and the
// benchmark harness (--csv output).
//
// Supports RFC-4180-style quoting (fields containing the delimiter, quotes
// or newlines are double-quoted; embedded quotes are doubled). No external
// dependencies.

#ifndef PREFCOVER_UTIL_CSV_H_
#define PREFCOVER_UTIL_CSV_H_

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace prefcover {

/// \brief Parses one CSV record (no trailing newline) into fields.
///
/// Returns InvalidArgument on malformed quoting (unterminated quote,
/// characters after a closing quote).
Result<std::vector<std::string>> ParseCsvLine(std::string_view line,
                                              char delimiter = ',');

/// \brief Serializes fields into one CSV record (no trailing newline),
/// quoting only where required.
std::string FormatCsvLine(const std::vector<std::string>& fields,
                          char delimiter = ',');

/// \brief Streaming CSV reader over an istream.
///
/// Reads the stream in fixed-size blocks, so it holds one block plus one
/// record whatever the input size. A record ends at a '\n' outside quotes;
/// a '\r' right before it (or before the end of input) is dropped, so LF
/// and CRLF files read alike. Inside quotes every byte, '\r' and '\n'
/// included, belongs to the field, so a record spans physical lines only
/// while its quote count is odd.
///
/// A record without quotes that ends inside the current block is split in
/// place: its fields are views into the block, and reading it allocates
/// nothing. Any other record (one with a quote, or one that crosses into
/// the next block) goes through the RFC-4180 state machine into strings
/// the reader owns, and its views point there.
class CsvReader {
 public:
  /// The stream must outlive the reader. The reader reads ahead of the
  /// record it returns, so nothing else should read the stream after it.
  explicit CsvReader(std::istream* input, char delimiter = ',');

  /// Reads the next record into `*fields` as views that stay valid until
  /// the next call to Next (either overload). Returns false at end of
  /// input. A malformed record or a failed read surfaces through status()
  /// and leaves `*fields` unspecified.
  bool Next(std::vector<std::string_view>* fields);

  /// As above, but copies the fields into `*fields`, reusing the capacity
  /// of the strings already there.
  bool Next(std::vector<std::string>* fields);

  /// OK until a malformed record (InvalidArgument naming it) or a failed
  /// read of the stream (IOError naming the last whole record) stops the
  /// reader; a stream that goes bad() is never taken for end of input.
  const Status& status() const { return status_; }

  /// 1-based index of the last record returned by Next, or of the
  /// malformed record that stopped the reader.
  size_t record_number() const { return record_number_; }

 private:
  /// Reads the next block; false at end of input or on a failed read,
  /// which sets status_.
  bool Refill();

  /// Reads the record at pos_, one with a quote or one that crosses into
  /// the next block, through the state machine into owned_.
  bool ParseRecord(std::vector<std::string_view>* fields);

  std::istream* input_;
  char delimiter_;
  Status status_;
  size_t record_number_ = 0;
  std::vector<char> block_;
  size_t pos_ = 0;  // next unread byte of block_
  size_t end_ = 0;  // bytes of block_ holding input
  std::vector<std::string> owned_;  // fields of the last ParseRecord record
  std::vector<std::string_view> views_;  // scratch of the string overload
};

/// \brief Streaming CSV writer over an ostream.
class CsvWriter {
 public:
  /// The stream must outlive the writer.
  explicit CsvWriter(std::ostream* output, char delimiter = ',');

  void WriteRecord(const std::vector<std::string>& fields);

  size_t records_written() const { return records_written_; }

 private:
  std::ostream* output_;
  char delimiter_;
  size_t records_written_ = 0;
};

}  // namespace prefcover

#endif  // PREFCOVER_UTIL_CSV_H_
