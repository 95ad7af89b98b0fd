#include "util/csv.h"

#include <cstring>
#include <istream>
#include <ostream>

namespace prefcover {

namespace {

constexpr size_t kBlockSize = 64 * 1024;

// One record's RFC-4180 state machine, shared by ParseCsvLine and
// CsvReader. The record may arrive in pieces (the reader's blocks); its
// fields are written into the caller's vector, reusing its strings.
class RecordParser {
 public:
  // With `line_ends_record`, an unquoted '\n' ends the record and a '\r'
  // right before it or before the end of input is dropped; without it
  // (ParseCsvLine's single record) both are ordinary bytes.
  RecordParser(char delimiter, bool line_ends_record,
               std::vector<std::string>* fields)
      : delimiter_(delimiter),
        line_ends_record_(line_ends_record),
        fields_(fields) {
    if (fields_->empty()) fields_->emplace_back();
    field_ = &fields_->front();
    field_->clear();
  }

  // Consumes [p, end) up to and including the '\n' that ends the record
  // and returns where it stopped; check error() and done() after.
  const char* Scan(const char* p, const char* end) {
    while (p < end) {
      if (pending_cr_) {
        pending_cr_ = false;
        if (*p == '\n') {
          EndRecord();
          return p + 1;
        }
        if (state_ == State::kClosed) return Fail(p, kAfterQuote);
        field_->push_back('\r');
        state_ = State::kUnquoted;
      }
      if (state_ == State::kQuoted) {
        const char* quote = static_cast<const char*>(
            std::memchr(p, '"', static_cast<size_t>(end - p)));
        if (quote == nullptr) {
          field_->append(p, static_cast<size_t>(end - p));
          return end;
        }
        field_->append(p, static_cast<size_t>(quote - p));
        state_ = State::kClosed;
        p = quote + 1;
        continue;
      }
      const char c = *p;
      if (c == '"') {
        ++p;
        if (state_ == State::kClosed) {
          field_->push_back('"');  // a doubled quote inside quotes
        } else if (state_ == State::kUnquoted) {
          return Fail(p, "unexpected quote inside unquoted field");
        }
        state_ = State::kQuoted;
        continue;
      }
      if (state_ != State::kClosed) {
        const char* run = p;
        while (run < end && !IsSpecial(*run)) ++run;
        if (run != p) {
          field_->append(p, static_cast<size_t>(run - p));
          state_ = State::kUnquoted;
          p = run;
          continue;
        }
      }
      ++p;
      if (c == delimiter_) {
        NextField();
      } else if (line_ends_record_ && c == '\n') {
        EndRecord();
        return p;
      } else if (line_ends_record_ && c == '\r') {
        pending_cr_ = true;
      } else if (state_ == State::kClosed) {
        return Fail(p, kAfterQuote);
      } else {
        field_->push_back(c);
        state_ = State::kUnquoted;
      }
    }
    return p;
  }

  // Closes the record at the end of input.
  void Finish() {
    if (state_ == State::kQuoted) {
      error_ = "unterminated quoted field";
      return;
    }
    EndRecord();
  }

  bool done() const { return done_; }
  const char* error() const { return error_; }

 private:
  enum class State {
    kFieldStart,  // nothing of the field read yet
    kUnquoted,    // inside an unquoted field
    kQuoted,      // inside quotes
    kClosed,      // after a quote that closes the field or starts a ""
  };

  static constexpr const char* kAfterQuote = "characters after closing quote";

  bool IsSpecial(char c) const {
    return c == delimiter_ || c == '"' || c == '\n' || c == '\r';
  }

  const char* Fail(const char* p, const char* message) {
    error_ = message;
    return p;
  }

  void NextField() {
    ++index_;
    if (index_ == fields_->size()) {
      fields_->emplace_back();
    } else {
      (*fields_)[index_].clear();
    }
    field_ = &(*fields_)[index_];
    state_ = State::kFieldStart;
  }

  void EndRecord() {
    fields_->resize(index_ + 1);
    done_ = true;
  }

  const char delimiter_;
  const bool line_ends_record_;
  std::vector<std::string>* const fields_;
  std::string* field_;
  size_t index_ = 0;
  State state_ = State::kFieldStart;
  bool pending_cr_ = false;  // an unquoted '\r' whose successor is unread
  bool done_ = false;
  const char* error_ = nullptr;
};

}  // namespace

Result<std::vector<std::string>> ParseCsvLine(std::string_view line,
                                              char delimiter) {
  std::vector<std::string> fields;
  RecordParser parser(delimiter, /*line_ends_record=*/false, &fields);
  parser.Scan(line.data(), line.data() + line.size());
  if (parser.error() == nullptr) parser.Finish();
  if (parser.error() != nullptr) {
    return Status::InvalidArgument(parser.error());
  }
  return fields;
}

std::string FormatCsvLine(const std::vector<std::string>& fields,
                          char delimiter) {
  std::string out;
  for (size_t f = 0; f < fields.size(); ++f) {
    if (f > 0) out += delimiter;
    const std::string& field = fields[f];
    bool needs_quotes = false;
    for (char c : field) {
      if (c == delimiter || c == '"' || c == '\n' || c == '\r') {
        needs_quotes = true;
        break;
      }
    }
    if (!needs_quotes) {
      out += field;
      continue;
    }
    out += '"';
    for (char c : field) {
      if (c == '"') out += '"';
      out += c;
    }
    out += '"';
  }
  return out;
}

CsvReader::CsvReader(std::istream* input, char delimiter)
    : input_(input), delimiter_(delimiter), block_(kBlockSize) {}

bool CsvReader::Refill() {
  input_->read(block_.data(), static_cast<std::streamsize>(block_.size()));
  pos_ = 0;
  end_ = static_cast<size_t>(input_->gcount());
  // A read that fails (a stream error, or a streambuf that throws) can
  // return short or nothing, which must not read as end of input.
  if (input_->bad()) {
    end_ = 0;
    status_ = Status::IOError("read failed after record " +
                              std::to_string(record_number_));
    return false;
  }
  return end_ > 0;
}

bool CsvReader::Next(std::vector<std::string_view>* fields) {
  if (!status_.ok()) return false;
  if (pos_ == end_ && !Refill()) return false;
  const char* const begin = block_.data() + pos_;
  const size_t left = end_ - pos_;
  const char* line_end =
      static_cast<const char*>(std::memchr(begin, '\n', left));
  if (line_end == nullptr ||
      std::memchr(begin, '"', static_cast<size_t>(line_end - begin)) !=
          nullptr) {
    return ParseRecord(fields);
  }
  pos_ += static_cast<size_t>(line_end - begin) + 1;
  if (line_end != begin && line_end[-1] == '\r') --line_end;
  fields->clear();
  const char* field = begin;
  for (;;) {
    const char* delimiter = static_cast<const char*>(std::memchr(
        field, delimiter_, static_cast<size_t>(line_end - field)));
    if (delimiter == nullptr) break;
    fields->emplace_back(field, static_cast<size_t>(delimiter - field));
    field = delimiter + 1;
  }
  fields->emplace_back(field, static_cast<size_t>(line_end - field));
  ++record_number_;
  return true;
}

bool CsvReader::ParseRecord(std::vector<std::string_view>* fields) {
  RecordParser parser(delimiter_, /*line_ends_record=*/true, &owned_);
  do {
    const char* base = block_.data();
    pos_ = static_cast<size_t>(parser.Scan(base + pos_, base + end_) - base);
    if (parser.error() != nullptr || parser.done()) break;
  } while (Refill());
  if (!status_.ok()) return false;
  if (parser.error() == nullptr && !parser.done()) parser.Finish();
  ++record_number_;
  if (parser.error() != nullptr) {
    status_ = Status::InvalidArgument("record " +
                                      std::to_string(record_number_) + ": " +
                                      parser.error());
    return false;
  }
  fields->assign(owned_.begin(), owned_.end());
  return true;
}

bool CsvReader::Next(std::vector<std::string>* fields) {
  if (!Next(&views_)) return false;
  fields->resize(views_.size());
  for (size_t f = 0; f < views_.size(); ++f) (*fields)[f].assign(views_[f]);
  return true;
}

CsvWriter::CsvWriter(std::ostream* output, char delimiter)
    : output_(output), delimiter_(delimiter) {}

void CsvWriter::WriteRecord(const std::vector<std::string>& fields) {
  *output_ << FormatCsvLine(fields, delimiter_) << '\n';
  ++records_written_;
}

}  // namespace prefcover
