// The full-record schema flowing through the end-to-end pipeline.
//
// Mirrors the paper's preprocessed DBLP/CITESEERX layout: one line per
// publication holding a unique integer RID, a title, a list of authors, and
// "the rest of the content" (payload). The join attribute is the
// concatenation of title and authors (Section 6). Lines are tab-separated;
// the generators never emit tabs inside fields.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace fj::data {

/// A record parsed in place: the fields point into the line it was parsed
/// from, so a view is valid only while that line lives unchanged. The
/// join's mappers and reducers parse through views and copy nothing they
/// only read.
struct RecordView {
  uint64_t rid = 0;
  std::string_view title;
  std::string_view authors;
  std::string_view payload;

  /// Writes the join attribute (title, a space, authors) into `*out`,
  /// replacing its contents. A task passes the same buffer for every
  /// record, so the attribute costs no allocation once it has grown.
  void JoinAttributeInto(std::string* out) const;

  /// Parses "rid<TAB>title<TAB>authors<TAB>payload" in place. Everything
  /// after the third tab is the payload. Makes exactly Record::FromLine's
  /// checks, with its Status codes and messages (Record::FromLine is this
  /// parser plus copies).
  static Result<RecordView> FromLine(const std::string& line);
  /// A view into a temporary would dangle as soon as the call returns.
  static Result<RecordView> FromLine(std::string&& line) = delete;
};

struct Record {
  uint64_t rid = 0;
  std::string title;
  std::string authors;
  std::string payload;

  /// The join-attribute value: title and authors, concatenated.
  std::string JoinAttribute() const { return title + " " + authors; }

  /// A view of this record's fields; valid while the record is unchanged.
  RecordView View() const { return RecordView{rid, title, authors, payload}; }

  /// Serializes to "rid<TAB>title<TAB>authors<TAB>payload".
  std::string ToLine() const;

  /// Parses a serialized record line.
  static Result<Record> FromLine(const std::string& line);

  friend bool operator==(const Record& a, const Record& b) {
    return a.rid == b.rid && a.title == b.title && a.authors == b.authors &&
           a.payload == b.payload;
  }
};

/// Serializes a record collection, one line each.
std::vector<std::string> RecordsToLines(const std::vector<Record>& records);

/// Parses a full file of record lines.
Result<std::vector<Record>> RecordsFromLines(
    const std::vector<std::string>& lines);

}  // namespace fj::data
