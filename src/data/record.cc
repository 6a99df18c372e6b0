#include "data/record.h"

#include "common/string_util.h"

namespace fj::data {

std::string Record::ToLine() const {
  std::string line;
  line.reserve(24 + title.size() + authors.size() + payload.size());
  line += std::to_string(rid);
  line += '\t';
  line += title;
  line += '\t';
  line += authors;
  line += '\t';
  line += payload;
  return line;
}

void RecordView::JoinAttributeInto(std::string* out) const {
  out->reserve(title.size() + 1 + authors.size());
  out->assign(title);
  out->push_back(' ');
  out->append(authors);
}

Result<RecordView> RecordView::FromLine(const std::string& line) {
  // The first three tabs end rid, title and authors; the payload keeps
  // everything after the third, tabs included.
  const std::string_view rest(line);
  size_t ends[3];
  size_t start = 0;
  for (size_t& end : ends) {
    end = rest.find('\t', start);
    if (end == std::string_view::npos) {
      return Status::InvalidArgument("bad record line (want 4 fields): " +
                                     fj::ErrorExcerpt(line));
    }
    start = end + 1;
  }
  FJ_ASSIGN_OR_RETURN(uint64_t rid, fj::ParseUint64(rest.substr(0, ends[0])));
  RecordView view;
  view.rid = rid;
  view.title = rest.substr(ends[0] + 1, ends[1] - ends[0] - 1);
  view.authors = rest.substr(ends[1] + 1, ends[2] - ends[1] - 1);
  view.payload = rest.substr(ends[2] + 1);
  return view;
}

Result<Record> Record::FromLine(const std::string& line) {
  FJ_ASSIGN_OR_RETURN(RecordView view, RecordView::FromLine(line));
  Record record;
  record.rid = view.rid;
  record.title = view.title;
  record.authors = view.authors;
  record.payload = view.payload;
  return record;
}

std::vector<std::string> RecordsToLines(const std::vector<Record>& records) {
  std::vector<std::string> lines;
  lines.reserve(records.size());
  for (const auto& r : records) lines.push_back(r.ToLine());
  return lines;
}

Result<std::vector<Record>> RecordsFromLines(
    const std::vector<std::string>& lines) {
  std::vector<Record> records;
  records.reserve(lines.size());
  for (const auto& line : lines) {
    FJ_ASSIGN_OR_RETURN(Record record, Record::FromLine(line));
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace fj::data
