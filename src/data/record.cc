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

Result<Record> Record::FromLine(const std::string& line) {
  std::vector<std::string> fields = fj::SplitN(line, '\t', 4);
  if (fields.size() != 4) {
    return Status::InvalidArgument("bad record line (want 4 fields): " +
                                   fj::ErrorExcerpt(line));
  }
  FJ_ASSIGN_OR_RETURN(uint64_t rid, fj::ParseUint64(fields[0]));
  Record record;
  record.rid = rid;
  record.title = std::move(fields[1]);
  record.authors = std::move(fields[2]);
  record.payload = std::move(fields[3]);
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
