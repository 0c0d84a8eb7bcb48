// Durable file primitives shared by every crash-tolerant artifact: the
// append-only JSONL logs (dvs-checkpoint-v1, dvs-events-v1) and the
// atomically replaced snapshots (status.json, metrics.om).
//
// JSONL contract: line 1 is a header object carrying a "schema" member,
// every later line is one record.  A SIGKILL can tear the last line; the
// writer truncates such a tail back to the last complete line before it
// appends (appending after the fragment would glue the next record onto
// it and hide every later record from readers), and the loader keeps the
// records up to the first torn one.
#pragma once

#include <fstream>
#include <functional>
#include <string>

#include "common/json.hpp"

namespace dvs::durable {

/// Append-only JSONL writer.  The caller writes one JSON object to out()
/// and then calls end_record().
class JsonlAppender {
 public:
  /// Truncates a torn trailing line, opens `path` for append, and writes
  /// `header` as line 1 when the file is empty.  Throws std::runtime_error
  /// when the file cannot be opened.
  JsonlAppender(const std::string& path, const std::string& header);

  std::ostream& out() { return out_; }
  /// Terminates the record written to out(); `flush` makes it durable now.
  void end_record(bool flush);
  void flush() { out_.flush(); }

 private:
  std::ofstream out_;
};

/// Streams the intact prefix of a JSONL file: a missing file yields
/// nothing; a line carrying a "schema" member is the header and must name
/// `schema` (else std::runtime_error) — it goes to `on_header`; every other
/// line goes to `on_record`.  Loading stops at the first unparsable line,
/// at the first record for which `on_record` returns false, and at the
/// first record whose handler throws std::runtime_error (a shape-torn
/// record).
void load_jsonl(const std::string& path, const std::string& schema,
                const std::function<void(const json::Value&)>& on_header,
                const std::function<bool(const json::Value&)>& on_record);

/// Writes `text` to `path + ".tmp"` and renames it over `path`, so a reader
/// sees either the old or the new document, never half of one.  Throws
/// std::runtime_error on I/O failure.
void replace_atomic(const std::string& path, const std::string& text);

}  // namespace dvs::durable
