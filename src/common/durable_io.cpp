#include "common/durable_io.hpp"

#include <filesystem>
#include <stdexcept>

namespace dvs::durable {
namespace fs = std::filesystem;

namespace {

/// Cuts a torn final line (no trailing newline) back to the last complete
/// line.  The torn record was never durable: the unit it described is
/// simply redone, and a lifecycle transition is re-narrated by recovery.
void truncate_torn_tail(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec || size == 0) return;
  std::ifstream in(path, std::ios::binary);
  in.seekg(-1, std::ios::end);
  if (in.get() == '\n') return;
  in.seekg(0);
  const std::string content{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
  const std::size_t nl = content.rfind('\n');
  fs::resize_file(path, nl == std::string::npos ? 0 : nl + 1, ec);
}

}  // namespace

JsonlAppender::JsonlAppender(const std::string& path,
                             const std::string& header) {
  truncate_torn_tail(path);
  std::error_code ec;
  const bool fresh = !fs::exists(path, ec) || fs::file_size(path, ec) == 0;
  out_.open(path, std::ios::app);
  if (!out_) throw std::runtime_error("cannot open " + path);
  if (fresh) {
    out_ << header;
    end_record(true);
  }
}

void JsonlAppender::end_record(bool flush) {
  out_ << '\n';
  if (flush) out_.flush();
}

void load_jsonl(const std::string& path, const std::string& schema,
                const std::function<void(const json::Value&)>& on_header,
                const std::function<bool(const json::Value&)>& on_record) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    json::ValuePtr doc;
    try {
      doc = json::parse(line);
    } catch (const json::ParseError&) {
      return;  // torn tail after a SIGKILL: keep the intact prefix
    }
    if (const json::Value* s = doc->find("schema"); s != nullptr) {
      if (!s->is_string() || s->as_string() != schema) {
        throw std::runtime_error(path + ": header schema is not \"" + schema +
                                 "\"");
      }
      on_header(*doc);
      continue;
    }
    try {
      if (!on_record(*doc)) return;
    } catch (const std::runtime_error&) {
      return;  // shape-torn record: stop at the prefix
    }
  }
}

void replace_atomic(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    if (!os) throw std::runtime_error("cannot open " + tmp);
    os << text;
    os.flush();
    if (!os) throw std::runtime_error("write failed: " + tmp);
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    throw std::runtime_error("rename to " + path + ": " + ec.message());
  }
}

}  // namespace dvs::durable
