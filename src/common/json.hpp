// Minimal recursive-descent JSON reader for the analyzer tooling (the
// `dvs-sim report` subcommand ingests metrics/ledger JSON written by this
// repo).  Deliberately small: objects, arrays, strings (with the common
// escapes), doubles, bools, null.  No external dependencies — the container
// image is frozen.
//
// Nesting is bounded (kMaxDepth) and so is the file size parse_file reads
// (kMaxFileBytes): a hostile document fails with ParseError instead of
// exhausting the stack or the memory.
//
// The reader is the bulk of this file; JSON writing stays hand-rolled at
// the emission sites where the format lives next to the data, but every
// writer spells strings with escape() and round-trip doubles with fmt17().
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace dvs::json {

class Value;
using ValuePtr = std::shared_ptr<Value>;

enum class Type : std::uint8_t { Null, Bool, Number, String, Array, Object };

/// Thrown on malformed input, with a byte offset in the message.
class ParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Value {
 public:
  Value() = default;

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::Null; }
  [[nodiscard]] bool is_object() const { return type_ == Type::Object; }
  [[nodiscard]] bool is_array() const { return type_ == Type::Array; }
  [[nodiscard]] bool is_number() const { return type_ == Type::Number; }
  [[nodiscard]] bool is_string() const { return type_ == Type::String; }

  /// Typed accessors; throw ParseError when the type does not match (the
  /// analyzer treats a shape mismatch the same as a syntax error).
  [[nodiscard]] double as_number() const;
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<ValuePtr>& as_array() const;
  [[nodiscard]] const std::map<std::string, ValuePtr>& as_object() const;

  /// Object member lookup; null pointer when absent or not an object.
  [[nodiscard]] const Value* find(const std::string& key) const;
  /// Object member that must exist, else ParseError naming the key.
  [[nodiscard]] const Value& at(const std::string& key) const;

  /// Convenience: member `key` as a number/string, or `fallback` when the
  /// member is absent.  Wrong-typed members still throw.
  [[nodiscard]] double number_or(const std::string& key, double fallback) const;
  [[nodiscard]] std::string string_or(const std::string& key,
                                      std::string fallback) const;
  /// Member `key` as a whole number in [lo, hi], or `fallback` when the
  /// member is absent.  A member that is not a number, has a fraction, or
  /// lies outside the range throws ParseError naming the key; the check
  /// runs on the double, so no out-of-range value reaches a narrowing
  /// cast.  lo and hi must lie within +-2^53, where doubles are exact.
  [[nodiscard]] std::int64_t int_or(const std::string& key,
                                    std::int64_t fallback, std::int64_t lo,
                                    std::int64_t hi) const;

 private:
  friend class Parser;
  Type type_ = Type::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<ValuePtr> array_;
  std::map<std::string, ValuePtr> object_;
};

/// Deepest array/object nesting parse() accepts; deeper input throws
/// ParseError.  Nothing this repo writes nests more than a few levels.
inline constexpr int kMaxDepth = 256;

/// Parses one JSON document; trailing non-whitespace is an error.
ValuePtr parse(const std::string& text);

/// Largest file parse_file() reads.  Nothing this repo writes comes near
/// it; a bigger file (a hostile or runaway job file in a serve queue) fails
/// with ParseError before any of it is read into memory.
inline constexpr std::uintmax_t kMaxFileBytes = 64u << 20;

/// Reads and parses a whole file; ParseError mentions the path.
ValuePtr parse_file(const std::string& path);

/// The body of a JSON string literal for `s`: escapes the quote and the
/// backslash, spells \n \t \r, and writes every other byte below 0x20 as
/// \u00XX, so no raw control byte ever reaches a JSONL line.
std::string escape(std::string_view s);

/// %.17g: the round-trip-exact double spelling of the durable writers
/// (strtod gives back the identical bits).
std::string fmt17(double v);

}  // namespace dvs::json
