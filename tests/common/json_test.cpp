// The minimal JSON reader backing `dvs_sim report` — exercised against the
// shapes this repo's writers emit plus the malformed-input edges.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

namespace dvs::json {
namespace {

TEST(Json, ParsesScalarsAndNesting) {
  const ValuePtr v = parse(
      R"({"a": 1.5, "b": "text", "c": true, "d": null, "e": [1, 2, 3],)"
      R"( "f": {"nested": -2e3}})");
  EXPECT_DOUBLE_EQ(v->at("a").as_number(), 1.5);
  EXPECT_EQ(v->at("b").as_string(), "text");
  EXPECT_TRUE(v->at("c").as_bool());
  EXPECT_TRUE(v->at("d").is_null());
  ASSERT_EQ(v->at("e").as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(v->at("e").as_array()[2]->as_number(), 3.0);
  EXPECT_DOUBLE_EQ(v->at("f").at("nested").as_number(), -2000.0);
}

TEST(Json, StringEscapes) {
  const ValuePtr v = parse(R"({"s": "a\"b\\c\nd\teA"})");
  EXPECT_EQ(v->at("s").as_string(), "a\"b\\c\nd\teA");
}

TEST(Json, BoundedIntegerReaderChecksBeforeNarrowing) {
  const ValuePtr v = parse(
      R"({"n": 7, "neg": -3, "big": 1e30, "frac": 2.5, "s": "7", "edge": 100})");
  EXPECT_EQ(v->int_or("n", 0, 0, 100), 7);
  EXPECT_EQ(v->int_or("neg", 0, -5, 5), -3);
  EXPECT_EQ(v->int_or("edge", 0, 0, 100), 100);
  EXPECT_EQ(v->int_or("missing", 42, 0, 10), 42);  // fallback is not checked
  EXPECT_THROW((void)v->int_or("big", 0, 0, std::int64_t{1} << 53), ParseError);
  EXPECT_THROW((void)v->int_or("frac", 0, 0, 100), ParseError);
  EXPECT_THROW((void)v->int_or("neg", 0, 0, 100), ParseError);
  EXPECT_THROW((void)v->int_or("edge", 0, 0, 99), ParseError);
  EXPECT_THROW((void)v->int_or("s", 0, 0, 100), ParseError);
  try {
    (void)v->int_or("big", 0, 0, 10);
    ADD_FAILURE() << "1e30 accepted";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("\"big\""), std::string::npos)
        << e.what();
  }
}

TEST(Json, RoundTripsSeventeenDigitDoubles) {
  // The writers emit %.17g; the reader must give back the identical bits.
  const double x = 420.08444157537798;
  char buf[64];
  std::snprintf(buf, sizeof buf, "[%.17g]", x);
  const ValuePtr v = parse(buf);
  EXPECT_EQ(v->as_array()[0]->as_number(), x);
}

TEST(Json, HelperAccessors) {
  const ValuePtr v = parse(R"({"n": 2, "s": "x"})");
  EXPECT_DOUBLE_EQ(v->number_or("n", -1.0), 2.0);
  EXPECT_DOUBLE_EQ(v->number_or("missing", -1.0), -1.0);
  EXPECT_EQ(v->string_or("s", "d"), "x");
  EXPECT_EQ(v->string_or("missing", "d"), "d");
  EXPECT_EQ(v->find("missing"), nullptr);
  EXPECT_THROW(v->at("missing"), ParseError);
  EXPECT_THROW(v->at("n").as_string(), ParseError);
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW(parse(""), ParseError);
  EXPECT_THROW(parse("{"), ParseError);
  EXPECT_THROW(parse("{\"a\":}"), ParseError);
  EXPECT_THROW(parse("[1,]"), ParseError);
  EXPECT_THROW(parse("{} trailing"), ParseError);
  EXPECT_THROW(parse("tru"), ParseError);
  EXPECT_THROW(parse("\"unterminated"), ParseError);
  EXPECT_THROW(parse("1.e5"), ParseError);
}

TEST(Json, DeepNestingThrowsParseErrorInsteadOfOverflowingTheStack) {
  EXPECT_THROW((void)parse(std::string(200000, '[')), ParseError);
  // The limit is generous for every document this repo writes.
  const std::string ok =
      std::string(kMaxDepth, '[') + std::string(kMaxDepth, ']');
  EXPECT_NO_THROW((void)parse(ok));
  const std::string deep =
      std::string(kMaxDepth + 1, '[') + std::string(kMaxDepth + 1, ']');
  EXPECT_THROW((void)parse(deep), ParseError);
}

TEST(Json, EscapeProducesParseableStringsForEveryByte) {
  std::string all;
  for (int c = 1; c < 256; ++c) all.push_back(static_cast<char>(c));
  const std::string doc = "\"" + escape(all) + "\"";
  for (char c : doc) EXPECT_GE(static_cast<unsigned char>(c), 0x20);
  // The reader maps \u00XX back to the byte; bytes >= 0x80 pass verbatim.
  EXPECT_EQ(parse(doc)->as_string(), all);
  EXPECT_EQ(escape("a\"b\\"), "a\\\"b\\\\");
  EXPECT_EQ(escape("\r\x01"), "\\r\\u0001");
}

TEST(Json, ParseFileReportsPathOnFailure) {
  EXPECT_THROW(parse_file("/nonexistent/nope.json"), ParseError);
  const std::string path = ::testing::TempDir() + "json_test_doc.json";
  {
    std::ofstream os(path);
    os << R"({"k": [true, false]})";
  }
  const ValuePtr v = parse_file(path);
  EXPECT_FALSE(v->at("k").as_array()[1]->as_bool());
  std::remove(path.c_str());
}

TEST(Json, ParseFileRefusesFilesOverTheSizeLimit) {
  const std::string path = ::testing::TempDir() + "json_test_big.json";
  // A valid document padded with whitespace to one byte over the limit;
  // sparse, so the padding costs no disk.  (Sparse bytes read as NULs,
  // which the parser would reject too: the message tells the causes apart.)
  {
    std::ofstream os(path, std::ios::binary);
    os << "{}";
    os.seekp(static_cast<std::streamoff>(kMaxFileBytes));
    os.put(' ');
  }
  try {
    (void)parse_file(path);
    ADD_FAILURE() << "oversized file parsed";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("limit"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dvs::json
