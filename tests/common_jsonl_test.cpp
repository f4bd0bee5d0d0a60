#include "common/jsonl.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"

namespace smtbal::jsonl {
namespace {

TEST(Jsonl, EscapeRoundTripsEveryControlByte) {
  std::string text = "a\"b\\c";
  for (int byte = 0x01; byte < 0x20; ++byte) {
    text.push_back(static_cast<char>(byte));
  }
  const std::string escaped = json_escape(text);
  for (const char c : escaped) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << "raw control byte";
  }
  EXPECT_NE(escaped.find("\\n"), std::string::npos);
  EXPECT_NE(escaped.find("\\t"), std::string::npos);
  EXPECT_NE(escaped.find("\\r"), std::string::npos);
  EXPECT_NE(escaped.find("\\u0001"), std::string::npos);
  EXPECT_NE(escaped.find("\\u001f"), std::string::npos);

  const Record record =
      parse_flat_object("{\"k\":\"" + escaped + "\"}", "t.jsonl", 1);
  EXPECT_EQ(require_string(record, "k", "t.jsonl", 1), text);
}

TEST(Jsonl, UnicodeEscapesAboveControlBytesAreRejected) {
  EXPECT_EQ(require_string(parse_flat_object("{\"k\":\"\\u001F\"}", "t", 1),
                           "k", "t", 1),
            "\x1f");
  EXPECT_THROW((void)parse_flat_object("{\"k\":\"\\u0020\"}", "t", 1),
               InvalidArgument);
  EXPECT_THROW((void)parse_flat_object("{\"k\":\"\\u00g1\"}", "t", 1),
               InvalidArgument);
  EXPECT_THROW((void)parse_flat_object("{\"k\":\"\\u00\"}", "t", 1),
               InvalidArgument);
}

}  // namespace
}  // namespace smtbal::jsonl
