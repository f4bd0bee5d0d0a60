// Strict line-oriented flat-JSON tokenizer shared by every JSONL schema
// in the repo (smtbal.trace-replay/1, smtbal.evalreq/1, the evaluation
// service's result-store journal).
//
// One record is one flat JSON object per line — string keys,
// string/number values, no nesting, no arrays. The parser is deliberately
// strict: every malformed line fails with an InvalidArgument naming the
// source and the 1-based line number ("trace.jsonl:7: ..."), so corrupted
// feeds are rejected at the offending line instead of being silently
// skipped. Escapes \" \\ \/ \n \t \r and \u00XX below 0x20 are honoured
// in strings: exactly what json_escape writes, plus \/.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace smtbal::jsonl {

/// One parsed JSON value: the raw text plus whether it was quoted.
struct Field {
  bool is_string = false;
  std::string text;
};

using Record = std::map<std::string, Field>;

/// Throws InvalidArgument("<source>:<line>: <message>").
[[noreturn]] void fail(std::string_view source, std::size_t line,
                       const std::string& message);

/// Parses one flat JSON object — string keys, string/number values, no
/// nesting. Strict enough that every malformed line carries a usable
/// message.
[[nodiscard]] Record parse_flat_object(const std::string& text,
                                       std::string_view source,
                                       std::size_t line);

[[nodiscard]] const Field& require_field(const Record& record,
                                         const std::string& key,
                                         std::string_view source,
                                         std::size_t line);

[[nodiscard]] std::string require_string(const Record& record,
                                         const std::string& key,
                                         std::string_view source,
                                         std::size_t line);

[[nodiscard]] double require_number(const Record& record,
                                    const std::string& key,
                                    std::string_view source,
                                    std::size_t line);

[[nodiscard]] double optional_number(const Record& record,
                                     const std::string& key, double fallback,
                                     std::string_view source,
                                     std::size_t line);

/// require_number restricted to exact non-negative integers.
[[nodiscard]] std::uint64_t require_count(const Record& record,
                                          const std::string& key,
                                          std::string_view source,
                                          std::size_t line);

/// JSON number that round-trips a double exactly (17 significant digits).
[[nodiscard]] std::string json_num(double value);

/// Escapes `"`, `\` and every byte below 0x20 (`\n`, `\t` and `\r` by
/// name, the rest as `\u00XX`), so any text — labels, error messages,
/// multi-line trace bodies stored in the result-store journal — survives
/// a JSONL round trip through parse_flat_object.
[[nodiscard]] std::string json_escape(std::string_view text);

}  // namespace smtbal::jsonl
