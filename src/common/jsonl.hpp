// Strict line-oriented flat-JSON tokenizer shared by every JSONL schema
// in the repo (smtbal.trace-replay/1, smtbal.evalreq/1, the evaluation
// service's result-store journal), plus the meta-first feed reader the
// first two share.
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
#include <functional>
#include <iosfwd>
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

/// A meta-first feed: every record carries "schema": `schema`; one record
/// has "type":"meta" and must come first, every other record has
/// "type": `body_type`.
struct FeedFormat {
  std::string_view schema;
  std::string_view body_type;  ///< e.g. "interval", "eval"
  std::string_view name;       ///< noun for an empty feed, e.g. "trace"
};

using RecordHandler = std::function<void(const Record&, std::size_t line)>;

/// Reads a meta-first feed: skips blank lines, strips a trailing CR, and
/// hands the meta record to `on_meta` and each body record to `on_body`
/// with its 1-based line number. Throws InvalidArgument on a wrong
/// schema, an unknown type, a second meta record, a body record before
/// the meta record ("<source>:<line>: ...") and on a feed without a meta
/// record ("<source>: empty <name> (no meta record)").
void read_feed(std::istream& in, std::string_view source,
               const FeedFormat& format, const RecordHandler& on_meta,
               const RecordHandler& on_body);

/// JSON number that round-trips a double exactly (17 significant digits).
[[nodiscard]] std::string json_num(double value);

/// Escapes `"`, `\` and every byte below 0x20 (`\n`, `\t` and `\r` by
/// name, the rest as `\u00XX`), so any text — labels, error messages,
/// multi-line trace bodies stored in the result-store journal — survives
/// a JSONL round trip through parse_flat_object.
[[nodiscard]] std::string json_escape(std::string_view text);

}  // namespace smtbal::jsonl
