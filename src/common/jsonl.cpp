#include "common/jsonl.hpp"

#include <cstdio>
#include <cstdlib>
#include <istream>
#include <sstream>

#include "common/error.hpp"

namespace smtbal::jsonl {

void fail(std::string_view source, std::size_t line,
          const std::string& message) {
  std::ostringstream os;
  os << source << ":" << line << ": " << message;
  throw InvalidArgument(os.str());
}

namespace {

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

Record parse_flat_object(const std::string& text, std::string_view source,
                         std::size_t line) {
  Record record;
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
  };
  const auto expect = [&](char c, const std::string& what) {
    skip_ws();
    if (i >= text.size() || text[i] != c) {
      fail(source, line, "expected " + what);
    }
    ++i;
  };
  const auto parse_string = [&]() -> std::string {
    expect('"', "'\"'");
    std::string out;
    while (i < text.size() && text[i] != '"') {
      char c = text[i++];
      if (c == '\\') {
        if (i >= text.size()) fail(source, line, "unterminated escape");
        const char esc = text[i++];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'u': {
            // Only the control bytes json_escape writes as \u00XX.
            unsigned code = 0;
            for (int k = 0; k < 4; ++k) {
              const int digit = i < text.size() ? hex_digit(text[i]) : -1;
              if (digit < 0) fail(source, line, "malformed escape '\\u'");
              code = code * 16 + static_cast<unsigned>(digit);
              ++i;
            }
            if (code >= 0x20) {
              fail(source, line,
                   "unsupported escape '\\u" + text.substr(i - 4, 4) +
                       "' (only control bytes below 0x20)");
            }
            c = static_cast<char>(code);
            break;
          }
          default:
            fail(source, line,
                 std::string("unsupported escape '\\") + esc + "'");
        }
      }
      out.push_back(c);
    }
    if (i >= text.size()) fail(source, line, "unterminated string");
    ++i;  // closing quote
    return out;
  };

  expect('{', "'{' (one JSON object per line)");
  skip_ws();
  if (i < text.size() && text[i] == '}') {
    ++i;
  } else {
    for (;;) {
      skip_ws();
      const std::string key = parse_string();
      expect(':', "':' after key \"" + key + "\"");
      skip_ws();
      Field field;
      if (i < text.size() && text[i] == '"') {
        field.is_string = true;
        field.text = parse_string();
      } else {
        const std::size_t start = i;
        while (i < text.size() && text[i] != ',' && text[i] != '}' &&
               text[i] != ' ' && text[i] != '\t') {
          ++i;
        }
        field.text = text.substr(start, i - start);
        if (field.text.empty()) {
          fail(source, line, "missing value for key \"" + key + "\"");
        }
      }
      if (!record.emplace(key, std::move(field)).second) {
        fail(source, line, "duplicate key \"" + key + "\"");
      }
      skip_ws();
      if (i < text.size() && text[i] == ',') {
        ++i;
        continue;
      }
      break;
    }
    expect('}', "',' or '}'");
  }
  skip_ws();
  if (i != text.size()) {
    fail(source, line, "trailing characters after the JSON object");
  }
  return record;
}

const Field& require_field(const Record& record, const std::string& key,
                           std::string_view source, std::size_t line) {
  const auto it = record.find(key);
  if (it == record.end()) {
    fail(source, line, "missing required field \"" + key + "\"");
  }
  return it->second;
}

std::string require_string(const Record& record, const std::string& key,
                           std::string_view source, std::size_t line) {
  const Field& field = require_field(record, key, source, line);
  if (!field.is_string) {
    fail(source, line, "field \"" + key + "\" must be a string");
  }
  return field.text;
}

double require_number(const Record& record, const std::string& key,
                      std::string_view source, std::size_t line) {
  const Field& field = require_field(record, key, source, line);
  if (field.is_string) {
    fail(source, line, "field \"" + key + "\" must be a number");
  }
  const char* begin = field.text.c_str();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  if (end != begin + field.text.size()) {
    fail(source, line,
         "field \"" + key + "\" is not a number: '" + field.text + "'");
  }
  return value;
}

double optional_number(const Record& record, const std::string& key,
                       double fallback, std::string_view source,
                       std::size_t line) {
  return record.count(key) ? require_number(record, key, source, line)
                           : fallback;
}

std::uint64_t require_count(const Record& record, const std::string& key,
                            std::string_view source, std::size_t line) {
  const double value = require_number(record, key, source, line);
  if (value < 0.0 ||
      value != static_cast<double>(static_cast<std::uint64_t>(value))) {
    fail(source, line, "field \"" + key + "\" must be a non-negative integer");
  }
  return static_cast<std::uint64_t>(value);
}

void read_feed(std::istream& in, std::string_view source,
               const FeedFormat& format, const RecordHandler& on_meta,
               const RecordHandler& on_body) {
  bool have_meta = false;
  std::string line_text;
  std::size_t line = 0;
  while (std::getline(in, line_text)) {
    ++line;
    if (line_text.find_first_not_of(" \t\r") == std::string::npos) continue;
    if (line_text.back() == '\r') line_text.pop_back();
    const Record record = parse_flat_object(line_text, source, line);
    const std::string schema = require_string(record, "schema", source, line);
    if (schema != format.schema) {
      fail(source, line,
           "unsupported schema '" + schema + "' (expected '" +
               std::string(format.schema) + "')");
    }
    const std::string type = require_string(record, "type", source, line);
    if (type == "meta") {
      if (have_meta) fail(source, line, "duplicate meta record");
      on_meta(record, line);
      have_meta = true;
      continue;
    }
    if (type != format.body_type) {
      fail(source, line, "unknown record type '" + type + "'");
    }
    if (!have_meta) {
      fail(source, line,
           std::string(format.body_type) + " record before the meta record");
    }
    on_body(record, line);
  }
  if (!have_meta) {
    throw InvalidArgument(std::string(source) + ": empty " +
                          std::string(format.name) + " (no meta record)");
  }
}

std::string json_num(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_escape(std::string_view text) {
  std::string out;
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace smtbal::jsonl
