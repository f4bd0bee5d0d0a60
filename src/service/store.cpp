#include "service/store.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <utility>

#include "common/error.hpp"
#include "common/jsonl.hpp"
#include "smt/sampler.hpp"

namespace smtbal::service {

namespace {

std::string key_hex(std::uint64_t key) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "0x%016llx",
                static_cast<unsigned long long>(key));
  return buffer;
}

/// Parses the journal's "0x%016x" key field back to the integer.
std::optional<std::uint64_t> parse_key_hex(const std::string& text) {
  if (text.size() != 18 || text[0] != '0' || text[1] != 'x') {
    return std::nullopt;
  }
  std::uint64_t key = 0;
  for (std::size_t i = 2; i < text.size(); ++i) {
    const char c = text[i];
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a') + 10;
    } else {
      return std::nullopt;
    }
    key = key << 4 | digit;
  }
  return key;
}

}  // namespace

std::uint64_t canonical_key(std::string_view canonical) {
  // The ChipLoad::key() chain mix, word-for-word: seed from the length,
  // one splitmix64 round per 8-byte word (the trailing partial word is
  // zero-padded), and the finishing fold over (word count, length). The
  // canonical text is what disambiguates the 2^-64 residual risk — see
  // ResultStore's collision check.
  const std::size_t words = (canonical.size() + 7) / 8;
  std::uint64_t state = smt::ChipLoad::chain_seed(canonical.size());
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t word = 0;
    const std::size_t begin = w * 8;
    const std::size_t count = std::min<std::size_t>(8, canonical.size() - begin);
    std::memcpy(&word, canonical.data() + begin, count);
    state = smt::ChipLoad::chain_mix(state, word);
  }
  return smt::ChipLoad::chain_finish(state, words, canonical.size());
}

std::pair<std::uint64_t, ResultStore::Entry> ResultStore::parse_entry(
    const std::string& text, const std::string& path, std::size_t line) {
  const jsonl::Record record = jsonl::parse_flat_object(text, path, line);
  const std::string schema = jsonl::require_string(record, "schema", path, line);
  if (schema != kStoreSchema) {
    jsonl::fail(path, line,
                "unsupported schema '" + schema + "' (expected '" +
                    std::string(kStoreSchema) + "')");
  }
  const std::string type = jsonl::require_string(record, "type", path, line);
  if (type != "entry") {
    jsonl::fail(path, line, "unknown record type '" + type + "'");
  }
  const std::string key_text = jsonl::require_string(record, "key", path, line);
  const std::optional<std::uint64_t> key = parse_key_hex(key_text);
  if (!key) {
    jsonl::fail(path, line,
                "field \"key\" is not a 0x-prefixed 16-digit hex value: '" +
                    key_text + "'");
  }
  Entry entry;
  entry.canonical = jsonl::require_string(record, "request", path, line);
  if (*key != canonical_key(entry.canonical)) {
    jsonl::fail(path, line,
                "key " + key_text +
                    " does not re-derive from the stored request "
                    "(corrupted entry)");
  }
  entry.result.exec_time = jsonl::require_number(record, "exec_time", path, line);
  entry.result.imbalance = jsonl::require_number(record, "imbalance", path, line);
  entry.result.events = jsonl::require_count(record, "events", path, line);
  entry.result.priority_resets =
      jsonl::require_count(record, "priority_resets", path, line);
  return {*key, std::move(entry)};
}

void ResultStore::open(const std::string& path) {
  const std::lock_guard<std::mutex> lock(mutex_);
  SMTBAL_REQUIRE(!journal_.is_open(), "ResultStore::open called twice");
  SMTBAL_REQUIRE(entries_.empty(),
                 "ResultStore::open must precede lookups and publishes");

  // Replay the journal, if one exists (a fresh path is not an error).
  std::string text;
  if (std::ifstream in(path, std::ios::binary); in) {
    text.assign(std::istreambuf_iterator<char>(in), {});
  }
  // A final line without its newline is a write cut short by a crash.
  // If it does not parse it is dropped from the file; if it does, it is
  // kept and terminated, so the next append starts on a clean line.
  std::size_t line = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    ++line;
    const std::size_t newline = text.find('\n', pos);
    const bool tail = newline == std::string::npos;
    std::string line_text =
        text.substr(pos, tail ? std::string::npos : newline - pos);
    const std::size_t line_start = pos;
    pos = tail ? text.size() : newline + 1;
    if (line_text.find_first_not_of(" \t\r") == std::string::npos) continue;
    if (line_text.back() == '\r') line_text.pop_back();
    std::pair<std::uint64_t, Entry> parsed;
    try {
      parsed = parse_entry(line_text, path, line);
    } catch (const InvalidArgument&) {
      if (!tail) throw;
      std::error_code error;
      std::filesystem::resize_file(path, line_start, error);
      if (error) {
        throw SimulationError("cannot truncate the cut-short last line of "
                              "result-store journal '" +
                              path + "': " + error.message());
      }
      text.resize(line_start);  // keep `text` equal to the file
      ++stats_.truncated_tails;
      break;
    }
    auto& [key, entry] = parsed;
    const auto it = entries_.find(key);
    if (it != entries_.end() && it->second.canonical != entry.canonical) {
      jsonl::fail(path, line,
                  "key " + key_hex(key) +
                      " already loaded for a different request "
                      "(corrupted journal)");
    }
    if (it == entries_.end()) entries_.emplace(key, std::move(entry));
    ++stats_.loaded;
  }

  path_ = path;
  journal_.open(path, std::ios::app);
  if (!journal_) {
    throw SimulationError("cannot open result-store journal '" + path +
                          "' for appending");
  }
  if (!text.empty() && text.back() != '\n') {
    journal_ << '\n';
    check_journal();
  }
}

std::optional<EvalResult> ResultStore::lookup(std::uint64_t key,
                                              std::string_view canonical) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  if (it->second.canonical != canonical) {
    ++stats_.collisions;
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  return it->second.result;
}

void ResultStore::publish(std::uint64_t key, std::string_view canonical,
                          const EvalResult& result) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.canonical != canonical) ++stats_.collisions;
    return;  // first writer wins; a matching re-publish is idempotent
  }
  Entry entry{std::string(canonical), result};
  append_journal(key, entry);
  entries_.emplace(key, std::move(entry));
  ++stats_.inserts;
}

void ResultStore::append_journal(std::uint64_t key, const Entry& entry) {
  if (!journal_.is_open()) return;
  journal_ << "{\"schema\":\"" << kStoreSchema
           << "\",\"type\":\"entry\",\"key\":\"" << key_hex(key)
           << "\",\"request\":\"" << jsonl::json_escape(entry.canonical)
           << "\",\"exec_time\":" << jsonl::json_num(entry.result.exec_time)
           << ",\"imbalance\":" << jsonl::json_num(entry.result.imbalance)
           << ",\"events\":" << entry.result.events
           << ",\"priority_resets\":" << entry.result.priority_resets << "}\n";
  check_journal();
}

void ResultStore::check_journal() {
  journal_.flush();
  if (!journal_) {
    throw SimulationError("cannot append to result-store journal '" + path_ +
                          "'");
  }
}

ResultStore::Stats ResultStore::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace smtbal::service
