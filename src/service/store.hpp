// Persistent cross-run result store for the evaluation service.
//
// Results are keyed by a 64-bit canonical-request hash derived with the
// same splitmix64 chain mix as smt::ChipLoad::key() (chain_seed /
// chain_mix / chain_finish over the canonical request text). A 64-bit
// hash can collide, so the store is collision-*checked*, never
// collision-trusting: every entry stores the canonicalized request text
// alongside the payload, lookups verify it, and a mismatch is served as a
// miss (counted in Stats::collisions) instead of returning the wrong
// run's numbers. First writer wins a collided key; the loser is simply
// never cached.
//
// Persistence is an append-only JSONL journal (schema smtbal.evalstore/1)
// that reloads on open(), so repeat queries hit across daemon restarts:
//
//   {"schema":"smtbal.evalstore/1","type":"entry","key":"0x0123...",
//    "request":"scenario{seed=42 ...} policy{dynamic}",
//    "exec_time":1.25,"imbalance":0.04,"events":310,"priority_resets":2}
//
// A corrupted journal line — malformed JSON, a key field that does not
// re-derive from the stored request, out-of-range numbers — fails open()
// with an InvalidArgument naming the file and 1-based line number rather
// than silently serving damaged results. The one exception is a final
// line without its newline that does not parse: a write cut short by a
// crash. open() truncates the file to the last newline and counts it in
// Stats::truncated_tails. A failed append throws SimulationError.
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "service/request.hpp"

namespace smtbal::service {

inline constexpr std::string_view kStoreSchema = "smtbal.evalstore/1";

/// Canonical-request hash: the ChipLoad::key() chain mix over the text's
/// 8-byte little-endian words, with the byte length folded into the seed
/// and the final round exactly as chain_finish does for chip loads.
[[nodiscard]] std::uint64_t canonical_key(std::string_view canonical);

class ResultStore {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /// Lookups/publishes whose key matched an entry with a *different*
    /// canonical request — the 2^-64 event the canonical text guards
    /// against (served as a miss, never as the other request's result).
    std::uint64_t collisions = 0;
    std::uint64_t inserts = 0;
    /// Entries reloaded from the journal by open().
    std::uint64_t loaded = 0;
    /// Cut-short final journal lines that open() dropped from the file.
    std::uint64_t truncated_tails = 0;

    [[nodiscard]] double hit_rate() const {
      const std::uint64_t lookups = hits + misses;
      return lookups ? static_cast<double>(hits) / static_cast<double>(lookups)
                     : 0.0;
    }
  };

  /// In-memory store; nothing persists.
  ResultStore() = default;

  /// Binds the store to a journal file: replays every existing entry
  /// (line-numbered InvalidArgument on corruption; a cut-short final line
  /// is truncated away instead), then appends each publish. Call at most
  /// once, before any lookup/publish.
  void open(const std::string& path);

  /// The payload for `key`, provided the stored canonical request matches
  /// `canonical` byte-for-byte. Counts a hit, a miss, or a collision
  /// (collisions also count as misses — the caller re-evaluates).
  [[nodiscard]] std::optional<EvalResult> lookup(std::uint64_t key,
                                                 std::string_view canonical);

  /// Inserts (key -> canonical, result) and appends it to the journal.
  /// Re-publishing an existing key is a no-op when the canonical matches
  /// (idempotent) and a counted collision when it does not — the original
  /// entry is kept.
  void publish(std::uint64_t key, std::string_view canonical,
               const EvalResult& result);

  [[nodiscard]] Stats stats() const;

 private:
  struct Entry {
    std::string canonical;
    EvalResult result;
  };

  /// Parses one journal line into its key and entry; throws
  /// InvalidArgument naming `path`:`line` when it is not a valid entry.
  static std::pair<std::uint64_t, Entry> parse_entry(const std::string& text,
                                                     const std::string& path,
                                                     std::size_t line);
  void append_journal(std::uint64_t key, const Entry& entry);
  /// Flushes the journal; throws SimulationError if a write failed.
  void check_journal();

  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::ofstream journal_;  ///< open only when bound to a file
  std::string path_;       ///< the journal's path, for error messages
  Stats stats_;
};

}  // namespace smtbal::service
