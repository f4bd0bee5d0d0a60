// Policy registry: every balancing policy in the repo, constructible by
// name from a config string.
//
// A policy spec is `name` or `name:key=value,key=value,...`, e.g.
//   dynamic
//   dynamic:max_diff=2,warmup_epochs=3
//   static:priorities=6/4/4/4
// Unknown names fail with a did-you-mean suggestion (edit distance over
// the registered names); unknown keys fail naming the policy's schema.
//
// Factories receive a PolicyContext describing the engine the policy
// will drive, so policies whose constructors need structural knowledge
// (static's per-rank vector) can be built from a bare string; everything
// else a policy needs it reads from the EngineControl at on_start. The
// tournament harness, the fuzzers and the examples all construct
// policies exclusively through here, so registering a policy makes it
// rankable everywhere at once.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/placement.hpp"
#include "mpisim/hooks.hpp"
#include "mpisim/phase.hpp"

namespace smtbal::policy {

/// What the factory knows about the engine its policy will drive.
struct PolicyContext {
  std::size_t num_ranks = 0;
  /// No factory reads these three; they stay only until the benchmark
  /// harness (perfbench/src/corpus.cpp) stops setting them.
  std::uint32_t threads_per_core = 2;
  const mpisim::Placement* placement = nullptr;
  const cluster::ClusterPlacement* cluster = nullptr;
};

/// Parsed `key=value` pairs of a policy spec, with typed accessors that
/// track which keys the factory consumed so leftovers can be reported.
class ConfigMap {
 public:
  ConfigMap(std::string policy, std::map<std::string, std::string> pairs)
      : policy_(std::move(policy)), pairs_(std::move(pairs)) {}

  [[nodiscard]] int get_int(const std::string& key, int fallback);
  [[nodiscard]] double get_double(const std::string& key, double fallback);
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback);
  /// A `/`-separated int list, e.g. `priorities=6/4/4/4`; empty when the
  /// key is absent.
  [[nodiscard]] std::vector<int> get_int_list(const std::string& key);

  /// Throws InvalidArgument naming the first unconsumed key and `schema`.
  void reject_unknown_keys(std::string_view schema) const;

 private:
  [[nodiscard]] const std::string* find(const std::string& key);

  std::string policy_;
  std::map<std::string, std::string> pairs_;
  std::vector<std::string> consumed_;
};

struct PolicyInfo {
  std::string name;
  std::string summary;
  /// Human-readable config-string schema, shown by --list-policies and in
  /// unknown-key errors. Empty when the policy takes no keys.
  std::string schema;
};

class Registry {
 public:
  using Factory = std::function<std::unique_ptr<mpisim::BalancePolicy>(
      ConfigMap&, const PolicyContext&)>;

  /// The process-wide registry, with every builtin policy registered.
  static Registry& instance();

  /// Registers a policy; throws InvalidArgument on a duplicate name.
  void add(PolicyInfo info, Factory factory);

  /// Builds a policy from `spec` (`name[:key=value,...]`). Throws
  /// InvalidArgument on an empty spec (a value-bearing diagnosis, not a
  /// silent fallback), an unknown name (with a did-you-mean suggestion),
  /// a malformed spec, or unknown/invalid keys.
  [[nodiscard]] std::unique_ptr<mpisim::BalancePolicy> make(
      std::string_view spec, const PolicyContext& context) const;

  /// All registered policies, sorted by name.
  [[nodiscard]] std::vector<PolicyInfo> list() const;

 private:
  struct Entry {
    PolicyInfo info;
    Factory factory;
  };
  std::map<std::string, Entry, std::less<>> entries_;
};

/// Levenshtein distance — exposed for the did-you-mean tests.
[[nodiscard]] std::size_t edit_distance(std::string_view a,
                                        std::string_view b);

}  // namespace smtbal::policy
