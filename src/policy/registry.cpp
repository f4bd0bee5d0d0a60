#include "policy/registry.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>

#include "common/error.hpp"
#include "policy/allocation.hpp"
#include "policy/budget.hpp"
#include "policy/dynamic.hpp"
#include "policy/ilp_pairing.hpp"
#include "policy/repartition.hpp"
#include "policy/static_priority.hpp"
#include "policy/two_level.hpp"

namespace smtbal::policy {

namespace {

std::pair<std::string, std::map<std::string, std::string>> parse_spec(
    std::string_view spec) {
  const std::size_t colon = spec.find(':');
  std::string name{spec.substr(0, colon)};
  std::map<std::string, std::string> pairs;
  if (colon == std::string_view::npos) return {std::move(name), pairs};
  std::string_view rest = spec.substr(colon + 1);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view pair = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    const std::size_t eq = pair.find('=');
    if (pair.empty() || eq == 0 || eq == std::string_view::npos ||
        eq + 1 == pair.size()) {
      throw InvalidArgument("policy spec '" + std::string(spec) +
                            "': expected key=value, got '" +
                            std::string(pair) + "'");
    }
    const auto [it, fresh] = pairs.emplace(pair.substr(0, eq),
                                           pair.substr(eq + 1));
    if (!fresh) {
      throw InvalidArgument("policy spec '" + std::string(spec) +
                            "': duplicate key '" + it->first + "'");
    }
  }
  return {std::move(name), std::move(pairs)};
}

}  // namespace

const std::string* ConfigMap::find(const std::string& key) {
  const auto it = pairs_.find(key);
  if (it == pairs_.end()) return nullptr;
  consumed_.push_back(key);
  return &it->second;
}

int ConfigMap::get_int(const std::string& key, int fallback) {
  const std::string* raw = find(key);
  if (raw == nullptr) return fallback;
  try {
    std::size_t used = 0;
    const int value = std::stoi(*raw, &used);
    if (used != raw->size()) throw std::invalid_argument(*raw);
    return value;
  } catch (const std::exception&) {
    throw InvalidArgument("policy '" + policy_ + "': key '" + key +
                          "' wants an integer, got '" + *raw + "'");
  }
}

double ConfigMap::get_double(const std::string& key, double fallback) {
  const std::string* raw = find(key);
  if (raw == nullptr) return fallback;
  try {
    std::size_t used = 0;
    const double value = std::stod(*raw, &used);
    if (used != raw->size()) throw std::invalid_argument(*raw);
    return value;
  } catch (const std::exception&) {
    throw InvalidArgument("policy '" + policy_ + "': key '" + key +
                          "' wants a number, got '" + *raw + "'");
  }
}

bool ConfigMap::get_bool(const std::string& key, bool fallback) {
  const std::string* raw = find(key);
  if (raw == nullptr) return fallback;
  if (*raw == "true" || *raw == "1") return true;
  if (*raw == "false" || *raw == "0") return false;
  throw InvalidArgument("policy '" + policy_ + "': key '" + key +
                        "' wants true/false, got '" + *raw + "'");
}

std::vector<int> ConfigMap::get_int_list(const std::string& key) {
  const std::string* raw = find(key);
  std::vector<int> values;
  if (raw == nullptr) return values;
  std::string_view rest = *raw;
  while (true) {
    const std::size_t slash = rest.find('/');
    const std::string item{rest.substr(0, slash)};
    try {
      std::size_t used = 0;
      values.push_back(std::stoi(item, &used));
      if (used != item.size()) throw std::invalid_argument(item);
    } catch (const std::exception&) {
      throw InvalidArgument("policy '" + policy_ + "': key '" + key +
                            "' wants /-separated integers, got '" + *raw +
                            "'");
    }
    if (slash == std::string_view::npos) break;
    rest = rest.substr(slash + 1);
  }
  return values;
}

void ConfigMap::reject_unknown_keys(std::string_view schema) const {
  for (const auto& [key, value] : pairs_) {
    if (std::find(consumed_.begin(), consumed_.end(), key) !=
        consumed_.end()) {
      continue;
    }
    std::string message = "policy '" + policy_ + "': unknown key '" + key +
                          "'";
    message += schema.empty() ? " (this policy takes no keys)"
                              : "; the schema is " + std::string(schema);
    throw InvalidArgument(message);
  }
}

std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t substitution =
          diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      diagonal = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitution});
    }
  }
  return row[b.size()];
}

void Registry::add(PolicyInfo info, Factory factory) {
  SMTBAL_REQUIRE(!info.name.empty(), "policy name must not be empty");
  SMTBAL_REQUIRE(factory != nullptr, "policy factory must not be null");
  const std::string name = info.name;
  const auto [it, fresh] =
      entries_.emplace(name, Entry{std::move(info), std::move(factory)});
  if (!fresh) {
    throw InvalidArgument("policy '" + name + "' is already registered");
  }
}

std::unique_ptr<mpisim::BalancePolicy> Registry::make(
    std::string_view spec, const PolicyContext& context) const {
  // An empty spec is almost always a caller bug (an unset --policy
  // variable, a blank config cell); falling through to the unknown-name
  // path would "suggest" whichever registered name is shortest, which is
  // worse than useless. Fail with the real diagnosis instead.
  if (spec.empty()) {
    throw InvalidArgument(
        "empty policy spec — name a registered policy "
        "(run with --list-policies), or use 'none' where the caller "
        "supports an explicit no-policy baseline");
  }
  auto [name, pairs] = parse_spec(spec);
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    std::string message = "unknown policy '" + name + "'";
    std::size_t best = static_cast<std::size_t>(-1);
    std::string_view suggestion;
    for (const auto& [candidate, entry] : entries_) {
      const std::size_t d = edit_distance(name, candidate);
      if (d < best) {
        best = d;
        suggestion = candidate;
      }
    }
    if (!suggestion.empty() &&
        best <= std::max<std::size_t>(2, name.size() / 3)) {
      message += " — did you mean '" + std::string(suggestion) + "'?";
    } else {
      message += "; run with --list-policies to see what is registered";
    }
    throw InvalidArgument(message);
  }
  ConfigMap config(name, std::move(pairs));
  std::unique_ptr<mpisim::BalancePolicy> policy =
      it->second.factory(config, context);
  SMTBAL_CHECK(policy != nullptr);
  config.reject_unknown_keys(it->second.info.schema);
  return policy;
}

bool Registry::contains(std::string_view name) const {
  return entries_.find(name) != entries_.end();
}

std::vector<PolicyInfo> Registry::list() const {
  std::vector<PolicyInfo> infos;
  infos.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) infos.push_back(entry.info);
  return infos;
}

namespace {

DynamicBalancerConfig dynamic_config_from(ConfigMap& config,
                                          const std::string& prefix) {
  DynamicBalancerConfig inner;
  inner.high_priority =
      config.get_int(prefix + "high_priority", inner.high_priority);
  inner.max_diff = config.get_int(prefix + "max_diff", inner.max_diff);
  inner.wait_gap_threshold = config.get_double(prefix + "wait_gap_threshold",
                                               inner.wait_gap_threshold);
  inner.smoothing = config.get_double(prefix + "smoothing", inner.smoothing);
  inner.warmup_epochs =
      config.get_int(prefix + "warmup_epochs", inner.warmup_epochs);
  return inner;
}

/// The three keys of a Cadence; absent keys keep the family's default.
Cadence cadence_from(ConfigMap& config, Cadence c) {
  c.warmup_epochs = config.get_int("warmup_epochs", c.warmup_epochs);
  c.interval = config.get_int("interval", c.interval);
  c.smoothing = config.get_double("smoothing", c.smoothing);
  return c;
}

constexpr const char* kCadenceSchema =
    "warmup_epochs=<n>,interval=<n>,smoothing=<0..1>";

/// The dynamic controller's keys and the ranges its config accepts, each
/// key prefixed with `p` (two-level and repartition use "inner_").
std::string dynamic_schema(const std::string& p) {
  return p + "high_priority=<2..6>," + p + "max_diff=<1.." + p +
         "high_priority-1>," + p + "wait_gap_threshold=<frac>," + p +
         "smoothing=<0..1>," + p + "warmup_epochs=<n>";
}

Registry make_default_registry() {
  Registry registry;
  registry.add(
      {"static",
       "the paper's static per-rank priority assignment, installed once "
       "at start",
       "priorities=<p0/p1/...> (one per rank) | uniform=<1..6> (default 4)"},
      [](ConfigMap& config, const PolicyContext& context) {
        std::vector<int> priorities = config.get_int_list("priorities");
        const int uniform = config.get_int("uniform", 4);
        if (priorities.empty()) {
          priorities.assign(context.num_ranks, uniform);
        } else if (priorities.size() != context.num_ranks) {
          throw InvalidArgument(
              "policy 'static': got " + std::to_string(priorities.size()) +
              " priorities for " + std::to_string(context.num_ranks) +
              " rank(s)");
        }
        return std::make_unique<StaticPriorityPolicy>(std::move(priorities));
      });
  registry.add(
      {"dynamic",
       "per-epoch wait-gap controller stepping each core's priority gap "
       "toward its bottleneck rank",
       dynamic_schema("")},
      [](ConfigMap& config, const PolicyContext&) {
        return std::make_unique<DynamicBalancer>(
            dynamic_config_from(config, ""));
      });
  registry.add(
      {"two-level",
       "node-level outer loop widening the per-node dynamic balancers' "
       "gap ceiling on lagging nodes",
       "max_node_boost=<n>,node_gap_threshold=<frac>,smoothing=<0..1>,"
       "warmup_epochs=<n>," +
           dynamic_schema("inner_")},
      [](ConfigMap& config, const PolicyContext&) {
        TwoLevelBalancerConfig two_level;
        two_level.inner = dynamic_config_from(config, "inner_");
        two_level.max_node_boost =
            config.get_int("max_node_boost", two_level.max_node_boost);
        two_level.node_gap_threshold = config.get_double(
            "node_gap_threshold", two_level.node_gap_threshold);
        two_level.smoothing =
            config.get_double("smoothing", two_level.smoothing);
        two_level.warmup_epochs =
            config.get_int("warmup_epochs", two_level.warmup_epochs);
        return std::make_unique<TwoLevelBalancer>(two_level);
      });
  registry.add(
      {"ilp-pairing",
       "pairs high-ILP with low-ILP ranks per core via placement swaps, "
       "evening out decode demand",
       kCadenceSchema},
      [](ConfigMap& config, const PolicyContext&) {
        return std::make_unique<IlpPairingPolicy>(
            cadence_from(config, kIlpPairingCadence));
      });
  registry.add(
      {"allocation",
       "LPT re-packing of ranks onto cores from observed compute load "
       "(placement moves, may colonise empty cores)",
       std::string(kCadenceSchema) + ",spread=<bool>"},
      [](ConfigMap& config, const PolicyContext&) {
        AllocationConfig alloc;
        alloc.cadence = cadence_from(config, alloc.cadence);
        alloc.spread = config.get_bool("spread", alloc.spread);
        return std::make_unique<AllocationPolicy>(alloc);
      });
  registry.add(
      {"repartition",
       "migrates ranks between nodes with a multilevel partitioner when "
       "fractional load imbalance crosses a threshold; per-node dynamic "
       "balancers retune priorities in between",
       "threshold=<frac>,hysteresis=<frac>,budget=<n>,interval=<n>,"
       "warmup_epochs=<n>,smoothing=<0..1>,tolerance=<frac>," +
           dynamic_schema("inner_")},
      [](ConfigMap& config, const PolicyContext&) {
        RepartitionConfig repartition;
        repartition.threshold =
            config.get_double("threshold", repartition.threshold);
        repartition.hysteresis =
            config.get_double("hysteresis", repartition.hysteresis);
        repartition.budget = config.get_int("budget", repartition.budget);
        repartition.interval = config.get_int("interval", repartition.interval);
        repartition.warmup_epochs =
            config.get_int("warmup_epochs", repartition.warmup_epochs);
        repartition.smoothing =
            config.get_double("smoothing", repartition.smoothing);
        repartition.tolerance =
            config.get_double("tolerance", repartition.tolerance);
        repartition.inner = dynamic_config_from(config, "inner_");
        return std::make_unique<RepartitionPolicy>(repartition);
      });
  registry.add(
      {"budget-redistribution",
       "caps each node's priority-level sum and shifts budget toward "
       "lagging nodes, spending headroom on bottleneck ranks",
       "headroom=<n>," + std::string(kCadenceSchema) +
           ",gap_threshold=<frac>,max_priority=<1..6>,min_priority=<1..6>"},
      [](ConfigMap& config, const PolicyContext&) {
        BudgetRedistributionConfig budget;
        budget.headroom = config.get_int("headroom", budget.headroom);
        budget.cadence = cadence_from(config, budget.cadence);
        budget.gap_threshold =
            config.get_double("gap_threshold", budget.gap_threshold);
        budget.max_priority =
            config.get_int("max_priority", budget.max_priority);
        budget.min_priority =
            config.get_int("min_priority", budget.min_priority);
        return std::make_unique<BudgetRedistributionPolicy>(budget);
      });
  return registry;
}

}  // namespace

Registry& Registry::instance() {
  static Registry registry = make_default_registry();
  return registry;
}

}  // namespace smtbal::policy
