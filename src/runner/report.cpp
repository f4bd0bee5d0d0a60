#include "runner/report.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/jsonl.hpp"

namespace smtbal::runner {

using jsonl::json_escape;
using jsonl::json_num;

std::string json_histogram(const mpisim::DurationHistogram& histogram) {
  std::string out = "[";
  for (std::size_t b = 0; b < mpisim::DurationHistogram::kBuckets; ++b) {
    if (b > 0) out += ',';
    out += std::to_string(histogram.counts[b]);
  }
  out += ']';
  return out;
}

namespace {

/// Shared body of the run/2 (flat) and run/3 (cluster) records. The
/// cluster variant adds a "node" field per rank and a per-node aggregate
/// array; the flat record is byte-for-byte what it always was.
std::string json_run_record(const RunOutcome& outcome,
                            const std::vector<std::uint32_t>* node_of_rank) {
  std::ostringstream os;
  os << "{\"schema\":\"smtbal.bench.run/"
     << (node_of_rank == nullptr ? 2 : 3) << "\",\"label\":\""
     << json_escape(outcome.label) << "\",\"index\":" << outcome.index
     << ",\"ok\":" << (outcome.ok ? "true" : "false");
  if (!outcome.ok) {
    os << ",\"error\":\"" << json_escape(outcome.error) << "\"}";
    return os.str();
  }
  const mpisim::RunResult& r = *outcome.result;
  os << ",\"exec_time\":" << json_num(r.exec_time)
     << ",\"imbalance\":" << json_num(r.imbalance) << ",\"events\":" << r.events
     << ",\"priority_resets\":" << r.priority_resets << ",\"epochs\":"
     << r.metrics.epochs << ",\"events_by_kind\":{";
  for (std::size_t k = 0; k < mpisim::kNumEventKinds; ++k) {
    if (k > 0) os << ',';
    os << '"' << mpisim::to_string(static_cast<mpisim::EventKind>(k))
       << "\":" << r.metrics.events_by_kind[k];
  }
  os << "},\"ranks\":[";
  for (std::size_t rank = 0; rank < r.trace.num_ranks(); ++rank) {
    const trace::RankStats stats = r.trace.stats(RankId{
        static_cast<std::uint32_t>(rank)});
    if (rank > 0) os << ',';
    os << '{';
    if (node_of_rank != nullptr) {
      os << "\"node\":" << (*node_of_rank)[rank] << ',';
    }
    os << "\"comp_fraction\":" << json_num(stats.comp_fraction())
       << ",\"sync_fraction\":" << json_num(stats.sync_fraction());
    if (rank < r.metrics.ranks.size()) {
      const mpisim::RankMetrics& m = r.metrics.ranks[rank];
      os << ",\"compute_s\":" << json_num(m.compute)
         << ",\"wait_s\":" << json_num(m.wait)
         << ",\"spin_s\":" << json_num(m.spin)
         << ",\"preempted_s\":" << json_num(m.preempted)
         << ",\"priority_changes\":" << m.priority_changes
         << ",\"compute_interval_hist\":" << json_histogram(m.compute_intervals)
         << ",\"wait_interval_hist\":" << json_histogram(m.wait_intervals);
    }
    os << '}';
  }
  os << ']';
  if (node_of_rank != nullptr) {
    // Per-node aggregates of the per-rank metrics.
    std::uint32_t num_nodes = 0;
    for (const std::uint32_t node : *node_of_rank) {
      num_nodes = std::max(num_nodes, node + 1);
    }
    struct NodeAgg {
      double compute = 0.0, wait = 0.0, spin = 0.0, preempted = 0.0;
      std::size_t ranks = 0;
    };
    std::vector<NodeAgg> nodes(num_nodes);
    for (std::size_t rank = 0;
         rank < std::min(node_of_rank->size(), r.metrics.ranks.size());
         ++rank) {
      NodeAgg& node = nodes[(*node_of_rank)[rank]];
      const mpisim::RankMetrics& m = r.metrics.ranks[rank];
      node.compute += m.compute;
      node.wait += m.wait;
      node.spin += m.spin;
      node.preempted += m.preempted;
      ++node.ranks;
    }
    // Migration counters ride along only when the run actually migrated,
    // so every pre-migration run/3 record stays byte-identical.
    bool any_migrations = false;
    for (const cluster::NodeStats& stats : outcome.node_stats) {
      if (stats.migrations > 0) any_migrations = true;
    }
    os << ",\"nodes\":[";
    for (std::size_t n = 0; n < nodes.size(); ++n) {
      if (n > 0) os << ',';
      os << "{\"ranks\":" << nodes[n].ranks
         << ",\"compute_s\":" << json_num(nodes[n].compute)
         << ",\"wait_s\":" << json_num(nodes[n].wait)
         << ",\"spin_s\":" << json_num(nodes[n].spin)
         << ",\"preempted_s\":" << json_num(nodes[n].preempted);
      if (any_migrations && n < outcome.node_stats.size()) {
        const cluster::NodeStats& stats = outcome.node_stats[n];
        os << ",\"migrations\":" << stats.migrations
           << ",\"bytes_migrated\":" << stats.bytes_migrated
           << ",\"migration_stall_s\":" << json_num(stats.migration_stall);
      }
      os << '}';
    }
    os << ']';
  }
  os << '}';
  return os.str();
}

}  // namespace

std::string to_json_record(const RunOutcome& outcome) {
  return json_run_record(outcome, nullptr);
}

std::string to_json_record(const RunOutcome& outcome,
                           const std::vector<std::uint32_t>& node_of_rank) {
  return json_run_record(outcome, &node_of_rank);
}

std::string to_json_batch_record(const BatchResult& batch) {
  std::ostringstream os;
  const smt::SamplerStats& sampler = batch.sampler_stats;
  const smt::SampleCacheStats& cache = batch.cache_stats;
  // Schema /3 adds the per-core factorisation counters, and its sampler
  // totals include the per-shape samplers of heterogeneous cluster runs.
  // /2 made local_hits the sampler's own explicit counter.
  os << "{\"schema\":\"smtbal.bench.batch/3\",\"jobs\":" << batch.jobs
     << ",\"runs\":" << batch.runs.size()
     << ",\"failures\":" << batch.failures
     << ",\"sampler\":{\"lookups\":" << sampler.lookups
     << ",\"misses\":" << sampler.misses
     << ",\"shared_hits\":" << sampler.shared_hits
     << ",\"local_hits\":" << sampler.local_hits
     << ",\"full_chip_fallbacks\":" << sampler.full_chip_fallbacks
     << ",\"core_measurements\":" << sampler.core_measurements
     << ",\"core_hits\":" << sampler.core_hits
     << "},\"sample_cache\":{\"hits\":" << cache.hits
     << ",\"misses\":" << cache.misses << ",\"inserts\":" << cache.inserts
     << ",\"evictions\":" << cache.evictions
     << ",\"peak_size\":" << cache.peak_size;
  // Always 0 unless determinism broke; printed only then, so the schema
  // of a healthy trailer is unchanged.
  if (cache.divergent != 0) os << ",\"divergent\":" << cache.divergent;
  os << ",\"hit_rate\":" << json_num(cache.hit_rate()) << "}}";
  return os.str();
}

void write_jsonl(const BatchResult& batch, std::ostream& os) {
  for (const RunOutcome& outcome : batch.runs) {
    os << to_json_record(outcome) << '\n';
  }
  os << to_json_batch_record(batch) << '\n';
}

void write_jsonl_file(const BatchResult& batch, const std::string& path) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) throw SimulationError("cannot open '" + path + "' for writing");
  write_jsonl(batch, file);
  file.flush();
  if (!file) throw SimulationError("failed writing '" + path + "'");
}

std::string describe(const BatchResult& batch) {
  std::ostringstream os;
  os << batch.runs.size() << " runs on " << batch.jobs << " worker"
     << (batch.jobs == 1 ? "" : "s");
  if (batch.failures > 0) os << ", " << batch.failures << " FAILED";
  if (batch.exec_time.count() > 0) {
    os << "; exec time mean " << json_num(batch.exec_time.mean()) << " s (min "
       << json_num(batch.exec_time.min()) << ", max "
       << json_num(batch.exec_time.max()) << ')';
  }
  const smt::SampleCacheStats& cache = batch.cache_stats;
  if (cache.hits + cache.misses > 0) {
    os << "; shared sampler cache: " << cache.inserts << " measured, "
       << cache.hits << " hits (" << json_num(cache.hit_rate() * 100.0)
       << "% hit rate)";
  }
  return os.str();
}

}  // namespace smtbal::runner
