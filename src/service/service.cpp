#include "service/service.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>

#include "common/error.hpp"
#include "common/jsonl.hpp"
#include "policy/registry.hpp"
#include "policy/static_priority.hpp"
#include "simcheck/scenario.hpp"
#include "workloads/trace_replay.hpp"

namespace smtbal::service {

namespace {

/// A job's policy factory. The no-policy baseline still honours the
/// scenario's static priorities (the fuzzer's with_priorities dimension)
/// the same way simcheck's differentials do.
std::function<std::unique_ptr<mpisim::BalancePolicy>()> job_policy(
    std::string spec, std::size_t num_ranks, std::vector<int> priorities) {
  return [spec = std::move(spec), num_ranks,
          priorities = std::move(priorities)]()
             -> std::unique_ptr<mpisim::BalancePolicy> {
    if (spec == "none") {
      if (priorities.empty()) return nullptr;
      return std::make_unique<policy::StaticPriorityPolicy>(priorities);
    }
    policy::PolicyContext context;
    context.num_ranks = num_ranks;
    return policy::Registry::instance().make(spec, context);
  };
}

EvalResult result_of(const mpisim::RunResult& run) {
  EvalResult result;
  result.exec_time = run.exec_time;
  result.imbalance = run.imbalance;
  result.events = run.events;
  result.priority_resets = run.priority_resets;
  return result;
}

EvalResponse ready_response(std::string id, Status status, std::string error) {
  EvalResponse response;
  response.id = std::move(id);
  response.status = status;
  response.error = std::move(error);
  return response;
}

}  // namespace

EvalService::EvalService(ServiceConfig config) : config_(std::move(config)) {
  SMTBAL_REQUIRE(config_.max_queue >= 1, "EvalService max_queue must be >= 1");
  if (config_.interactive_reserve == 0) {
    config_.interactive_reserve = std::max<std::size_t>(1, config_.max_queue / 8);
  }
  config_.interactive_reserve =
      std::min(config_.interactive_reserve, config_.max_queue - 1);
  store_ = std::make_shared<ResultStore>();
  if (!config_.store_path.empty()) store_->open(config_.store_path);
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

EvalService::~EvalService() { shutdown(); }

EvalService::Job EvalService::prepare(EvalRequest request) const {
  Job job;
  job.id = request.id;
  job.stats = request.stats;

  if (!request.scenario.empty()) {
    const simcheck::ScenarioSpec spec =
        simcheck::parse_spec_string(request.scenario);
    job.canonical = "scenario{" + simcheck::canonical_spec_string(spec) +
                    "} policy{" + request.policy + "}";
    simcheck::Scenario sc = simcheck::build_scenario(spec);
    job.spec.label = job.id;
    job.spec.make_policy =
        job_policy(request.policy, sc.app.size(), std::move(sc.priorities));
    job.spec.app = std::move(sc.app);
    job.spec.placement = std::move(sc.placement);
    job.spec.config = std::move(sc.config);
    if (sc.cluster_config.num_nodes > 1) {
      job.spec.cluster_placement = std::move(sc.cluster_placement);
      job.spec.cluster_config = std::move(sc.cluster_config);
    }
  } else {
    mpisim::Application app = workloads::parse_trace_file(request.trace_path);
    const std::string canonical_trace = workloads::emit_trace(app);
    const auto ranks = static_cast<std::uint32_t>(app.size());
    const std::uint32_t smt = request.smt;
    std::uint32_t cores = request.cores;
    if (cores == 0) cores = (ranks + smt - 1) / smt;
    if (static_cast<std::uint64_t>(cores) * smt < ranks) {
      throw InvalidArgument(
          "trace request '" + request.id + "': " + std::to_string(ranks) +
          " ranks do not fit " + std::to_string(cores) + " cores x SMT" +
          std::to_string(smt));
    }
    std::ostringstream canonical;
    canonical << "trace{" << canonical_trace << "} cores{" << cores << "} smt{"
              << smt << "} policy{" << request.policy << "}";
    job.canonical = canonical.str();

    job.spec.label = job.id;
    job.spec.app = std::move(app);
    job.spec.config.chip.num_cores = cores;
    job.spec.config.chip.memory.num_cores = cores;
    job.spec.config.chip.core.threads_per_core = smt;
    job.spec.placement = mpisim::Placement::identity(ranks, smt);
    job.spec.make_policy = job_policy(request.policy, ranks, {});
  }
  job.key = canonical_key(job.canonical);
  return job;
}

std::future<EvalResponse> EvalService::submit(EvalRequest request) {
  std::promise<EvalResponse> promise;
  std::future<EvalResponse> future = promise.get_future();
  const std::string id = request.id;
  const Lane lane = request.lane;

  Job job;
  try {
    job = prepare(std::move(request));
  } catch (const std::exception& e) {
    const std::lock_guard<std::mutex> lock(mutex_);
    SMTBAL_REQUIRE(!stopping_, "EvalService::submit after shutdown");
    ++stats_.submitted;
    ++stats_.failed;
    promise.set_value(ready_response(id, Status::kError, e.what()));
    return future;
  }
  job.promise = std::move(promise);

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    SMTBAL_REQUIRE(!stopping_, "EvalService::submit after shutdown");
    ++stats_.submitted;
    const std::size_t pending = interactive_.size() + batch_.size();
    const std::size_t batch_bound =
        config_.max_queue - config_.interactive_reserve;
    if (pending >= config_.max_queue) {
      ++stats_.rejected;
      job.promise.set_value(ready_response(
          std::move(job.id), Status::kRejected,
          "queue full (" + std::to_string(pending) + " pending, bound " +
              std::to_string(config_.max_queue) +
              "); drain and resubmit"));
      return future;
    }
    if (lane == Lane::kBatch && batch_.size() >= batch_bound) {
      ++stats_.rejected;
      job.promise.set_value(ready_response(
          std::move(job.id), Status::kRejected,
          "batch lane full (" + std::to_string(batch_.size()) +
              " pending, bound " + std::to_string(batch_bound) +
              ", " + std::to_string(config_.interactive_reserve) +
              " slots reserved for the interactive lane); drain and "
              "resubmit"));
      return future;
    }
    (lane == Lane::kInteractive ? interactive_ : batch_)
        .push_back(std::move(job));
  }
  wake_.notify_one();
  return future;
}

void EvalService::dispatcher_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_.wait(lock, [&] {
      return stopping_ ||
             (!paused_ && (!interactive_.empty() || !batch_.empty()));
    });
    if (interactive_.empty() && batch_.empty()) {
      if (stopping_) return;
      idle_wake_.notify_all();
      continue;
    }
    // One wave: the whole interactive lane first, then the batch lane —
    // both in arrival order, so lane priority affects latency only,
    // never results.
    std::vector<Job> wave;
    wave.reserve(interactive_.size() + batch_.size());
    while (!interactive_.empty()) {
      wave.push_back(std::move(interactive_.front()));
      interactive_.pop_front();
    }
    while (!batch_.empty()) {
      wave.push_back(std::move(batch_.front()));
      batch_.pop_front();
    }
    wave_in_flight_ = true;
    lock.unlock();
    process_wave(std::move(wave));
    lock.lock();
    wave_in_flight_ = false;
    ++stats_.waves;
    idle_wake_.notify_all();
  }
}

void EvalService::process_wave(std::vector<Job> wave) {
  // Phase 1: serve store hits, dedupe the rest by canonical request.
  // Leaders index into `pending`; followers resolve to their leader's
  // outcome without a second engine run.
  std::vector<std::size_t> pending;          ///< wave indices to evaluate
  std::vector<std::vector<std::size_t>> followers;
  std::uint64_t local_served = 0;
  std::uint64_t local_deduped = 0;
  for (std::size_t i = 0; i < wave.size(); ++i) {
    Job& job = wave[i];
    if (const std::optional<EvalResult> hit =
            store_->lookup(job.key, job.canonical)) {
      EvalResponse response;
      response.id = job.id;
      response.status = Status::kOk;
      response.key = job.key;
      response.result = *hit;
      response.stats = job.stats;
      job.promise.set_value(std::move(response));
      ++local_served;
      continue;
    }
    bool folded = false;
    for (std::size_t p = 0; p < pending.size(); ++p) {
      if (wave[pending[p]].canonical == job.canonical) {
        followers[p].push_back(i);
        ++local_deduped;
        folded = true;
        break;
      }
    }
    if (!folded) {
      pending.push_back(i);
      followers.emplace_back();
    }
  }

  std::uint64_t local_failed = 0;
  smt::SamplerStats wave_sampler;
  if (!pending.empty()) {
    std::vector<runner::RunSpec> specs;
    specs.reserve(pending.size());
    for (const std::size_t i : pending) specs.push_back(wave[i].spec);

    runner::BatchOptions options;
    options.jobs = config_.workers;
    options.cache_provider = [this](const smt::ChipConfig& chip,
                                    const smt::ThroughputSampler::Options& o) {
      return domain_cache(chip, o);
    };
    const runner::BatchResult batch = runner::BatchRunner(options).run(specs);
    wave_sampler = batch.sampler_stats;

    for (std::size_t p = 0; p < pending.size(); ++p) {
      Job& leader = wave[pending[p]];
      const runner::RunOutcome& out = batch.runs[p];
      if (out.ok) {
        const EvalResult result = result_of(*out.result);
        store_->publish(leader.key, leader.canonical, result);
        const auto respond_ok = [&](Job& job) {
          EvalResponse response;
          response.id = job.id;
          response.status = Status::kOk;
          response.key = job.key;
          response.result = result;
          response.stats = job.stats;
          job.promise.set_value(std::move(response));
          ++local_served;
        };
        respond_ok(leader);
        for (const std::size_t f : followers[p]) respond_ok(wave[f]);
      } else {
        const auto respond_error = [&](Job& job) {
          job.promise.set_value(
              ready_response(job.id, Status::kError, out.error));
          ++local_failed;
        };
        respond_error(leader);
        for (const std::size_t f : followers[p]) respond_error(wave[f]);
      }
    }
  }

  const std::lock_guard<std::mutex> lock(mutex_);
  stats_.served += local_served;
  stats_.deduped += local_deduped;
  stats_.failed += local_failed;
  stats_.evaluated += pending.size();
  stats_.sampler += wave_sampler;
}

std::shared_ptr<smt::SampleCache> EvalService::domain_cache(
    const smt::ChipConfig& chip,
    const smt::ThroughputSampler::Options& options) {
  const std::lock_guard<std::mutex> lock(domains_mutex_);
  for (const Domain& domain : domains_) {
    if (domain.chip == chip && domain.options == options) return domain.cache;
  }
  auto cache = std::make_shared<smt::SampleCache>();
  cache->set_capacity(config_.cache_capacity);
  domains_.push_back(Domain{chip, options, cache});
  return cache;
}

void EvalService::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ && !dispatcher_.joinable()) return;
    stopping_ = true;
    paused_ = false;  // a paused service still drains on shutdown
  }
  wake_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

void EvalService::pause() {
  const std::lock_guard<std::mutex> lock(mutex_);
  paused_ = true;
}

void EvalService::resume() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  wake_.notify_all();
}

void EvalService::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_wake_.wait(lock, [&] {
    return interactive_.empty() && batch_.empty() && !wave_in_flight_;
  });
}

ServiceStats EvalService::stats() const {
  ServiceStats stats;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stats = stats_;
  }
  stats.store = store_->stats();
  {
    const std::lock_guard<std::mutex> lock(domains_mutex_);
    for (const Domain& domain : domains_) stats.cache += domain.cache->stats();
  }
  return stats;
}

std::string EvalService::trailer() const {
  const ServiceStats s = stats();
  std::ostringstream os;
  os << "{\"schema\":\"" << kServiceTrailerSchema
     << "\",\"workers\":" << config_.workers
     << ",\"max_queue\":" << config_.max_queue
     << ",\"interactive_reserve\":" << config_.interactive_reserve
     << ",\"cache_capacity\":" << config_.cache_capacity
     << ",\"submitted\":" << s.submitted << ",\"rejected\":" << s.rejected
     << ",\"failed\":" << s.failed << ",\"served\":" << s.served
     << ",\"evaluated\":" << s.evaluated << ",\"deduped\":" << s.deduped
     << ",\"waves\":" << s.waves << ",\"store\":{\"hits\":" << s.store.hits
     << ",\"misses\":" << s.store.misses
     << ",\"collisions\":" << s.store.collisions
     << ",\"inserts\":" << s.store.inserts << ",\"loaded\":" << s.store.loaded
     << ",\"truncated_tails\":" << s.store.truncated_tails
     << ",\"hit_rate\":" << jsonl::json_num(s.store.hit_rate())
     << "},\"sampler\":{\"lookups\":" << s.sampler.lookups
     << ",\"misses\":" << s.sampler.misses
     << ",\"shared_hits\":" << s.sampler.shared_hits
     << ",\"local_hits\":" << s.sampler.local_hits
     << "},\"sample_cache\":{\"hits\":" << s.cache.hits
     << ",\"misses\":" << s.cache.misses << ",\"inserts\":" << s.cache.inserts
     << ",\"evictions\":" << s.cache.evictions
     << ",\"peak_size\":" << s.cache.peak_size;
  // Always 0 unless determinism broke; printed only then, so the schema
  // of a healthy trailer is unchanged.
  if (s.cache.divergent != 0) os << ",\"divergent\":" << s.cache.divergent;
  os << ",\"hit_rate\":" << jsonl::json_num(s.cache.hit_rate()) << "}}";
  return os.str();
}

}  // namespace smtbal::service
