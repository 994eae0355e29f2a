#include "serve/service.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "nn/module.h"
#include "obs/trace.h"
#include "runtime/fault.h"
#include "tensor/pool.h"

namespace yollo::serve {

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

bool box_is_finite(const vision::Box& box) {
  return std::isfinite(box.x) && std::isfinite(box.y) &&
         std::isfinite(box.w) && std::isfinite(box.h);
}

int64_t env_int(const char* name, int64_t fallback) {
  const char* value = std::getenv(name);
  if (!value || !*value) return fallback;
  return std::strtoll(value, nullptr, 10);
}

// Feature-cache budget in bytes from the config / YOLLO_FEATURE_CACHE_MB
// (resolved before the constructor body because the cache is a member).
int64_t resolve_cache_bytes(const ServeConfig& config) {
  int64_t mb = config.feature_cache_mb;
  if (mb < 0) mb = env_int("YOLLO_FEATURE_CACHE_MB", 0);
  return mb > 0 ? mb * 1024 * 1024 : 0;
}

// Formation slack margin: a follower joins only when the riders' worst
// slack covers the predicted batched cost with this much headroom, so a
// prediction that runs 20% hot still meets the deadline.
constexpr double kSlackMargin = 1.2;
// Shrink when a batch of k costs more than k * solo * this ratio — at that
// point batching is amortising nothing and only adds head-of-line latency.
constexpr double kShrinkRatio = 1.25;
// Clean forwards required after a target change before growth is considered
// (hysteresis: don't oscillate on one good forward).
constexpr int64_t kGrowPatience = 4;

}  // namespace

void CancelToken::cancel() {
  std::lock_guard<std::mutex> lock(mu_);
  requested_ = true;
  if (ctx_ != nullptr) {
    ctx_->cancel_if_generation(generation_, CancelCause::kCancelled);
  }
}

bool CancelToken::requested() const {
  std::lock_guard<std::mutex> lock(mu_);
  return requested_;
}

bool CancelToken::attach(ExecContext* ctx, uint64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  ctx_ = ctx;
  generation_ = generation;
  if (requested_ && ctx_ != nullptr) {
    ctx_->cancel_if_generation(generation_, CancelCause::kCancelled);
  }
  return requested_;
}

void CancelToken::detach() {
  std::lock_guard<std::mutex> lock(mu_);
  ctx_ = nullptr;
}

InferenceService::InferenceService(core::YolloModel& model,
                                   const data::Vocab& vocab,
                                   const ServeConfig& config,
                                   baseline::TwoStagePipeline* fallback,
                                   std::mutex* fallback_mutex)
    : config_(config),
      model_config_(model.config()),
      vocab_(&vocab),
      fallback_(fallback),
      c_submitted_(metrics_.counter("serve.submitted")),
      c_served_(metrics_.counter("serve.served")),
      c_degraded_(metrics_.counter("serve.degraded")),
      c_rejected_(metrics_.counter("serve.rejected")),
      c_rejected_invalid_(metrics_.counter("serve.rejected_invalid")),
      c_rejected_overloaded_(metrics_.counter("serve.rejected_overloaded")),
      c_rejected_resource_(metrics_.counter("serve.rejected_resource")),
      c_deadline_exceeded_(metrics_.counter("serve.deadline_exceeded")),
      c_failed_(metrics_.counter("serve.failed")),
      c_cancelled_(metrics_.counter("serve.cancelled")),
      c_retries_(metrics_.counter("serve.retries")),
      c_breaker_trips_(metrics_.counter("serve.breaker_trips")),
      c_batches_coalesced_(metrics_.counter("serve.batches_coalesced")),
      c_batched_requests_(metrics_.counter("serve.batched_requests")),
      c_watchdog_kicks_(metrics_.counter("serve.watchdog_kicks")),
      c_workers_lost_(metrics_.counter("serve.workers_lost")),
      c_workers_spawned_(metrics_.counter("serve.workers_spawned")),
      c_pool_rejected_(metrics_.counter("serve.pool_rejected")),
      c_solo_dispatches_(metrics_.counter("serve.solo_dispatches")),
      c_sched_shrinks_(metrics_.counter("serve.sched_shrinks")),
      c_sched_grows_(metrics_.counter("serve.sched_grows")),
      g_queue_high_water_(metrics_.gauge("serve.queue_high_water")),
      g_max_batch_(metrics_.gauge("serve.max_batch")),
      g_batch_target_(metrics_.gauge("serve.batch_target")),
      g_workers_warmed_(metrics_.gauge("serve.workers_warmed")),
      h_queue_depth_(metrics_.histogram(
          "serve.queue_depth",
          obs::depth_bounds(std::max<int64_t>(1, config.queue_capacity)))),
      h_queue_wait_ms_(
          metrics_.histogram("serve.queue_wait_ms", obs::latency_ms_bounds())),
      h_model_ms_(
          metrics_.histogram("serve.model_ms", obs::latency_ms_bounds())),
      h_latency_ms_(
          metrics_.histogram("serve.latency_ms", obs::latency_ms_bounds())),
      h_cancel_latency_ms_(metrics_.histogram("serve.cancel_latency_ms",
                                              obs::latency_ms_bounds())),
      cache_(metrics_, resolve_cache_bytes(config)),
      fallback_lock_(fallback_mutex != nullptr ? fallback_mutex
                                               : &fallback_mutex_) {
  config_.num_workers = std::max<int64_t>(1, config_.num_workers);
  config_.queue_capacity = std::max<int64_t>(1, config_.queue_capacity);
  config_.batch_max = std::max<int64_t>(1, config_.batch_max);
  if (config_.watchdog_interval_ms < 0) {
    config_.watchdog_interval_ms = env_int("YOLLO_WATCHDOG_MS", 0);
  }
  if (config_.pool_budget_mb < 0) {
    config_.pool_budget_mb = env_int("YOLLO_POOL_BUDGET_MB", 0);
  }
  // The watchdog judges progress by ExecContext heartbeats, which only
  // tick when cancellation arms the contexts.
  if (!config_.enable_cancellation) config_.watchdog_interval_ms = 0;
  if (env_int("YOLLO_BATCH_ADAPTIVE", 1) == 0) {
    config_.adaptive_batching = false;
  }
  // Normalise for introspection: config().feature_cache_mb reflects what
  // the cache actually resolved to (env included).
  config_.feature_cache_mb = cache_.budget_bytes() / (1024 * 1024);
  // The adaptive target starts at batch_max, not 1: a cold service under
  // sudden backlog must coalesce immediately (the legacy behaviour); the
  // target only steps down once live costs prove batching is hurting.
  batch_target_ = config_.batch_max;
  g_batch_target_.set(static_cast<double>(batch_target_));
  batch_cost_ewma_.assign(static_cast<size_t>(config_.batch_max) + 1, 0.0);
  formation_hists_.push_back(nullptr);  // slot 0 unused
  for (int64_t k = 1; k <= config_.batch_max; ++k) {
    formation_hists_.push_back(&metrics_.histogram(
        "serve.formation_ms_b" + std::to_string(k), obs::latency_ms_bounds()));
  }
  config_.watchdog_stall_intervals =
      std::max<int64_t>(1, config_.watchdog_stall_intervals);
  config_.watchdog_grace_intervals =
      std::max<int64_t>(1, config_.watchdog_grace_intervals);
  // One eval-mode replica per worker: threads never share mutable tensor
  // storage, so the pool needs no lock around the forward pass. The master
  // replica never serves — it exists so the watchdog can stamp out a
  // replacement without copying from a replica that is mid-forward.
  {
    Rng rng(config_.seed);
    master_replica_ = std::make_unique<core::YolloModel>(model_config_,
                                                         vocab.size(), rng);
    nn::copy_module_state(*master_replica_, model);
    master_replica_->set_training(false);
  }
  workers_.reserve(static_cast<size_t>(config_.num_workers));
  for (int64_t i = 0; i < config_.num_workers; ++i) {
    auto worker = std::make_unique<Worker>();
    Rng rng(config_.seed + 1 + static_cast<uint64_t>(i));
    worker->replica = std::make_unique<core::YolloModel>(model_config_,
                                                         vocab.size(), rng);
    nn::copy_module_state(*worker->replica, model);
    worker->replica->set_training(false);
    Worker* raw = worker.get();
    worker->thread = std::thread([this, raw] { worker_loop(raw); });
    workers_.push_back(std::move(worker));
  }
  if (config_.watchdog_interval_ms > 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

InferenceService::~InferenceService() { stop(); }

InferenceService::Clock::time_point InferenceService::resolve_deadline(
    const GroundRequest& request, int64_t default_ms, Clock::time_point now) {
  if (request.deadline_at != Clock::time_point{}) return request.deadline_at;
  const int64_t ms =
      request.deadline_ms >= 0 ? request.deadline_ms : default_ms;
  if (ms <= 0) return Clock::time_point::max();
  return now + std::chrono::milliseconds(ms);
}

void InferenceService::submit(GroundRequest request, Callback done) {
  OBS_SPAN("serve.submit");
  const Clock::time_point now = Clock::now();

  // Admission rejections answer at once with a typed Status; they still
  // count as submitted so the counter invariant holds.
  const auto reject = [&](Status status, std::string normalised) {
    GroundResponse response;
    response.status = std::move(status);
    response.normalised_query = std::move(normalised);
    response.latency_ms = ms_since(now);
    deliver(done, std::move(response), /*count_submission=*/true);
  };

  // Input validation happens before the request can consume a queue slot
  // (and outside the service lock — the NaN scan is O(pixels)).
  Status image_status =
      validate_image(request.image, model_config_.img_h, model_config_.img_w);
  if (!image_status.ok()) return reject(std::move(image_status), {});
  ValidatedQuery query =
      validate_query(request.query, *vocab_, model_config_.max_query_len);
  if (!query.status.ok()) {
    return reject(std::move(query.status), std::move(query.normalised));
  }

  // Deadline check at enqueue.
  const Clock::time_point deadline =
      resolve_deadline(request, config_.default_deadline_ms, now);
  if (deadline <= now) {
    return reject(
        Status::deadline_exceeded("deadline had already expired at enqueue"),
        std::move(query.normalised));
  }

  // Content hash for the feature cache, computed once at admission (outside
  // the lock — it is O(pixels), like the validation scan above).
  const uint64_t image_hash =
      cache_.enabled() ? FeatureCache::hash_image(request.image) : 0;

  Status refusal;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!accepting_) {
      refusal = Status::overloaded("service is stopped or paused");
    } else if (static_cast<int64_t>(queue_.size()) >=
               config_.queue_capacity) {
      // Backpressure: reject, never grow. The client sees a typed
      // kOverloaded and can shed load or retry with jitter.
      refusal = Status::overloaded("admission queue full (capacity " +
                                   std::to_string(config_.queue_capacity) +
                                   ")");
    } else {
      c_submitted_.inc();
      Job job;
      job.image = std::move(request.image);
      job.tokens = std::move(query.tokens);
      job.normalised_query = std::move(query.normalised);
      job.submitted_at = now;
      job.deadline = deadline;
      job.cancel = std::move(request.cancel);
      job.image_hash = image_hash;
      job.state = std::make_shared<JobState>();
      job.state->done = std::move(done);
      queue_.push_back(std::move(job));
      const double depth = static_cast<double>(queue_.size());
      g_queue_high_water_.set_max(depth);
      h_queue_depth_.observe(depth);
    }
  }
  if (!refusal.ok()) {
    return reject(std::move(refusal), std::move(query.normalised));
  }
  cv_.notify_one();
}

std::future<GroundResponse> InferenceService::submit(GroundRequest request) {
  auto promise = std::make_shared<std::promise<GroundResponse>>();
  std::future<GroundResponse> future = promise->get_future();
  submit(std::move(request), [promise](GroundResponse response) {
    promise->set_value(std::move(response));
  });
  return future;
}

GroundResponse InferenceService::ground(GroundRequest request) {
  return submit(std::move(request)).get();
}

void InferenceService::worker_loop(Worker* self) {
  // Scoped fault injector (when the service owns one): every forward this
  // worker runs consumes the shard-local injector instead of the global.
  runtime::FaultInjector::ThreadBinding fault_binding(config_.fault_injector);
  // Long-lived per-worker storage pool: the PoolScope that infer() installs
  // internally joins this one, so tensor storage recycles across requests
  // instead of only within a single forward.
  PoolScope pool;
  if (config_.pool_budget_mb > 0) {
    pool.set_budget_bytes(config_.pool_budget_mb * 1024 * 1024);
  }
  // Install this worker's ExecContext for the thread's lifetime; each
  // forward attempt re-arms it with the request deadline. Without
  // cancellation the context stays uninstalled and every kernel sees the
  // plain nullptr fast path.
  std::unique_ptr<ExecContext::Scope> exec_scope;
  if (config_.enable_cancellation) {
    exec_scope = std::make_unique<ExecContext::Scope>(&self->ctx);
  }
  // Compile the static forward plans this worker will serve from before the
  // first request arrives (the arena charges this worker's pool budget; a
  // refusal leaves that batch size on the dynamic path). warm_plan() runs
  // inside the exec scope so shutdown-time cancellation can abort it.
  if (config_.warm_plans) {
    for (int64_t b = 1; b <= config_.batch_max; ++b) {
      if (stopping_ || self->lost.load(std::memory_order_relaxed)) break;
      try {
        self->replica->warm_plan(b);
      } catch (...) {
        // A cancelled/failed warm-up is not fatal: that batch size simply
        // records lazily on first use or stays dynamic.
        break;
      }
    }
  }
  // Signal warm-up completion (set even when warm_plans is off, so callers
  // can always gate on it): benchmarks wait for this gauge to reach
  // num_workers before starting their clocks, otherwise a batch_max-8
  // service is measured while its workers are still compiling eight plans
  // each — the very skew behind the BENCH_infer serve_burst regression.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++warmed_workers_;
    g_workers_warmed_.set(static_cast<double>(warmed_workers_));
  }
  for (;;) {
    std::vector<Job> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this, self] {
        return stopping_ || self->lost.load(std::memory_order_relaxed) ||
               !queue_.empty();
      });
      // A reaped worker must stop claiming queue work: its replacement
      // owns this slot's share of the pool now.
      if (self->lost.load(std::memory_order_relaxed)) return;
      if (queue_.empty()) return;  // stopping_ and fully drained
      // Continuous-batching formation (DESIGN.md §15): the front request
      // always dispatches — never hold the queue waiting for a batch to
      // fill. Followers join one at a time, only while every rider's
      // deadline slack still covers the predicted cost of the grown batch
      // (live per-size cost EWMAs) with margin — so a near-deadline
      // straggler runs solo instead of paying a stranger's batch tax, and
      // a deadline-free backlog coalesces greedily up to the adaptive
      // target. All admitted jobs share the model's image geometry
      // (admission validates against the config), so every queued job is
      // batch-compatible.
      const Clock::time_point now = Clock::now();
      maybe_grow_target_locked();
      const int64_t limit = std::min(
          {config_.batch_max, batch_target_,
           static_cast<int64_t>(queue_.size())});
      const auto slack_of = [&now](const Job& job) {
        if (job.deadline == Clock::time_point::max()) {
          return std::numeric_limits<double>::infinity();
        }
        return std::chrono::duration<double, std::milli>(job.deadline - now)
            .count();
      };
      int64_t take = 1;
      double min_slack = slack_of(queue_.front());
      while (take < limit) {
        const double joined = std::min(
            min_slack, slack_of(queue_[static_cast<size_t>(take)]));
        if (joined < predicted_cost_locked(take + 1) * kSlackMargin) break;
        min_slack = joined;
        ++take;
      }
      if (take == 1 && limit > 1 && std::isfinite(min_slack)) {
        // Slack-forced solo with company in the queue: the scheduler chose
        // latency over amortisation for this request.
        c_solo_dispatches_.inc();
      }
      // Formation latency: how old the batch's first rider is at dispatch,
      // attributed to the size actually formed.
      if (take < static_cast<int64_t>(formation_hists_.size())) {
        formation_hists_[static_cast<size_t>(take)]->observe(
            std::chrono::duration<double, std::milli>(
                now - queue_.front().submitted_at)
                .count());
      }
      batch.reserve(static_cast<size_t>(take));
      for (int64_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    // Register the claimed requests on the slot (so a reap can fail them)
    // and mark the worker busy for the watchdog. Never hold slot->mu and
    // mutex_ together.
    {
      std::lock_guard<std::mutex> lock(self->mu);
      for (const Job& job : batch) {
        self->active.push_back(job.state);
        self->active_queries.push_back(job.normalised_query);
      }
    }
    self->busy.store(true, std::memory_order_release);
    process_batch(*self, batch);
    self->busy.store(false, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(self->mu);
      self->active.clear();
      self->active_queries.clear();
    }
    if (self->lost.load(std::memory_order_relaxed)) return;
  }
}

void InferenceService::process_batch(Worker& self, std::vector<Job>& batch) {
  // Deadline and cancel checks at dequeue, per request: a request that
  // starved in the queue (or whose token fired while it waited) is
  // answered (typed), not silently processed past its budget.
  const Clock::time_point now = Clock::now();
  std::vector<Job*> live;
  live.reserve(batch.size());
  for (Job& job : batch) {
    h_queue_wait_ms_.observe(
        std::chrono::duration<double, std::milli>(now - job.submitted_at)
            .count());
    if (job.cancel != nullptr && job.cancel->requested()) {
      GroundResponse response;
      response.normalised_query = job.normalised_query;
      response.status = Status::cancelled("cancelled while queued");
      finish(job, std::move(response));
    } else if (now >= job.deadline) {
      GroundResponse response;
      response.normalised_query = job.normalised_query;
      response.status =
          Status::deadline_exceeded("deadline expired while queued");
      finish(job, std::move(response));
    } else {
      live.push_back(&job);
    }
  }
  if (live.empty()) return;

  // Circuit breaker: the cooldown is counted per request (deterministic for
  // tests), exactly as in the single-image path — requests that consume
  // cooldown slots go straight to the baseline tier.
  std::vector<Job*> model_jobs;
  std::vector<Job*> breaker_jobs;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (Job* job : live) {
      if (breaker_cooldown_left_ > 0) {
        --breaker_cooldown_left_;
        breaker_jobs.push_back(job);
      } else {
        model_jobs.push_back(job);
      }
    }
  }
  for (Job* job : breaker_jobs) {
    GroundResponse response;
    response.normalised_query = job->normalised_query;
    run_fallback_tier(self, *job, "circuit breaker open", response);
    finish(*job, std::move(response));
  }

  if (model_jobs.empty()) return;
  if (model_jobs.size() == 1) {
    run_single(self, *model_jobs.front());
  } else {
    run_batched_model_tier(self, model_jobs);
  }
}

void InferenceService::run_single(Worker& self, Job& job, CacheProbe probe) {
  GroundResponse response;
  response.normalised_query = job.normalised_query;
  if (run_model_tier(self, job, response, std::move(probe))) {
    finish(job, std::move(response));
    return;
  }
  const std::string degrade_reason =
      "model tier failed: " + response.status.message;
  // Deadline check between the model tier and the fallback tier.
  if (Clock::now() >= job.deadline) {
    response.status =
        Status::deadline_exceeded("deadline expired after the model tier");
    finish(job, std::move(response));
    return;
  }
  run_fallback_tier(self, job, degrade_reason, response);
  finish(job, std::move(response));
}

void InferenceService::run_batched_model_tier(Worker& self,
                                              const std::vector<Job*>& jobs) {
  if (!cache_.enabled()) {
    run_batch_group(self, jobs, std::vector<CacheProbe>(jobs.size()),
                    /*cached_path=*/false);
    return;
  }
  // Partition by cache disposition: a hit rides a fuse-only forward over
  // its pinned features, a miss runs the full pass (capturing features for
  // insertion). Mixing them in one forward is impossible — the two paths
  // enter the model at different layers.
  const uint64_t generation = self.replica->weights_generation();
  std::vector<Job*> hit_jobs, miss_jobs;
  std::vector<CacheProbe> hit_probes, miss_probes;
  for (Job* job : jobs) {
    CacheProbe probe;
    probe.probed = true;
    probe.key = cache_.make_key(job->image_hash, generation);
    probe.features = cache_.lookup(probe.key);
    if (probe.features.defined()) {
      hit_jobs.push_back(job);
      hit_probes.push_back(std::move(probe));
    } else {
      miss_jobs.push_back(job);
      miss_probes.push_back(std::move(probe));
    }
  }
  // Groups of one are not batches: they run the single pipeline with their
  // already-resolved probe (no second lookup, no skewed counters).
  if (hit_jobs.size() == 1) {
    run_single(self, *hit_jobs.front(), std::move(hit_probes.front()));
  } else if (!hit_jobs.empty()) {
    run_batch_group(self, hit_jobs, std::move(hit_probes),
                    /*cached_path=*/true);
  }
  if (miss_jobs.size() == 1) {
    run_single(self, *miss_jobs.front(), std::move(miss_probes.front()));
  } else if (!miss_jobs.empty()) {
    run_batch_group(self, miss_jobs, std::move(miss_probes),
                    /*cached_path=*/false);
  }
}

void InferenceService::run_batch_group(Worker& self,
                                       const std::vector<Job*>& jobs,
                                       std::vector<CacheProbe> probes,
                                       bool cached_path) {
  const int64_t k = static_cast<int64_t>(jobs.size());
  std::vector<int64_t> tokens;
  tokens.reserve(static_cast<size_t>(k * model_config_.max_query_len));
  Tensor batched;
  if (cached_path) {
    // Assemble [k, C, grid_h, grid_w] from the pinned per-image views.
    const int64_t c = model_config_.backbone.out_channels();
    const int64_t plane = c * model_config_.grid_h() * model_config_.grid_w();
    batched = Tensor({k, c, model_config_.grid_h(), model_config_.grid_w()});
    float* dst = batched.data();
    for (int64_t i = 0; i < k; ++i) {
      const Tensor& feat = probes[static_cast<size_t>(i)].features;
      std::copy(feat.data(), feat.data() + plane, dst + i * plane);
      const Job& job = *jobs[static_cast<size_t>(i)];
      tokens.insert(tokens.end(), job.tokens.begin(), job.tokens.end());
    }
  } else {
    const int64_t plane = 3 * model_config_.img_h * model_config_.img_w;
    batched = Tensor({k, 3, model_config_.img_h, model_config_.img_w});
    float* dst = batched.data();
    for (int64_t i = 0; i < k; ++i) {
      const Job& job = *jobs[static_cast<size_t>(i)];
      std::copy(job.image.data(), job.image.data() + plane, dst + i * plane);
      tokens.insert(tokens.end(), job.tokens.begin(), job.tokens.end());
    }
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    c_batches_coalesced_.inc();
    c_batched_requests_.inc(k);
    g_max_batch_.set_max(static_cast<double>(k));
  }

  // Arm the worker's context with the tightest deadline in the batch: the
  // most-constrained rider bounds the coalesced forward. Client tokens are
  // not attached in the batched path — a lone cancel must not abort its
  // batch mates; the per-request salvage pass below honours it instead.
  if (config_.enable_cancellation) {
    Clock::time_point min_deadline = Clock::time_point::max();
    for (const Job* job : jobs) {
      min_deadline = std::min(min_deadline, job->deadline);
    }
    self.ctx.arm(min_deadline);
  }

  const Clock::time_point started = Clock::now();
  const core::YolloModel::InferOutcome outcome = [&] {
    obs::ScopedTimer timer(h_model_ms_);
    OBS_SPAN("serve.batch_forward");
    return cached_path
               ? self.replica->infer_from_features(batched, tokens)
               : self.replica->infer(batched, tokens,
                                     /*capture_features=*/cache_.enabled());
  }();
  const double forward_ms = ms_since(started);

  // Salvage probes never reuse a cached feature view (a cached-path batch
  // failure retries on the full path) but keep their key so a healthy
  // retry still populates the cache.
  const auto salvage_probe = [&probes](int64_t i) {
    CacheProbe probe = std::move(probes[static_cast<size_t>(i)]);
    probe.features = Tensor();
    return probe;
  };

  if (outcome.element_errors.size() != static_cast<size_t>(k)) {
    // Batch-level failure (thrown fault, invalid input, cancellation,
    // pool-budget refusal): no per-element verdicts exist. Every request
    // re-runs the single-image pipeline — per-request retries, deadline
    // verdicts, and degradation, exactly as if it had never been coalesced.
    // The failed batch attempt itself does not feed the breaker; the
    // per-request salvage runs below do.
    for (int64_t i = 0; i < k; ++i) {
      run_single(self, *jobs[static_cast<size_t>(i)], salvage_probe(i));
    }
    return;
  }

  // The forward ran to completion: feed the scheduler's cost model. A
  // rider answered past its deadline is the batch tax made visible — the
  // shrink rule reacts to it.
  const Clock::time_point after = Clock::now();
  bool deadline_missed = false;
  for (const Job* job : jobs) {
    if (after >= job->deadline) {
      deadline_missed = true;
      break;
    }
  }
  note_batch_outcome(k, forward_ms, deadline_missed);

  if (outcome.ok()) {
    std::lock_guard<std::mutex> lock(mutex_);
    consecutive_failures_ = 0;
  }

  // Populate the cache from the healthy elements of a full-path batch
  // (poisoned elements are never inserted — their features may be fine,
  // but a request that is about to retry should not trust this pass).
  if (!cached_path && cache_.enabled() && outcome.features.defined()) {
    const int64_t c = model_config_.backbone.out_channels();
    const int64_t gh = model_config_.grid_h();
    const int64_t gw = model_config_.grid_w();
    const int64_t plane = c * gh * gw;
    for (int64_t i = 0; i < k; ++i) {
      if (!outcome.element_ok(i)) continue;
      // Zero-copy view into the captured block; insert() makes its own
      // copy, the dummy owner only needs to outlive this call.
      cache_.insert(probes[static_cast<size_t>(i)].key,
                    Tensor::from_external(
                        {c, gh, gw},
                        const_cast<float*>(outcome.features.data()) + i * plane,
                        std::make_shared<int>(0)));
    }
  }

  // Answer the healthy elements first (a poisoned batch mate must not delay
  // them further), then salvage the poisoned ones individually.
  std::vector<int64_t> salvage;
  for (int64_t i = 0; i < k; ++i) {
    Job& job = *jobs[static_cast<size_t>(i)];
    if (!outcome.element_ok(i)) {
      salvage.push_back(i);
      continue;
    }
    GroundResponse response;
    response.normalised_query = job.normalised_query;
    if (Clock::now() >= job.deadline) {
      response.status = Status::deadline_exceeded(
          "forward pass finished past the deadline");
    } else {
      response.status = Status::ok_status();
      response.box = outcome.element_boxes[static_cast<size_t>(i)];
    }
    finish(job, std::move(response));
  }
  for (int64_t i : salvage) {
    run_single(self, *jobs[static_cast<size_t>(i)], salvage_probe(i));
  }
}

bool InferenceService::run_model_tier(Worker& self, Job& job,
                                      GroundResponse& response,
                                      CacheProbe probe) {
  const Tensor batched =
      job.image.reshape({1, 3, model_config_.img_h, model_config_.img_w});
  const int64_t attempts = 1 + std::max<int64_t>(0, config_.max_retries);
  std::string last_error = "model tier did not run";
  bool last_resource = false;
  for (int64_t attempt = 0; attempt < attempts; ++attempt) {
    // Deadline check before every forward attempt...
    if (Clock::now() >= job.deadline) {
      response.status = Status::deadline_exceeded(
          "deadline expired before forward attempt " +
          std::to_string(attempt + 1));
      return true;
    }
    if (attempt > 0) ++response.retries;
    // Resolve the feature cache on the first attempt only: a cached-path
    // failure (injected fault, poison, cancel) retries on the full path so
    // a request can never be starved by its own cache entry.
    Tensor cached;
    if (attempt == 0 && cache_.enabled()) {
      if (!probe.probed) {
        probe.probed = true;
        probe.key = cache_.make_key(job.image_hash,
                                    self.replica->weights_generation());
        probe.features = cache_.lookup(probe.key);
      }
      cached = probe.features;
    }
    // Arm the worker's context for this attempt: an expired deadline or an
    // external cancel now aborts the forward at its next kernel checkpoint.
    // The client token (if any) binds to this context generation, so a
    // late cancel can never hit the worker's next request.
    if (config_.enable_cancellation) {
      // Job::deadline shares ExecContext's steady clock and its max() ==
      // "no deadline" convention, so it arms directly.
      self.ctx.arm(job.deadline);
      if (job.cancel != nullptr &&
          job.cancel->attach(&self.ctx, self.ctx.generation())) {
        job.cancel->detach();
        response.status = Status::cancelled("cancelled before the forward");
        return true;
      }
    }
    const Clock::time_point started = Clock::now();
    const core::YolloModel::InferOutcome outcome = [&] {
      obs::ScopedTimer timer(h_model_ms_);
      OBS_SPAN("serve.model_forward");
      if (cached.defined()) {
        // Hit: skip the backbone, run only the query-dependent half over
        // the pinned [C, grid_h, grid_w] view (reshape aliases storage, so
        // the entry stays pinned through the forward).
        const Shape& s = cached.shape();
        return self.replica->infer_from_features(
            cached.reshape({1, s[0], s[1], s[2]}), job.tokens);
      }
      return self.replica->infer(batched, job.tokens,
                                 /*capture_features=*/probe.probed);
    }();
    const double forward_ms = ms_since(started);
    if (config_.enable_cancellation && job.cancel != nullptr) {
      job.cancel->detach();
    }
    if (outcome.error == core::YolloModel::InferError::kCancelled) {
      // Terminal: whatever interrupted this forward (deadline, token,
      // watchdog kick) will interrupt a retry identically.
      response.status = map_cancelled(self);
      return true;
    }
    if (outcome.error == core::YolloModel::InferError::kResourceExhausted) {
      // The pool budget refused the forward. Trim the worker's pool (parked
      // blocks are the reclaimable share of the budget) and let the retry
      // loop probe again; if every attempt is refused the request degrades
      // to the baseline tier below, which allocates outside this pool.
      {
        std::lock_guard<std::mutex> lock(mutex_);
        c_pool_rejected_.inc();
      }
      {
        PoolScope joined;  // passthrough into the worker's long-lived pool
        joined.trim();
      }
      last_error = outcome.message;
      last_resource = true;
      continue;
    }
    last_resource = false;
    // A forward that ran to completion (healthy or merely non-finite)
    // feeds the scheduler's solo cost EWMA — the baseline every batched
    // prediction scales from.
    if (outcome.error == core::YolloModel::InferError::kNone ||
        outcome.error == core::YolloModel::InferError::kNonFinite) {
      note_batch_outcome(1, forward_ms, Clock::now() >= job.deadline);
    }
    // Populate the cache from a healthy full-path forward (the captured
    // features are upstream of the head, but only a clean pass earns an
    // entry; a refused insert just means this request ran uncached).
    if (!cached.defined() && probe.probed && outcome.element_ok(0) &&
        outcome.features.defined()) {
      const Shape& fs = outcome.features.shape();  // [1, C, gh, gw]
      cache_.insert(probe.key,
                    outcome.features.reshape({fs[1], fs[2], fs[3]}));
    }
    if (outcome.ok()) {
      // ...and after it: a slow forward that ate the budget is a deadline
      // miss even though it produced a box.
      if (Clock::now() >= job.deadline) {
        response.status = Status::deadline_exceeded(
            "forward pass finished past the deadline");
        return true;
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        consecutive_failures_ = 0;
      }
      response.status = Status::ok_status();
      response.box = outcome.boxes.front();
      return true;
    }
    last_error = outcome.message;
    // Never ride the cached path into a retry.
    probe.features = Tensor();
  }

  // Tier failed. Pool-budget refusals do not feed the circuit breaker —
  // they are memory pressure, not model sickness, and tripping the breaker
  // on them would take the model away from requests the budget would have
  // admitted.
  if (last_resource) {
    response.status = Status::resource_exhausted(last_error);
    return false;
  }
  // Feed the circuit breaker. consecutive_failures_ is left accumulated
  // when the breaker trips, so a failed probe after cooldown re-trips
  // immediately.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++consecutive_failures_;
    if (consecutive_failures_ >= config_.breaker_threshold &&
        breaker_cooldown_left_ == 0) {
      breaker_cooldown_left_ = config_.breaker_cooldown;
      c_breaker_trips_.inc();
    }
  }
  response.status = Status::internal(last_error);
  return false;
}

void InferenceService::run_fallback_tier(Worker& self, Job& job,
                                         const std::string& reason,
                                         GroundResponse& response) {
  OBS_SPAN("serve.fallback");
  // Re-arm before the baseline tier: a context left cancelled by the model
  // tier (deadline already answered there) must not poison the baseline
  // ops, and the fallback still deserves in-flight deadline enforcement.
  if (config_.enable_cancellation) self.ctx.arm(job.deadline);
  if (fallback_ == nullptr) {
    response.status = Status::internal(
        reason + "; no baseline fallback tier is configured");
    return;
  }
  try {
    vision::Box box;
    {
      // The baseline tier is shared across workers (and, when the caller
      // provided a shared mutex, across sibling shards); degradation is the
      // rare path, so serialising it is the right trade.
      std::lock_guard<std::mutex> lock(*fallback_lock_);
      // The baseline tier is the escape hatch for memory pressure: it runs
      // budget-exempt (its working set is a fraction of the model tier's),
      // otherwise the same pool budget that refused the model forward also
      // refuses the degraded answer and degradation collapses into an
      // internal error.
      PoolScope joined;  // passthrough into the worker's long-lived pool
      const int64_t saved_budget = joined.budget_bytes();
      joined.set_budget_bytes(0);
      try {
        box = fallback_->ground(job.image, job.tokens);
      } catch (...) {
        joined.set_budget_bytes(saved_budget);
        throw;
      }
      joined.set_budget_bytes(saved_budget);
    }
    // A kernel that observed the cancel abandons its remaining work and
    // returns partial (garbage) output — the box cannot be trusted even
    // when it happens to look finite.
    if (config_.enable_cancellation && self.ctx.cancelled()) {
      response.status = map_cancelled(self);
      return;
    }
    if (!box_is_finite(box)) {
      response.status =
          Status::internal(reason + "; baseline tier produced a non-finite box");
      return;
    }
    response.box = vision::clip_box(box, static_cast<float>(job.image.size(2)),
                                    static_cast<float>(job.image.size(1)));
    response.status = Status::degraded("served by baseline tier (" + reason +
                                       ")");
  } catch (const ExecCancelled&) {
    response.status = map_cancelled(self);
  } catch (const std::exception& e) {
    response.status = Status::internal(reason + "; baseline fallback threw: " +
                                       e.what());
  }
}

Status InferenceService::map_cancelled(Worker& self) {
  // Measure signal -> first checkpoint that observed it. cancel_time_ns is
  // stamped by whichever writer fired first; by the time the forward has
  // unwound back here the observation already happened.
  const int64_t cancel_ns = self.ctx.cancel_time_ns();
  if (cancel_ns > 0) {
    const int64_t now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               Clock::now().time_since_epoch())
                               .count();
    h_cancel_latency_ms_.observe(
        std::max<double>(0.0, static_cast<double>(now_ns - cancel_ns) / 1e6));
  }
  // A deadline-caused cancel is the same client-visible event the observe-
  // only path reported: the budget ran out. Keep it kDeadlineExceeded so
  // the legacy four-term accounting holds in deadline-only scenarios.
  if (self.ctx.cause() == CancelCause::kDeadlineExceeded) {
    return Status::deadline_exceeded(
        "deadline expired mid-forward (cancelled at a kernel checkpoint)");
  }
  return Status::cancelled("cancelled mid-forward at a kernel checkpoint");
}

double InferenceService::predicted_cost_locked(int64_t k) const {
  if (k <= 0) return 0.0;
  const int64_t n = static_cast<int64_t>(batch_cost_ewma_.size());
  if (k < n && batch_cost_ewma_[static_cast<size_t>(k)] > 0.0) {
    return batch_cost_ewma_[static_cast<size_t>(k)];
  }
  // Nearest size with live data, scaled linearly: batched cost is close to
  // linear in k on this CPU path, and linear extrapolation errs high from
  // small sizes (the amortised fixed cost shrinks with k) — a conservative
  // bias for a join decision.
  int64_t best = 0;
  for (int64_t j = 1; j < n; ++j) {
    if (batch_cost_ewma_[static_cast<size_t>(j)] <= 0.0) continue;
    if (best == 0 || std::llabs(j - k) < std::llabs(best - k)) best = j;
  }
  if (best > 0) {
    return batch_cost_ewma_[static_cast<size_t>(best)] *
           static_cast<double>(k) / static_cast<double>(best);
  }
  // Cold start: the model-stage p95 (0 before the first forward, which
  // makes a cold scheduler batch as greedily as the legacy one did).
  return h_model_ms_.snapshot().quantile(0.95);
}

void InferenceService::note_batch_outcome(int64_t k, double forward_ms,
                                          bool deadline_missed) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (k <= 0 || k >= static_cast<int64_t>(batch_cost_ewma_.size())) return;
  double& ewma = batch_cost_ewma_[static_cast<size_t>(k)];
  ewma = ewma > 0.0 ? 0.7 * ewma + 0.3 * forward_ms : forward_ms;
  ++forwards_since_change_;
  if (!config_.adaptive_batching || k <= 1 || batch_target_ <= 1) return;
  const double solo = batch_cost_ewma_[1];
  const bool superlinear =
      solo > 0.0 && ewma > solo * static_cast<double>(k) * kShrinkRatio;
  if (deadline_missed || superlinear) {
    // Step down from the size that hurt, not from wherever the target
    // drifted: one bad batch of 3 under a target of 8 should land at 2.
    batch_target_ = std::max<int64_t>(1, std::min(batch_target_, k) - 1);
    c_sched_shrinks_.inc();
    forwards_since_change_ = 0;
    g_batch_target_.set(static_cast<double>(batch_target_));
  }
}

void InferenceService::maybe_grow_target_locked() {
  if (!config_.adaptive_batching) return;
  if (batch_target_ >= config_.batch_max) return;
  // Grow only under sustained pressure (a queue deeper than twice the
  // target) after enough clean forwards since the last change — one good
  // forward must not undo a shrink the next batch would re-learn.
  if (static_cast<int64_t>(queue_.size()) < 2 * batch_target_) return;
  if (forwards_since_change_ < kGrowPatience) return;
  ++batch_target_;
  c_sched_grows_.inc();
  forwards_since_change_ = 0;
  g_batch_target_.set(static_cast<double>(batch_target_));
}

void InferenceService::finish(Job& job, GroundResponse response) {
  // Claim the settlement: if the watchdog already failed this request while
  // its worker was wedged, the worker's late answer is dropped on the floor
  // (accounted exactly once, answered exactly once).
  if (job.state->settled.exchange(true)) return;
  response.latency_ms = ms_since(job.submitted_at);
  h_latency_ms_.observe(response.latency_ms);
  deliver(job.state->done, std::move(response), /*count_submission=*/false);
}

void InferenceService::settle(JobState& state, GroundResponse response) {
  if (state.settled.exchange(true)) return;
  deliver(state.done, std::move(response), /*count_submission=*/false);
}

void InferenceService::deliver(const Callback& done, GroundResponse response,
                               bool count_submission) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (count_submission) c_submitted_.inc();
    c_retries_.inc(response.retries);
    record(response);
  }
  // Outside mutex_: a router callback takes the router lock and may submit
  // a failover to another shard, and the lock order is router -> shard.
  done(std::move(response));
}

void InferenceService::record(const GroundResponse& response) {
  // Caller holds mutex_: the submitted increment and the terminal-state
  // increment are indivisible from a snapshot's point of view.
  switch (response.status.code) {
    case StatusCode::kOk:
      c_served_.inc();
      break;
    case StatusCode::kDegraded:
      c_served_.inc();
      c_degraded_.inc();
      break;
    case StatusCode::kInvalidInput:
      c_rejected_.inc();
      c_rejected_invalid_.inc();
      break;
    case StatusCode::kOverloaded:
      c_rejected_.inc();
      c_rejected_overloaded_.inc();
      break;
    case StatusCode::kDeadlineExceeded:
      c_deadline_exceeded_.inc();
      break;
    case StatusCode::kInternalError:
      c_failed_.inc();
      break;
    case StatusCode::kCancelled:
      c_cancelled_.inc();
      break;
    case StatusCode::kResourceExhausted:
      // Memory-pressure refusal that even the fallback could not answer:
      // accounted as a rejection (the request was shed, not failed).
      c_rejected_.inc();
      c_rejected_resource_.inc();
      break;
  }
}

void InferenceService::watchdog_loop() {
  std::unique_lock<std::mutex> lk(watchdog_mu_);
  for (;;) {
    if (watchdog_cv_.wait_for(
            lk, std::chrono::milliseconds(config_.watchdog_interval_ms),
            [this] { return watchdog_stop_; })) {
      return;
    }
    // Snapshot the live slots under mutex_ (reap_worker may append); the
    // slots themselves are heap-stable, so raw pointers survive the
    // unlock.
    std::vector<Worker*> slots;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (const auto& worker : workers_) {
        if (!worker->lost.load(std::memory_order_acquire)) {
          slots.push_back(worker.get());
        }
      }
    }
    for (Worker* w : slots) {
      const uint64_t hb = w->ctx.heartbeats();
      const uint64_t gen = w->ctx.generation();
      if (!w->busy.load(std::memory_order_acquire)) {
        // Idle workers are healthy by definition; keep the bookkeeping in
        // sync so a stall is only ever counted against one request.
        w->last_heartbeats = hb;
        w->last_generation = gen;
        w->stalled_polls = 0;
        w->kicked = false;
        continue;
      }
      if (hb != w->last_heartbeats || gen != w->last_generation) {
        // Progress (or a new unit of work) since the last poll.
        w->last_heartbeats = hb;
        w->last_generation = gen;
        w->stalled_polls = 0;
        w->kicked = false;
        continue;
      }
      ++w->stalled_polls;
      if (!w->kicked &&
          w->stalled_polls >= config_.watchdog_stall_intervals) {
        // First escalation: cancel the stalled unit of work. Generation-
        // pinned so a worker that finished between our read and this call
        // keeps its next request.
        if (w->ctx.cancel_if_generation(gen, CancelCause::kCancelled)) {
          std::lock_guard<std::mutex> lock(mutex_);
          c_watchdog_kicks_.inc();
        }
        w->kicked = true;
        w->stalled_polls = 0;
      } else if (w->kicked &&
                 w->stalled_polls >= config_.watchdog_grace_intervals) {
        // The kick went unobserved past the grace period: the worker is
        // stuck somewhere no checkpoint is polled. Declare it lost.
        reap_worker(w);
      }
    }
  }
}

void InferenceService::reap_worker(Worker* worker) {
  // Mark first: the wedged thread checks `lost` when it eventually wakes,
  // and worker_loop stops claiming queue work for this slot.
  worker->lost.store(true, std::memory_order_release);
  // Fail the requests the slot had claimed. The settled flag makes this
  // race-free against the worker finishing one of them concurrently.
  std::vector<std::shared_ptr<JobState>> orphans;
  std::vector<std::string> queries;
  {
    std::lock_guard<std::mutex> lock(worker->mu);
    orphans.swap(worker->active);
    queries.swap(worker->active_queries);
  }
  for (size_t i = 0; i < orphans.size(); ++i) {
    GroundResponse response;
    if (i < queries.size()) response.normalised_query = queries[i];
    response.status = Status::internal(
        "worker declared lost by the watchdog while holding this request");
    settle(*orphans[i], std::move(response));
  }
  bool spawn = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    c_workers_lost_.inc();
    spawn = !stopping_;
  }
  if (!spawn) return;
  // Stamp the replacement from the master replica (never serves, so it is
  // safe to copy) outside mutex_ — a model copy is not cheap.
  auto replacement = std::make_unique<Worker>();
  {
    Rng rng(config_.seed + 1000 +
            static_cast<uint64_t>(c_workers_spawned_.value()));
    replacement->replica = std::make_unique<core::YolloModel>(
        model_config_, vocab_->size(), rng);
    nn::copy_module_state(*replacement->replica, *master_replica_);
    replacement->replica->set_training(false);
  }
  Worker* raw = replacement.get();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;  // raced with stop(); drop the replacement
    replacement->thread = std::thread([this, raw] { worker_loop(raw); });
    workers_.push_back(std::move(replacement));
    c_workers_spawned_.inc();
  }
  cv_.notify_all();
}

void InferenceService::stop() {
  {
    std::lock_guard<std::mutex> lock(watchdog_mu_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    accepting_ = false;
    stopping_ = true;
  }
  cv_.notify_all();
  // The watchdog is joined, so no new slots can appear; index-based loop
  // regardless, for symmetry with the heap-stable slot contract. Slots are
  // kept (not cleared) so health() keeps reporting worker counts after
  // stop, as it always has.
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

void InferenceService::pause_admission() {
  std::lock_guard<std::mutex> lock(mutex_);
  accepting_ = false;
}

bool InferenceService::resume_admission() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_) return false;
  accepting_ = true;
  return true;
}

obs::MetricsSnapshot InferenceService::metrics_snapshot() const {
  // Snapshot under the service lock: every taxonomy update happens with
  // mutex_ held, so the snapshot is a consistent cut of the accounting.
  std::lock_guard<std::mutex> lock(mutex_);
  return metrics_.snapshot();
}

ServiceCounters InferenceService::counters() const {
  return counters_from_snapshot(metrics_snapshot());
}

double InferenceService::latency_p95_ms() const {
  return h_latency_ms_.snapshot().quantile(0.95);
}

HealthSnapshot InferenceService::health() const {
  std::lock_guard<std::mutex> lock(mutex_);
  HealthSnapshot snapshot;
  snapshot.accepting = accepting_;
  snapshot.breaker_open = breaker_cooldown_left_ > 0;
  snapshot.queue_depth = static_cast<int64_t>(queue_.size());
  int64_t live = 0;
  for (const auto& worker : workers_) {
    if (!worker->lost.load(std::memory_order_acquire)) ++live;
  }
  snapshot.workers = live;
  snapshot.counters = counters_from_snapshot(metrics_.snapshot());
  return snapshot;
}

ServiceCounters counters_from_snapshot(const obs::MetricsSnapshot& snapshot) {
  ServiceCounters c;
  c.submitted = snapshot.counter("serve.submitted");
  c.served = snapshot.counter("serve.served");
  c.degraded = snapshot.counter("serve.degraded");
  c.rejected = snapshot.counter("serve.rejected");
  c.rejected_invalid = snapshot.counter("serve.rejected_invalid");
  c.rejected_overloaded = snapshot.counter("serve.rejected_overloaded");
  c.rejected_resource = snapshot.counter("serve.rejected_resource");
  c.deadline_exceeded = snapshot.counter("serve.deadline_exceeded");
  c.failed = snapshot.counter("serve.failed");
  c.cancelled = snapshot.counter("serve.cancelled");
  c.retries = snapshot.counter("serve.retries");
  c.breaker_trips = snapshot.counter("serve.breaker_trips");
  c.watchdog_kicks = snapshot.counter("serve.watchdog_kicks");
  c.workers_lost = snapshot.counter("serve.workers_lost");
  c.workers_spawned = snapshot.counter("serve.workers_spawned");
  c.pool_rejected = snapshot.counter("serve.pool_rejected");
  c.batches_coalesced = snapshot.counter("serve.batches_coalesced");
  c.batched_requests = snapshot.counter("serve.batched_requests");
  c.queue_high_water =
      static_cast<int64_t>(snapshot.gauge("serve.queue_high_water"));
  c.max_batch = static_cast<int64_t>(snapshot.gauge("serve.max_batch"));
  c.solo_dispatches = snapshot.counter("serve.solo_dispatches");
  c.sched_shrinks = snapshot.counter("serve.sched_shrinks");
  c.sched_grows = snapshot.counter("serve.sched_grows");
  c.batch_target = static_cast<int64_t>(snapshot.gauge("serve.batch_target"));
  c.workers_warmed =
      static_cast<int64_t>(snapshot.gauge("serve.workers_warmed"));
  c.cache_hits = snapshot.counter("serve.cache_hits");
  c.cache_misses = snapshot.counter("serve.cache_misses");
  c.cache_evictions = snapshot.counter("serve.cache_evictions");
  c.cache_bytes = static_cast<int64_t>(snapshot.gauge("serve.cache_bytes"));
  return c;
}

}  // namespace yollo::serve
