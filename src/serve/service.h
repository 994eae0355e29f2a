// Hardened concurrent inference service around YolloModel.
//
// The paper's pitch is real-time grounding (Table 5); the ROADMAP's is a
// system that serves heavy traffic. This subsystem supplies the part speed
// alone does not: predictable behaviour under overload, bad input, and
// partial failure. Requests flow through
//
//   submit() ── admission ──> bounded queue ──> worker pool ──> response
//      │  input validation        │                 │
//      │  deadline check          │  deadline check │ model tier (replica,
//      │  capacity check          │  at dequeue     │  retry on fault)
//      └─ typed rejection         │                 │ deadline check
//         (never an exception)    │                 │ baseline fallback tier
//                                 │                 └─> kOk / kDegraded /
//                                 │                     typed error
//
// Guarantees (DESIGN.md §8):
//   - the admission queue is bounded: when full, submit() rejects with
//     kOverloaded instead of growing without bound;
//   - every request carries an optional deadline, checked at enqueue, at
//     dequeue, and between pipeline stages — an expired request is answered
//     kDeadlineExceeded, never silently dropped;
//   - the model tier runs on per-worker replicas (no shared mutable tensor
//     state between threads) through the exception-free
//     YolloModel::infer(); a fault or non-finite forward is retried up to
//     max_retries times, then the request falls back to the two-stage
//     baseline tier and is answered kDegraded;
//   - a circuit breaker trips after breaker_threshold consecutive model
//     failures and routes requests straight to the baseline tier for
//     breaker_cooldown requests before probing the model again;
//   - every submitted request is answered exactly once, including during
//     shutdown (stop() drains the queue; nothing hangs).
//
// Supervision (DESIGN.md §13): each worker owns an ExecContext armed with
// the request deadline before every forward attempt, so an expired
// deadline or an external cancel (client CancelToken, hedge-loser reap,
// watchdog kick) aborts the forward *in flight* at the next kernel
// checkpoint instead of after a full pass. A watchdog thread compares
// per-worker heartbeats between polls: a busy worker making no progress
// is kicked (cancelled); one still stuck past a grace period is declared
// lost — its requests fail as kInternalError, a replacement replica is
// spawned, and the accounting invariant is preserved. Workers may also
// carry a storage-pool byte budget: a forward refused by it degrades to
// the baseline tier instead of OOMing the process.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "baseline/matcher.h"
#include "core/yollo.h"
#include "data/vocab.h"
#include "obs/metrics.h"
#include "serve/feature_cache.h"
#include "serve/status.h"
#include "serve/validation.h"
#include "tensor/exec.h"

namespace yollo::runtime {
class FaultInjector;
}  // namespace yollo::runtime

namespace yollo::serve {

// Client-side cancellation handle. Share one with a GroundRequest, then
// call cancel() from any thread to abort the request mid-flight: queued
// requests are answered kCancelled at dequeue, an in-flight forward is
// cancelled at its next kernel checkpoint. Best-effort — a request that
// already completed is unaffected. The token pins the worker's ExecContext
// generation at attach time, so a late cancel can never hit the worker's
// next request.
class CancelToken {
 public:
  void cancel();
  bool requested() const;

 private:
  friend class InferenceService;
  // Bind/unbind the worker context executing this request. attach()
  // applies a pre-attach cancel() immediately and reports it.
  bool attach(ExecContext* ctx, uint64_t generation);
  void detach();

  mutable std::mutex mu_;
  bool requested_ = false;
  ExecContext* ctx_ = nullptr;
  uint64_t generation_ = 0;
};

struct ServeConfig {
  int64_t num_workers = 4;
  int64_t queue_capacity = 32;
  // Continuous batching (DESIGN.md §15): a worker coalesces up to this many
  // already-queued compatible requests into one batched forward. Never
  // waits for a batch to fill — under light load this degenerates to
  // single-image serving; under backlog the per-op fixed costs amortise
  // across the batch. Per-request deadlines and per-element
  // finiteness/clipping checks are preserved: a poisoned element degrades
  // only that request. 1 disables.
  // Formation is slack-aware: the front request always dispatches, and a
  // follower joins only while every rider's deadline slack covers the
  // predicted cost of the grown batch (live per-batch-size cost EWMAs,
  // seeded from the model-stage p95) with margin — so a near-deadline
  // request runs solo instead of being serialised into a batched forward
  // behind strangers whose batch tax it cannot afford.
  int64_t batch_max = 4;
  // Adaptive batch-size target: the formation cap starts at batch_max,
  // shrinks when a batched forward misses a rider's deadline or its cost
  // EWMA goes superlinear versus solo forwards (p95 pressure), and grows
  // back one step at a time while the queue stays deeper than twice the
  // target. false — or YOLLO_BATCH_ADAPTIVE=0 at construction — pins the
  // target at batch_max (slack-aware formation still applies).
  bool adaptive_batching = true;
  // Content-addressed backbone feature cache budget in MiB (see
  // serve/feature_cache.h): a request whose image bytes were seen before
  // skips the backbone and runs only the query-dependent half. -1 reads
  // YOLLO_FEATURE_CACHE_MB at construction; <= 0 disables (the default —
  // deployments that never repeat images pay nothing).
  int64_t feature_cache_mb = -1;
  // Deadline applied to requests that do not carry their own (deadline_ms
  // < 0). <= 0 disables the default deadline.
  int64_t default_deadline_ms = 0;
  // Model-tier retries after a faulted or non-finite forward before the
  // request degrades to the baseline tier.
  int64_t max_retries = 1;
  // Circuit breaker: after this many consecutive model-tier failures the
  // model is skipped entirely...
  int64_t breaker_threshold = 3;
  // ...for this many requests (counted, not timed, so tests are
  // deterministic), after which one request probes the model again.
  int64_t breaker_cooldown = 8;
  // Seed for constructing the per-worker replicas.
  uint64_t seed = 1234;
  // Cooperative cancellation: arm each worker's ExecContext with the
  // request deadline per forward attempt so deadlines/cancels abort the
  // forward in flight. Off restores the PR-2 observe-only deadline
  // behaviour (and disables the watchdog, which needs heartbeats).
  bool enable_cancellation = true;
  // Compile static forward plans (DESIGN.md §14) for every batch size up to
  // batch_max before the worker takes its first request, so no request pays
  // the record+compile cost. Charges the worker's pool budget; a refused
  // arena just leaves that batch size on the dynamic path. No-op when
  // YOLLO_PLAN=0.
  bool warm_plans = true;
  // Watchdog poll interval in ms. -1 reads YOLLO_WATCHDOG_MS at
  // construction; <= 0 disables the watchdog (the default when the env is
  // unset).
  int64_t watchdog_interval_ms = -1;
  // Polls with zero heartbeat progress on a busy worker before it is
  // kicked (its context cancelled), and further zero-progress polls after
  // the kick before it is declared lost and replaced.
  int64_t watchdog_stall_intervals = 2;
  int64_t watchdog_grace_intervals = 3;
  // Per-worker storage-pool byte budget in MiB. -1 reads
  // YOLLO_POOL_BUDGET_MB at construction; <= 0 disables (the default). A
  // forward refused by the budget is retried after trimming the pool,
  // then degraded to the baseline tier (kResourceExhausted if even that
  // cannot answer).
  int64_t pool_budget_mb = -1;
  // Optional scoped fault injector for this service's worker threads (must
  // outlive the service). null keeps the process-wide env-driven injector —
  // the default, so single-service deployments and existing tests are
  // untouched. A sharded front-end gives each shard its own instance so
  // chaos can hit one replica set without touching the others.
  runtime::FaultInjector* fault_injector = nullptr;
};

struct GroundRequest {
  Tensor image;       // [3, img_h, img_w] matching the model's config
  std::string query;  // free text; normalised through the service vocab
  // Relative deadline in milliseconds: < 0 uses the ServeConfig default,
  // 0 disables, > 0 counts from submit().
  int64_t deadline_ms = -1;
  // Absolute deadline (steady clock); overrides deadline_ms when set.
  // Requests whose deadline has already passed are rejected at enqueue.
  std::chrono::steady_clock::time_point deadline_at{};
  // Optional cancellation handle (see CancelToken). null = not cancellable.
  std::shared_ptr<CancelToken> cancel;
};

struct GroundResponse {
  Status status;
  vision::Box box;  // valid when status.answered(); clipped to the image
  std::string normalised_query;
  int64_t retries = 0;      // model-tier retries this request consumed
  double latency_ms = 0.0;  // submit() to completion
};

// Monotonic per-service counters. Invariant once all submitted futures
// have resolved:
//   served + rejected + deadline_exceeded + failed + cancelled == submitted
// (cancelled is 0 unless CancelTokens or the watchdog fire, so the
// original four-term form still holds in those runs). The authoritative
// store is the service's obs::MetricsRegistry (names "serve.*"); this
// struct is the flat view derived from one snapshot.
struct ServiceCounters {
  int64_t submitted = 0;
  int64_t served = 0;    // answered: kOk + kDegraded
  int64_t degraded = 0;  // subset of served answered by the baseline tier
  int64_t rejected = 0;  // admission rejections (invalid + overloaded)
  int64_t rejected_invalid = 0;     // subset of rejected
  int64_t rejected_overloaded = 0;  // subset of rejected
  int64_t rejected_resource = 0;    // subset of rejected (pool budget, no
                                    // fallback answer)
  int64_t deadline_exceeded = 0;
  int64_t failed = 0;     // kInternalError responses
  int64_t cancelled = 0;  // kCancelled responses (token / watchdog kick)
  int64_t retries = 0;
  int64_t breaker_trips = 0;
  // Supervision visibility (no effect on the accounting invariant).
  int64_t watchdog_kicks = 0;    // busy-but-stalled workers cancelled
  int64_t workers_lost = 0;      // workers declared lost and detached
  int64_t workers_spawned = 0;   // replacement workers brought up
  int64_t pool_rejected = 0;     // forwards refused by the pool budget
                                 // (including ones that then succeeded on
                                 // retry or degraded)
  int64_t queue_high_water = 0;  // deepest the admission queue has been
  // Micro-batching visibility (no effect on the accounting invariant).
  int64_t batches_coalesced = 0;  // coalesced (>= 2 requests) forwards
  int64_t batched_requests = 0;   // requests that rode a coalesced forward
  int64_t max_batch = 0;          // largest coalesced batch so far
  // Continuous-batching scheduler visibility (no effect on the invariant).
  int64_t solo_dispatches = 0;  // slack-forced solo runs with company queued
  int64_t sched_shrinks = 0;    // adaptive target steps down (p95 pressure)
  int64_t sched_grows = 0;      // adaptive target steps back up (deep queue)
  int64_t batch_target = 0;     // current adaptive formation cap (gauge)
  int64_t workers_warmed = 0;   // workers past plan warm-up (gauge)
  // Feature-cache visibility (no effect on the invariant).
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;
  int64_t cache_bytes = 0;  // resident feature bytes (gauge)
};

struct HealthSnapshot {
  bool accepting = false;
  bool breaker_open = false;
  int64_t queue_depth = 0;
  int64_t workers = 0;
  ServiceCounters counters;
};

class InferenceService {
 public:
  // `model` is copied into num_workers eval-mode replicas; the source is
  // not referenced after construction. `fallback` (optional) is the
  // baseline proposer+matcher tier used for degraded answers; it is shared
  // and internally serialised (degradation is the rare path). When several
  // services share one fallback pipeline (a sharded front-end), pass the
  // same `fallback_mutex` to all of them so the serialisation spans every
  // sharer; null uses a service-private mutex. `vocab` must outlive the
  // service.
  InferenceService(core::YolloModel& model, const data::Vocab& vocab,
                   const ServeConfig& config,
                   baseline::TwoStagePipeline* fallback = nullptr,
                   std::mutex* fallback_mutex = nullptr);
  ~InferenceService();

  InferenceService(const InferenceService&) = delete;
  InferenceService& operator=(const InferenceService&) = delete;

  // Admission: validate, stamp the deadline, enqueue. `done` runs exactly
  // once with the typed answer — on the calling thread for an admission
  // rejection, otherwise on the worker (or watchdog) thread that settles
  // the request — and never with a service lock held, so it may call back
  // into this or another service. `done` must not throw. Never throws on
  // bad input or overload.
  using Callback = std::function<void(GroundResponse)>;
  void submit(GroundRequest request, Callback done);

  // submit() with the answer delivered through a future.
  std::future<GroundResponse> submit(GroundRequest request);

  // submit() + wait.
  GroundResponse ground(GroundRequest request);

  // Stop admission, drain the queue (every pending request is answered),
  // join the workers. Idempotent; also called by the destructor.
  void stop();

  // Drain/probe hooks for a sharded front-end. pause_admission() closes the
  // door (new submissions are typed kOverloaded) while the workers keep
  // draining — queued work is still answered, never dropped. After the
  // drain, resume_admission() reopens it; returns false once the service
  // has been stop()ped for good (a dead shard cannot be probed back in).
  void pause_admission();
  bool resume_admission();

  // All three read the same coherent registry snapshot, taken under the
  // service lock that every counter update holds — the accounting invariant
  // can never be observed mid-update (e.g. submitted incremented but the
  // terminal counter not yet).
  ServiceCounters counters() const;
  HealthSnapshot health() const;
  obs::MetricsSnapshot metrics_snapshot() const;

  // Live p95 of end-to-end request latency (ms) from the service histogram
  // — lock-free; the router's health thread reads this at high frequency.
  // 0 until the first request completes.
  double latency_p95_ms() const;

  // The backbone feature cache (disabled unless feature_cache_mb > 0 or
  // YOLLO_FEATURE_CACHE_MB is set). Exposed for warm-up probes, reload
  // invalidation, and tests; thread-safe.
  FeatureCache& feature_cache() { return cache_; }

  const ServeConfig& config() const { return config_; }
  const core::YolloConfig& model_config() const { return model_config_; }

 private:
  using Clock = std::chrono::steady_clock;

  // Shared settlement state: the completion callback plus a claim flag, so
  // the worker and the watchdog (which may fail a wedged worker's request
  // while that worker is still stuck inside it) settle each request exactly
  // once.
  struct JobState {
    Callback done;
    std::atomic<bool> settled{false};
  };

  struct Job {
    Tensor image;  // [3, H, W]
    std::vector<int64_t> tokens;
    std::string normalised_query;
    Clock::time_point submitted_at;
    Clock::time_point deadline;  // Clock::time_point::max() == none
    std::shared_ptr<CancelToken> cancel;  // null = not cancellable
    std::shared_ptr<JobState> state;
    // Content hash of `image` (FeatureCache::hash_image), computed once at
    // admission so workers never re-scan the pixels. 0 when the cache is
    // disabled.
    uint64_t image_hash = 0;
  };

  // One job's resolved cache state, threaded through the pipeline so a
  // request is looked up at most once no matter how it is routed (solo,
  // batched hit group, batched miss group, salvage). `features` defined ==
  // hit (a pinned [C, grid_h, grid_w] view); probed with undefined
  // features == known miss, insert under `key` after a healthy full-path
  // forward.
  struct CacheProbe {
    // Explicit constructor (not NSDMIs): this type appears as a defaulted
    // argument of enclosing-class members, where GCC requires the default
    // member initializers to be complete before the class closes.
    CacheProbe() : probed(false), key(0) {}
    bool probed;
    uint64_t key;
    Tensor features;
  };

  // One worker slot: thread + replica + supervision state. Slots are
  // heap-stable (vector of unique_ptr) because worker threads and the
  // watchdog hold raw pointers across mutex_ sections. A lost slot keeps
  // its thread joinable — the wedged thread eventually finishes its
  // bounded stall, observes `lost`, and exits; stop() joins it.
  struct Worker {
    std::thread thread;
    std::unique_ptr<core::YolloModel> replica;
    ExecContext ctx;
    std::atomic<bool> busy{false};
    std::atomic<bool> lost{false};
    // Requests currently held by this worker, registered so the watchdog
    // can fail them if the worker is declared lost. Guarded by mu (never
    // held together with mutex_).
    std::mutex mu;
    std::vector<std::shared_ptr<JobState>> active;
    std::vector<std::string> active_queries;
    // Watchdog bookkeeping (touched only by the watchdog thread).
    uint64_t last_heartbeats = 0;
    uint64_t last_generation = 0;
    int64_t stalled_polls = 0;
    bool kicked = false;
  };

  void worker_loop(Worker* self);
  void watchdog_loop();
  // Declare `worker` lost: fail its registered requests as kInternalError,
  // then spawn a replacement slot (unless the service is stopping).
  void reap_worker(Worker* worker);
  // One dequeue round: deadline/cancel checks, breaker accounting, then
  // either the single-image path or a coalesced batched forward.
  void process_batch(Worker& self, std::vector<Job>& batch);
  // Full single-request pipeline: model tier (retries) then fallback tier;
  // always finishes the job. Also the salvage path for an element that
  // failed inside a coalesced forward.
  void run_single(Worker& self, Job& job, CacheProbe probe = CacheProbe());
  // Batched dispatch for >= 2 jobs: partitions into a cache-hit group
  // (batched fuse-only forward over the pinned features) and a miss group
  // (full batched forward, features captured and inserted per healthy
  // element); groups of one fall through to run_single with their probe.
  void run_batched_model_tier(Worker& self, const std::vector<Job*>& jobs);
  // One batched forward over >= 2 jobs of the same cache disposition, with
  // per-element failure isolation: healthy elements are answered from the
  // batch, poisoned ones are retried and degraded individually.
  void run_batch_group(Worker& self, const std::vector<Job*>& jobs,
                       std::vector<CacheProbe> probes, bool cached_path);
  // Model tier for one job on this worker's replica: deadline-checked,
  // cancellation-armed attempts with retry. The first attempt rides the
  // feature cache when `probe` (or a fresh lookup) hits; failures retry on
  // the full path. Returns true when `response` is final (answered,
  // deadline, or cancelled); false when the tier failed and the job should
  // degrade.
  bool run_model_tier(Worker& self, Job& job, GroundResponse& response,
                      CacheProbe probe = CacheProbe());
  // Baseline tier; always produces a final response (kDegraded or error).
  void run_fallback_tier(Worker& self, Job& job, const std::string& reason,
                         GroundResponse& response);
  // Stamp the latency and settle the job (no-op when the watchdog already
  // settled it).
  void finish(Job& job, GroundResponse response);
  // Settle an arbitrary JobState exactly once (reap path).
  void settle(JobState& state, GroundResponse response);
  // The one settlement path: account the response under mutex_ (counting
  // the submission too for an admission rejection), then run `done`
  // outside it.
  void deliver(const Callback& done, GroundResponse response,
               bool count_submission);
  // Classify a terminal response into the counter taxonomy.
  void record(const GroundResponse& response);
  // Map a cancelled forward outcome to its terminal status and observe the
  // cancel->observed latency histogram.
  Status map_cancelled(Worker& self);

  // --- continuous-batching scheduler (all under mutex_) --------------------
  // Predicted wall cost (ms) of a batched forward of size k: the live
  // per-size EWMA when known, the nearest known size scaled linearly
  // otherwise, and the model-stage p95 as the cold-start seed (0 until the
  // first forward completes, so a cold service batches exactly as greedily
  // as the legacy scheduler did).
  double predicted_cost_locked(int64_t k) const;
  // Feed one completed forward into the cost model and apply the shrink
  // rule: a batched forward that missed a rider's deadline, or whose cost
  // EWMA went superlinear versus solo forwards, steps the target down.
  void note_batch_outcome(int64_t k, double forward_ms, bool deadline_missed);
  // Applied at formation time: step the target back up when the queue has
  // stayed deep and recent forwards have been clean.
  void maybe_grow_target_locked();

  static Clock::time_point resolve_deadline(const GroundRequest& request,
                                            int64_t default_ms,
                                            Clock::time_point now);

  ServeConfig config_;
  core::YolloConfig model_config_;
  const data::Vocab* vocab_;
  baseline::TwoStagePipeline* fallback_;
  // Pristine eval-mode copy used to stamp out replacement replicas: an
  // in-use replica cannot be copied safely (its train/eval flags flip
  // under EvalModeGuard on another thread), this one never runs.
  std::unique_ptr<core::YolloModel> master_replica_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::thread watchdog_;

  mutable std::mutex mutex_;  // queue, lifecycle, counters, breaker
  std::condition_variable cv_;
  std::deque<Job> queue_;
  bool accepting_ = true;
  // Written under mutex_; atomic so the plan warm-up loop can poll it
  // without the lock.
  std::atomic<bool> stopping_{false};

  // Per-service registry (isolated accounting: each service in a test
  // binary owns its own counters) plus cached references for the hot path.
  // The taxonomy counters are only ever updated under mutex_ — that is what
  // makes snapshot-under-lock coherent; the latency/depth histograms are
  // observability-only and may be observed off-lock.
  obs::MetricsRegistry metrics_;
  obs::Counter& c_submitted_;
  obs::Counter& c_served_;
  obs::Counter& c_degraded_;
  obs::Counter& c_rejected_;
  obs::Counter& c_rejected_invalid_;
  obs::Counter& c_rejected_overloaded_;
  obs::Counter& c_rejected_resource_;
  obs::Counter& c_deadline_exceeded_;
  obs::Counter& c_failed_;
  obs::Counter& c_cancelled_;
  obs::Counter& c_retries_;
  obs::Counter& c_breaker_trips_;
  obs::Counter& c_batches_coalesced_;
  obs::Counter& c_batched_requests_;
  obs::Counter& c_watchdog_kicks_;
  obs::Counter& c_workers_lost_;
  obs::Counter& c_workers_spawned_;
  obs::Counter& c_pool_rejected_;
  obs::Counter& c_solo_dispatches_;
  obs::Counter& c_sched_shrinks_;
  obs::Counter& c_sched_grows_;
  obs::Gauge& g_queue_high_water_;
  obs::Gauge& g_max_batch_;
  obs::Gauge& g_batch_target_;
  obs::Gauge& g_workers_warmed_;
  obs::Histogram& h_queue_depth_;
  obs::Histogram& h_queue_wait_ms_;
  obs::Histogram& h_model_ms_;
  obs::Histogram& h_latency_ms_;
  // Cancel signal -> first checkpoint that observed it, in ms: the
  // "worker freed within one checkpoint interval" claim, measured.
  obs::Histogram& h_cancel_latency_ms_;
  // Per-batch-size formation latency ("serve.formation_ms_b<k>"): age of a
  // batch's oldest rider at dispatch, indexed by the formed size k (slot 0
  // unused). Created eagerly in the constructor — registry refs are stable.
  std::vector<obs::Histogram*> formation_hists_;

  // Content-addressed backbone feature cache (registers its serve.cache_*
  // metrics in metrics_, so declared after it).
  FeatureCache cache_;

  // Continuous-batching scheduler state (guarded by mutex_).
  int64_t batch_target_ = 1;           // adaptive formation cap
  std::vector<double> batch_cost_ewma_;  // [batch_max + 1]; 0 == unknown
  int64_t forwards_since_change_ = 0;  // grow patience accumulator
  int64_t warmed_workers_ = 0;         // workers past plan warm-up

  // Watchdog lifecycle (separate mutex: the watchdog must be able to poll
  // while mutex_ is busy with queue traffic).
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;

  // Circuit breaker (guarded by mutex_). consecutive_failures_ is not reset
  // when the breaker trips, so a failed probe after cooldown re-trips
  // immediately (classic half-open behaviour).
  int64_t consecutive_failures_ = 0;
  int64_t breaker_cooldown_left_ = 0;  // > 0 == open

  std::mutex fallback_mutex_;   // serialises the shared baseline tier...
  std::mutex* fallback_lock_;   // ...or a caller-shared mutex spanning shards
};

// Flatten a service metrics snapshot ("serve.*" names) into the legacy
// counter struct. Derived from ONE snapshot, so the accounting invariant
// holds for the returned struct whenever it held for the snapshot.
ServiceCounters counters_from_snapshot(const obs::MetricsSnapshot& snapshot);

}  // namespace yollo::serve
