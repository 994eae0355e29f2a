// Sharded serving front-end: N InferenceService shards behind one
// consistent-hash router that never loses a request when shards misbehave.
//
// The paper's pitch is a pipeline cheap enough to serve interactively; the
// ROADMAP's is serving it to millions of users. One InferenceService cannot
// survive that: a poisoned replica set or one slow worker pool takes the
// whole endpoint down. The Router scales out and — more importantly —
// contains failures (DESIGN.md §12):
//
//   submit ── hash(image id) ──> primary shard ──────────┐
//      │            │                                     ├─> first answer
//      │            └─ deadline at risk (live p95)        │   wins; the
//      │               └──> hedge to ring successor ──────┘   loser is
//      │                    (≤ hedge_budget extra load)       ignored
//      │
//      └─ retryable shard answer (kOverloaded/kInternalError)
//         └──> failover to the next untried shard on the ring
//
//   No router thread waits on attempts: a shard settles each attempt by
//   calling back into the router, and that callback decides the request
//   (finish, wait for the racing hedge, or dispatch the failover).
//
//   health thread: scores every shard from health() + queue-depth gauges;
//   a shard whose breaker opens or whose health degrades is taken out of
//   rotation, drained (queued work still answered), and probed back in
//   half-open — one real request at a time; a failed probe re-drains it.
//
// Consistent hashing by image id preserves backbone-feature locality per
// shard (one image, many queries lands on one shard's future feature
// cache); adding or removing a shard remaps only ~1/N of the key space.
//
// Accounting: the router owns its own obs::MetricsRegistry ("router.*").
// Every submitted request terminates in exactly one router-level outcome —
// hedges and failovers are deduplicated first-wins — so the service-level
// invariant extends to the router:
//
//   served + rejected + deadline_exceeded + failed == submitted
//
// and holds in every concurrent snapshot (terminal accounting happens under
// the router mutex, exactly like InferenceService). Lock order is always
// router -> shard: shards run the callback with no lock of theirs held, and
// the router dispatches to a shard only after releasing its own mutex.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/fault.h"
#include "serve/service.h"

namespace yollo::serve {

// Consistent-hash ring with virtual nodes. Deterministic (no RNG): vnode
// positions are splitmix64 of (node, replica). Not thread-safe by itself;
// the Router mutates it only under its own mutex (and tests use it
// standalone).
class HashRing {
 public:
  explicit HashRing(int64_t vnodes_per_node = 64);

  void add_node(int64_t node);
  void remove_node(int64_t node);
  int64_t num_nodes() const { return static_cast<int64_t>(nodes_.size()); }

  // Owner of `key_hash`: the first vnode at or clockwise after it. -1 when
  // the ring is empty.
  int64_t node_for(uint64_t key_hash) const;
  // Every distinct node in ring order starting at the owner — the failover
  // / hedging preference order for this key.
  std::vector<int64_t> walk(uint64_t key_hash) const;

  static uint64_t hash_key(const std::string& key);
  static uint64_t hash_bytes(const void* data, size_t len,
                             uint64_t seed = 0x9e3779b97f4a7c15ull);

 private:
  int64_t vnodes_;
  std::map<uint64_t, int64_t> ring_;  // vnode position -> node
  std::map<int64_t, int64_t> nodes_;  // node -> vnode count
};

struct RouterConfig {
  int64_t num_shards = 3;
  // Template for every shard's service; seed is offset per shard so replica
  // construction differs, and fault_injector is overridden per shard when
  // scoped_faults is set.
  ServeConfig shard;
  int64_t vnodes = 64;
  // Router-level default deadline for requests that do not carry their own
  // (same semantics as ServeConfig::default_deadline_ms).
  int64_t default_deadline_ms = 0;

  // Hedged retries: when the primary's observed p95 (read live from its
  // latency histogram by the health thread) exceeds the request's remaining
  // budget, a duplicate is launched on the ring successor and the first
  // answer wins. hedge_budget caps hedges to that fraction of submitted
  // requests (≤10% extra load by default).
  bool hedging = true;
  double hedge_budget = 0.10;

  // Failovers: a retryable shard answer (kOverloaded / kInternalError) is
  // re-routed to the next untried shard on the ring while the deadline
  // allows. -1 = up to every other shard once.
  int64_t max_failovers = -1;

  // Health manager.
  int64_t health_interval_ms = 2;   // shard scoring/probing poll period
  double soft_score = 0.75;         // below: prefer a healthier successor
  double drain_score = 0.5;         // below: out of rotation, drain
  int64_t shard_failure_threshold = 3;  // consecutive router-visible
                                        // failures that trip a shard out
  int64_t drain_cooldown_ms = 20;   // min drained time before probing
  int64_t probe_interval_ms = 10;   // half-open: one probe per interval

  // Per-shard scoped FaultInjector instances (chaos can then hit one shard;
  // the env-driven global injector no longer reaches these workers). Off =
  // all shards consume the process-wide injector, as before PR 6.
  bool scoped_faults = true;

  uint64_t seed = 1234;
};

struct RouteRequest {
  Tensor image;       // [3, img_h, img_w] matching the model's config
  std::string query;  // free text
  // Consistent-hash key. Empty derives a content hash from the image bytes
  // (same image -> same shard, the feature-cache locality the ROADMAP
  // wants); non-empty lets callers pin e.g. a gallery id.
  std::string image_id;
  int64_t deadline_ms = -1;  // < 0 router default, 0 none, > 0 from submit()
  std::chrono::steady_clock::time_point deadline_at{};  // overrides _ms
};

struct RouteResponse {
  Status status;
  vision::Box box;  // valid when status.answered()
  std::string normalised_query;
  double latency_ms = 0.0;  // router submit() to router completion
  int64_t shard = -1;       // shard that produced the winning answer
  bool hedged = false;      // a hedge was launched for this request
  bool hedge_won = false;   // ...and the hedge beat the primary
  int64_t failovers = 0;    // re-routes this request consumed
  int64_t retries = 0;      // winning shard's model-tier retries
};

// Flat view of the router registry ("router.*" names), derived from one
// coherent snapshot. Invariant once all submitted futures have resolved:
//   served + rejected + deadline_exceeded + failed == submitted.
struct RouterCounters {
  int64_t submitted = 0;
  int64_t served = 0;    // kOk + kDegraded
  int64_t degraded = 0;  // subset of served
  int64_t rejected = 0;  // kInvalidInput + kOverloaded terminal answers
  int64_t deadline_exceeded = 0;
  int64_t failed = 0;
  int64_t hedges_launched = 0;
  int64_t hedges_won = 0;
  // Losing attempts (hedge or stale racer) actively cancelled after another
  // attempt won. Visibility only: a cancelled loser never reaches the
  // router taxonomy (its job already terminated with the winner).
  int64_t hedge_cancelled = 0;
  int64_t failovers = 0;
  int64_t probes_sent = 0;
  int64_t probes_failed = 0;
  int64_t shards_drained = 0;   // rotations out (drain events)
  int64_t shards_restored = 0;  // successful probes back to active
};

enum class ShardState { kActive, kDraining, kProbing };
const char* shard_state_name(ShardState state);

struct ShardHealth {
  int64_t id = -1;
  ShardState state = ShardState::kActive;
  double score = 0.0;
  double p95_ms = 0.0;  // shard-observed request latency p95
  int64_t queue_depth = 0;
  bool accepting = false;
  bool breaker_open = false;
  int64_t consecutive_failures = 0;
};

struct RouterHealth {
  bool accepting = false;
  int64_t in_rotation = 0;  // shards currently kActive
  std::vector<ShardHealth> shards;
  RouterCounters counters;
};

class Router {
 public:
  // `model` is copied into every shard's replica set; `fallback` (optional)
  // is shared by all shards — the router hands every shard one shared mutex
  // so cross-shard degradations serialise correctly. `vocab` and `fallback`
  // must outlive the router.
  Router(core::YolloModel& model, const data::Vocab& vocab,
         const RouterConfig& config,
         baseline::TwoStagePipeline* fallback = nullptr);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  // Route, hedge, failover. The returned future always resolves with a
  // typed RouteResponse — never an exception, never a hang, including
  // during shutdown and shard failure.
  std::future<RouteResponse> submit(RouteRequest request);

  // submit() + wait.
  RouteResponse route(RouteRequest request);

  // Stop admission, then stop the shards in turn: each drains its queue,
  // and a failover sent to a shard already stopped is answered kOverloaded
  // at once, so every in-flight request resolves. Idempotent; also called
  // by the destructor.
  void stop();

  // --- introspection / chaos hooks ----------------------------------------
  int64_t num_shards() const;
  InferenceService& shard(int64_t i);
  // The shard's scoped injector (null unless config.scoped_faults).
  runtime::FaultInjector* shard_injector(int64_t i);
  // Chaos: stop() the shard's service mid-run. The router's health loop
  // sees the death and routes around it; in-flight requests on the shard
  // are still answered (stop drains) or failed over.
  void kill_shard(int64_t i);

  // The hash key submit() would use for this request, and the shard the
  // ring currently owns it to (ignores health; tests pin placement).
  static uint64_t key_for(const RouteRequest& request);
  int64_t ring_owner(uint64_t key_hash) const;

  // Coherent accounting reads (same contract as InferenceService: the
  // taxonomy is only ever updated under the router mutex the snapshot
  // takes).
  RouterCounters counters() const;
  RouterHealth health() const;
  obs::MetricsSnapshot metrics_snapshot() const;

  const RouterConfig& config() const { return config_; }

 private:
  using Clock = std::chrono::steady_clock;

  // One shard attempt of a request. At most two race (primary + hedge);
  // a failover is dispatched only once every earlier attempt has failed.
  struct Attempt {
    int64_t shard = -1;
    bool hedge = false;
    bool probe = false;
    // Per-attempt cancellation handle: when another attempt wins the race,
    // the losers are cancelled so their shards stop burning compute on an
    // answer nobody will read (the shard accounts them kCancelled).
    std::shared_ptr<CancelToken> cancel;
    bool done = false;
  };

  // Shared by the request's shard callbacks. After dispatch every field is
  // guarded by mutex_ (the immutable request fields are written before).
  struct Job {
    uint64_t key_hash = 0;
    Tensor image;
    std::string query;
    Clock::time_point submitted_at;
    Clock::time_point deadline;  // Clock::time_point::max() == none
    std::vector<Attempt> attempts;
    std::promise<RouteResponse> promise;
    bool hedged = false;
    int64_t failovers = 0;
    GroundResponse last_failure;  // best terminal answer if all routes fail
    bool done = false;
  };

  struct ShardEntry {
    std::unique_ptr<runtime::FaultInjector> injector;
    std::unique_ptr<InferenceService> service;
    ShardState state = ShardState::kActive;
    double score = 1.0;
    double p95_ms = 0.0;
    int64_t queue_depth = 0;
    bool accepting = true;
    bool breaker_open = false;
    int64_t consecutive_failures = 0;
    Clock::time_point drained_at{};
    Clock::time_point next_probe_at{};
  };

  // Routing decision for one request/failover: shard id (-1 = none) and
  // whether the pick is a half-open probe. Caller holds mutex_.
  struct Pick {
    int64_t shard = -1;
    bool probe = false;
  };
  Pick pick_shard(uint64_t key_hash, const std::vector<Attempt>& tried,
                  Clock::time_point now);
  // Hedge target: first active untried shard after `primary` on the ring.
  int64_t pick_hedge(uint64_t key_hash, int64_t primary);

  // Appends an attempt (with a fresh CancelToken) to the job and returns
  // its index. Caller holds mutex_.
  size_t add_attempt(Job& job, Pick pick, bool hedge);
  // Submits attempt `index` to its shard (image storage is shared, not
  // copied) with settle() as the completion callback — called WITHOUT
  // mutex_ held (shard admission validates O(pixels) and takes the shard
  // lock). A synchronous shard rejection re-enters settle() on this
  // thread; the recursion is bounded by num_shards.
  void dispatch(const std::shared_ptr<Job>& job, size_t index);
  // Shard callback for attempt `index`: records shard health, then
  // finishes the request, waits for its racing attempt, or dispatches the
  // failover to the next untried shard.
  void settle(const std::shared_ptr<Job>& job, size_t index,
              GroundResponse response);
  // Terminal taxonomy accounting for one request. Caller holds mutex_.
  void account_locked(StatusCode code);

  void health_loop();
  // Shard outcome feedback (mutex_ held): failure streaks trip the shard
  // out of rotation; probe results close or re-open the half-open state.
  void note_shard_result(int64_t shard, bool retryable_failure, bool probe,
                         bool probe_ok);

  static Clock::time_point resolve_deadline(const RouteRequest& request,
                                            int64_t default_ms,
                                            Clock::time_point now);

  RouterConfig config_;
  const data::Vocab* vocab_;
  std::mutex fallback_gate_;  // shared across shards (see ctor comment)
  std::vector<ShardEntry> shards_;

  mutable std::mutex mutex_;  // ring, shard states, jobs, counters
  std::condition_variable cv_;
  HashRing ring_;
  bool accepting_ = true;
  bool stopping_ = false;

  std::thread health_thread_;

  // Router registry; taxonomy counters only updated under mutex_ (coherent
  // snapshots), per-shard gauges are observability-only.
  obs::MetricsRegistry metrics_;
  obs::Counter& c_submitted_;
  obs::Counter& c_served_;
  obs::Counter& c_degraded_;
  obs::Counter& c_rejected_;
  obs::Counter& c_deadline_exceeded_;
  obs::Counter& c_failed_;
  obs::Counter& c_hedges_launched_;
  obs::Counter& c_hedges_won_;
  obs::Counter& c_hedge_cancelled_;
  obs::Counter& c_failovers_;
  obs::Counter& c_probes_sent_;
  obs::Counter& c_probes_failed_;
  obs::Counter& c_shards_drained_;
  obs::Counter& c_shards_restored_;
  obs::Histogram& h_latency_ms_;
};

// Flatten a router metrics snapshot ("router.*" names) into the flat
// counter struct; the invariant holds for the struct whenever it held for
// the snapshot.
RouterCounters router_counters_from_snapshot(
    const obs::MetricsSnapshot& snapshot);

}  // namespace yollo::serve
