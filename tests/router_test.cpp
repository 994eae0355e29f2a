// Sharded router tests: consistent-hash ring stability, health-aware
// routing, failover on shard failure, hedged-request dedup, drain/probe
// (half-open) shard recovery, and a chaos run that kills a shard mid-flight
// while a concurrent poller asserts the router accounting invariant
//
//   served + rejected + deadline_exceeded + failed == submitted
//
// stays coherent in every snapshot and zero requests are lost.
//
// Deterministic tests pin requests to a known shard via image_id (the ring
// is static; only shard *state* changes rotation) and use per-shard scoped
// FaultInjector instances so chaos hits exactly one replica set.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/matcher.h"
#include "baseline/proposer.h"
#include "runtime/fault.h"
#include "serve/router.h"
#include "serve/service.h"

// TSan slows real forward passes ~15x while injected wall-clock delays
// (slow_forward_ms) stay fixed, which silently inverts the ratios the
// timing tests rely on (injected delay >> real forward << deadline).
// Stretch every latency constant under TSan so the ratios survive.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define YOLLO_TSAN_BUILD 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define YOLLO_TSAN_BUILD 1
#endif

namespace yollo::serve {
namespace {

#ifdef YOLLO_TSAN_BUILD
constexpr int kTimeScale = 8;
#else
constexpr int kTimeScale = 1;
#endif

// The process-wide injector must stay disarmed around every test (scoped
// shard injectors are armed explicitly where a test wants chaos).
struct FaultGuard {
  FaultGuard() { runtime::FaultInjector::instance().reset(); }
  ~FaultGuard() { runtime::FaultInjector::instance().reset(); }
};

core::YolloConfig tiny_config() {
  core::YolloConfig cfg;
  cfg.img_h = 32;
  cfg.img_w = 48;
  cfg.max_query_len = 6;
  cfg.num_rel2att = 1;
  return cfg;
}

struct RouterHarness {
  data::Vocab vocab = data::Vocab::grounding_vocab();
  core::YolloConfig cfg = tiny_config();
  Rng rng{123};
  core::YolloModel model{cfg, vocab.size(), rng};

  baseline::ProposerConfig pcfg;
  std::unique_ptr<baseline::RegionProposalNetwork> rpn;
  std::unique_ptr<baseline::ListenerMatcher> listener;
  std::unique_ptr<baseline::SpeakerMatcher> speaker;
  std::unique_ptr<baseline::TwoStagePipeline> pipeline;

  RouterHarness() {
    model.set_training(false);
    pcfg.img_h = cfg.img_h;
    pcfg.img_w = cfg.img_w;
    pcfg.max_proposals = 8;
    Rng prng(7);
    rpn = std::make_unique<baseline::RegionProposalNetwork>(pcfg, prng);
    rpn->set_training(false);
    baseline::MatcherConfig mcfg;
    mcfg.patch = 16;
    mcfg.emb_dim = 16;
    mcfg.word_dim = 16;
    mcfg.vocab_size = vocab.size();
    listener = std::make_unique<baseline::ListenerMatcher>(mcfg, prng);
    listener->set_training(false);
    speaker = std::make_unique<baseline::SpeakerMatcher>(mcfg, prng);
    speaker->set_training(false);
    pipeline = std::make_unique<baseline::TwoStagePipeline>(
        *rpn, *listener, *speaker, baseline::MatchMode::kListener);
  }

  Tensor image(uint64_t seed = 5) {
    Rng r(seed);
    return Tensor::rand({3, cfg.img_h, cfg.img_w}, r);
  }

  RouteRequest request(const std::string& id,
                       const std::string& query = "red circle",
                       uint64_t seed = 5) {
    RouteRequest req;
    req.image = image(seed);
    req.query = query;
    req.image_id = id;
    return req;
  }

  // A deterministic base config: health thread effectively frozen so shard
  // states only change when a test wants them to.
  RouterConfig frozen_config() {
    RouterConfig rc;
    rc.num_shards = 3;
    rc.shard.num_workers = 1;
    rc.shard.queue_capacity = 16;
    rc.shard.max_retries = 0;
    rc.shard.breaker_threshold = 1000;
    rc.health_interval_ms = 1000000;
    rc.shard_failure_threshold = 1000;
    rc.hedging = false;
    return rc;
  }
};

// An image_id the ring assigns to `shard` (ring placement is deterministic).
std::string id_owned_by(const Router& router, int64_t shard) {
  for (int i = 0; i < 100000; ++i) {
    const std::string id = "img-" + std::to_string(i);
    if (router.ring_owner(HashRing::hash_key(id)) == shard) return id;
  }
  ADD_FAILURE() << "no key found for shard " << shard;
  return "";
}

void expect_invariant(const RouterCounters& c) {
  EXPECT_EQ(c.served + c.rejected + c.deadline_exceeded + c.failed,
            c.submitted);
  EXPECT_LE(c.degraded, c.served);
  EXPECT_LE(c.hedges_won, c.hedges_launched);
}

// --- hash ring --------------------------------------------------------------

TEST(HashRingTest, RemovingANodeRemapsOnlyItsOwnKeys) {
  HashRing ring(64);
  for (int64_t n = 0; n < 4; ++n) ring.add_node(n);

  constexpr int kKeys = 8000;
  std::map<int, int64_t> before;
  for (int k = 0; k < kKeys; ++k) {
    before[k] = ring.node_for(HashRing::hash_key("key-" + std::to_string(k)));
  }

  ring.remove_node(2);
  int remapped = 0;
  for (int k = 0; k < kKeys; ++k) {
    const int64_t now =
        ring.node_for(HashRing::hash_key("key-" + std::to_string(k)));
    EXPECT_NE(now, 2);
    if (before[k] == 2) {
      ++remapped;  // orphaned keys must land somewhere else
    } else {
      // The defining property: keys the removed node never owned DO NOT
      // move (a naive `hash % N` would reshuffle almost everything).
      EXPECT_EQ(now, before[k]) << "key " << k << " moved without cause";
    }
  }
  // ~1/4 of the key space belonged to node 2 (64 vnodes keeps the spread
  // reasonably even; wide tolerance keeps the test hash-stable).
  EXPECT_GT(remapped, kKeys / 10);
  EXPECT_LT(remapped, (kKeys * 45) / 100);

  // Re-adding the node restores the original assignment exactly: vnode
  // positions are pure functions of (node, replica).
  ring.add_node(2);
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_EQ(ring.node_for(HashRing::hash_key("key-" + std::to_string(k))),
              before[k]);
  }
}

TEST(HashRingTest, AddingANodeOnlyStealsKeys) {
  HashRing ring(64);
  for (int64_t n = 0; n < 4; ++n) ring.add_node(n);

  constexpr int kKeys = 8000;
  std::map<int, int64_t> before;
  for (int k = 0; k < kKeys; ++k) {
    before[k] = ring.node_for(HashRing::hash_key("key-" + std::to_string(k)));
  }

  ring.add_node(4);
  int stolen = 0;
  for (int k = 0; k < kKeys; ++k) {
    const int64_t now =
        ring.node_for(HashRing::hash_key("key-" + std::to_string(k)));
    if (now != before[k]) {
      // A key that moved may only have moved TO the new node; the old
      // nodes never trade keys among themselves.
      EXPECT_EQ(now, 4);
      ++stolen;
    }
  }
  // ~1/5 of the key space moves to the fifth node.
  EXPECT_GT(stolen, kKeys / 12);
  EXPECT_LT(stolen, (kKeys * 40) / 100);
}

TEST(HashRingTest, WalkVisitsEveryNodeOnceStartingAtOwner) {
  HashRing ring(32);
  for (int64_t n = 0; n < 5; ++n) ring.add_node(n);
  const uint64_t key = HashRing::hash_key("some-image");
  const std::vector<int64_t> order = ring.walk(key);
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[0], ring.node_for(key));
  std::vector<int64_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (int64_t n = 0; n < 5; ++n) EXPECT_EQ(sorted[static_cast<size_t>(n)], n);
}

// --- routing basics ---------------------------------------------------------

TEST(RouterTest, ServesAndKeepsKeyAffinity) {
  FaultGuard guard;
  RouterHarness h;
  Router router(h.model, h.vocab, h.frozen_config(), h.pipeline.get());

  // Same image_id -> same shard, across repeats.
  const std::string id = id_owned_by(router, 1);
  for (int i = 0; i < 3; ++i) {
    const RouteResponse response = router.route(h.request(id));
    EXPECT_TRUE(response.status.ok()) << response.status.to_string();
    EXPECT_EQ(response.shard, 1);
    EXPECT_EQ(response.failovers, 0);
    EXPECT_FALSE(response.hedged);
  }
  // An empty image_id falls back to a content hash: the same pixels land on
  // the same shard both times.
  RouteRequest a = h.request("", "red circle", 9);
  RouteRequest b = h.request("", "red circle", 9);
  EXPECT_EQ(Router::key_for(a), Router::key_for(b));
  const RouteResponse ra = router.route(std::move(a));
  const RouteResponse rb = router.route(std::move(b));
  EXPECT_TRUE(ra.status.ok());
  EXPECT_EQ(ra.shard, rb.shard);

  const RouterCounters counters = router.counters();
  EXPECT_EQ(counters.submitted, 5);
  EXPECT_EQ(counters.served, 5);
  expect_invariant(counters);

  const RouterHealth health = router.health();
  EXPECT_TRUE(health.accepting);
  EXPECT_EQ(health.in_rotation, 3);
  ASSERT_EQ(health.shards.size(), 3u);
  for (const ShardHealth& shard : health.shards) {
    EXPECT_EQ(shard.state, ShardState::kActive);
    EXPECT_STREQ(shard_state_name(shard.state), "ACTIVE");
  }
}

TEST(RouterTest, InvalidInputIsTerminalWithoutFailover) {
  FaultGuard guard;
  RouterHarness h;
  Router router(h.model, h.vocab, h.frozen_config(), h.pipeline.get());

  const RouteResponse response = router.route(h.request("x", ""));
  EXPECT_EQ(response.status.code, StatusCode::kInvalidInput);
  EXPECT_EQ(response.failovers, 0);

  const RouterCounters counters = router.counters();
  EXPECT_EQ(counters.submitted, 1);
  EXPECT_EQ(counters.rejected, 1);
  EXPECT_EQ(counters.failovers, 0);
  expect_invariant(counters);
}

TEST(RouterTest, StopRejectsNewAndResolvesEverything) {
  FaultGuard guard;
  RouterHarness h;
  Router router(h.model, h.vocab, h.frozen_config(), h.pipeline.get());

  std::vector<std::future<RouteResponse>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(
        router.submit(h.request("img-" + std::to_string(i), "red circle",
                                static_cast<uint64_t>(i))));
  }
  router.stop();
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::minutes(2)),
              std::future_status::ready)
        << "a request was lost across stop()";
    EXPECT_TRUE(future.get().status.answered());
  }
  const RouteResponse late = router.route(h.request("late"));
  EXPECT_EQ(late.status.code, StatusCode::kOverloaded);
  expect_invariant(router.counters());
}

// Four clients keep submitting while another thread stops the router: a
// submission that passed admission just before stop() may dispatch to a
// shard that is already stopped, and must still resolve (failover through
// the stopped shards ends in a typed kOverloaded).
TEST(RouterTest, SubmitsRacingStopAllResolveWithExactAccounting) {
  FaultGuard guard;
  RouterHarness h;
  Router router(h.model, h.vocab, h.frozen_config(), h.pipeline.get());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 20;
  std::vector<std::vector<std::future<RouteResponse>>> futures(kThreads);
  std::atomic<int> submitted{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        futures[static_cast<size_t>(t)].push_back(router.submit(h.request(
            "race-" + std::to_string(t) + "-" + std::to_string(i),
            "red circle", static_cast<uint64_t>(t * 100 + i))));
        submitted.fetch_add(1);
      }
    });
  }
  while (submitted.load() < (kThreads * kPerThread) / 4) {
    std::this_thread::yield();
  }
  std::thread stopper([&] { router.stop(); });
  stopper.join();
  for (std::thread& client : clients) client.join();

  int64_t answered = 0, rejected = 0;
  for (auto& thread_futures : futures) {
    for (auto& future : thread_futures) {
      ASSERT_EQ(future.wait_for(std::chrono::minutes(2)),
                std::future_status::ready)
          << "a request was lost across stop()";
      const RouteResponse response = future.get();
      if (response.status.answered()) {
        ++answered;
      } else {
        EXPECT_EQ(response.status.code, StatusCode::kOverloaded)
            << response.status.to_string();
        ++rejected;
      }
    }
  }
  const RouterCounters counters = router.counters();
  EXPECT_EQ(counters.submitted, kThreads * kPerThread);
  EXPECT_EQ(counters.served, answered);
  EXPECT_EQ(counters.rejected, rejected);
  expect_invariant(counters);
  for (int64_t s = 0; s < router.num_shards(); ++s) {
    const ServiceCounters c = router.shard(s).counters();
    EXPECT_EQ(c.served + c.rejected + c.deadline_exceeded + c.failed +
                  c.cancelled,
              c.submitted)
        << "shard " << s;
  }
}

// Every shard refuses admission, so each dispatch is rejected on the
// submitting thread and its callback fails over from inside the previous
// shard's submit(): the recursion must end after one try per shard with a
// typed kOverloaded, before submit() even returns.
TEST(RouterTest, EveryShardPausedFailsOverSynchronouslyToOverloaded) {
  FaultGuard guard;
  RouterHarness h;
  Router router(h.model, h.vocab, h.frozen_config(), h.pipeline.get());
  for (int64_t s = 0; s < router.num_shards(); ++s) {
    router.shard(s).pause_admission();
  }

  std::future<RouteResponse> future = router.submit(h.request("paused"));
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready)
      << "synchronous shard rejections did not settle within submit()";
  const RouteResponse response = future.get();
  EXPECT_EQ(response.status.code, StatusCode::kOverloaded)
      << response.status.to_string();
  EXPECT_EQ(response.failovers, router.num_shards() - 1);

  const RouterCounters counters = router.counters();
  EXPECT_EQ(counters.submitted, 1);
  EXPECT_EQ(counters.rejected, 1);
  EXPECT_EQ(counters.failovers, router.num_shards() - 1);
  expect_invariant(counters);
  for (int64_t s = 0; s < router.num_shards(); ++s) {
    const ServiceCounters c = router.shard(s).counters();
    EXPECT_EQ(c.submitted, 1) << "shard " << s;
    EXPECT_EQ(c.rejected_overloaded, 1) << "shard " << s;
  }
}

// --- failover ---------------------------------------------------------------

TEST(RouterTest, FailsOverWhenOwnerShardFails) {
  FaultGuard guard;
  RouterHarness h;
  RouterConfig rc = h.frozen_config();
  // No fallback tier: a faulted model answers kInternalError (retryable).
  Router router(h.model, h.vocab, rc, /*fallback=*/nullptr);

  const int64_t owner = 0;
  const std::string id = id_owned_by(router, owner);
  ASSERT_NE(router.shard_injector(owner), nullptr);
  runtime::FaultInjector::Config fc;
  fc.fail_forward_count = 1000;
  router.shard_injector(owner)->configure(fc);

  const RouteResponse response = router.route(h.request(id));
  EXPECT_TRUE(response.status.ok()) << response.status.to_string();
  EXPECT_NE(response.shard, owner);
  EXPECT_EQ(response.failovers, 1);

  const RouterCounters counters = router.counters();
  EXPECT_EQ(counters.served, 1);
  EXPECT_EQ(counters.failovers, 1);
  expect_invariant(counters);

  // A healthy shard's keys are untouched by shard 0's troubles.
  const std::string other = id_owned_by(router, 2);
  const RouteResponse healthy = router.route(h.request(other));
  EXPECT_TRUE(healthy.status.ok());
  EXPECT_EQ(healthy.shard, 2);
  EXPECT_EQ(healthy.failovers, 0);
}

TEST(RouterTest, AllShardsFailingYieldsTypedFailureNotAHang) {
  FaultGuard guard;
  RouterHarness h;
  Router router(h.model, h.vocab, h.frozen_config(), /*fallback=*/nullptr);

  runtime::FaultInjector::Config fc;
  fc.fail_forward_count = 1000;
  for (int64_t s = 0; s < router.num_shards(); ++s) {
    router.shard_injector(s)->configure(fc);
  }

  const RouteResponse response = router.route(h.request("doomed"));
  EXPECT_EQ(response.status.code, StatusCode::kInternalError);
  EXPECT_EQ(response.failovers, 2);  // tried every other shard once

  const RouterCounters counters = router.counters();
  EXPECT_EQ(counters.failed, 1);
  EXPECT_EQ(counters.failovers, 2);
  expect_invariant(counters);
}

// --- hedged retries ---------------------------------------------------------

TEST(RouterTest, HedgesWhenPrimaryP95ThreatensDeadline) {
  FaultGuard guard;
  RouterHarness h;
  RouterConfig rc = h.frozen_config();
  rc.hedging = true;
  rc.hedge_budget = 1.0;         // the budget is not the thing under test
  rc.health_interval_ms = 2;     // cache the slow shard's p95 quickly
  rc.drain_score = -1.0;         // ...but never drain anyone in this test
  Router router(h.model, h.vocab, rc, h.pipeline.get());

  const int64_t owner = 1;
  const std::string id = id_owned_by(router, owner);
  runtime::FaultInjector::Config fc;
  fc.slow_forward_ms = 400 * kTimeScale;
  fc.slow_forward_count = 100;
  router.shard_injector(owner)->configure(fc);

  // Prime the owner's latency histogram: two ~400ms requests put its p95 in
  // the 204.8..409.6ms bucket, far above the hedged request's budget.
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(router.route(h.request(id)).status.answered());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // 250ms of budget < ~400ms p95: the router must duplicate the request on
  // the ring successor; the healthy duplicate answers in milliseconds while
  // the primary is still sleeping. First answer wins.
  RouteRequest req = h.request(id);
  req.deadline_ms = 250 * kTimeScale;
  const RouteResponse response = router.route(std::move(req));
  EXPECT_TRUE(response.status.ok()) << response.status.to_string();
  EXPECT_TRUE(response.hedged);
  EXPECT_TRUE(response.hedge_won);
  EXPECT_NE(response.shard, owner);

  // First-wins dedup: the request is counted served exactly once even
  // though two shards answered it.
  const RouterCounters counters = router.counters();
  EXPECT_EQ(counters.submitted, 3);
  EXPECT_EQ(counters.served, 3);
  EXPECT_EQ(counters.hedges_launched, 1);
  EXPECT_EQ(counters.hedges_won, 1);
  expect_invariant(counters);
}

TEST(RouterTest, HedgeLoserIsCancelledAndAccountedAtTheShard) {
  FaultGuard guard;
  RouterHarness h;
  RouterConfig rc = h.frozen_config();
  rc.hedging = true;
  rc.hedge_budget = 1.0;
  rc.health_interval_ms = 2;
  rc.drain_score = -1.0;
  Router router(h.model, h.vocab, rc, h.pipeline.get());

  const int64_t owner = 1;
  const std::string id = id_owned_by(router, owner);
  runtime::FaultInjector::Config fc;
  fc.slow_forward_ms = 400 * kTimeScale;
  fc.slow_forward_count = 100;
  router.shard_injector(owner)->configure(fc);

  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(router.route(h.request(id)).status.answered());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  RouteRequest req = h.request(id);
  req.deadline_ms = 250 * kTimeScale;
  const RouteResponse response = router.route(std::move(req));
  EXPECT_TRUE(response.status.ok()) << response.status.to_string();
  EXPECT_TRUE(response.hedge_won);
  EXPECT_NE(response.shard, owner);

  // The winner's landing cancelled the loser's token: the primary attempt
  // on the owner aborts its slow forward instead of sleeping out the full
  // injected 400ms. Poll until the loser drains at the shard level.
  const auto resolve_by =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  ServiceCounters sc;
  for (;;) {
    sc = router.shard(owner).counters();
    if (sc.served + sc.rejected + sc.deadline_exceeded + sc.failed +
            sc.cancelled ==
        sc.submitted) {
      break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), resolve_by)
        << "hedge loser never resolved on the owner shard";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // 2 priming requests served + the losing primary attempt cancelled. The
  // cancel is a shard-local verdict: the router's own taxonomy never sees
  // it (the job was already served by the winner).
  EXPECT_EQ(sc.submitted, 3);
  EXPECT_EQ(sc.served, 2);
  EXPECT_EQ(sc.cancelled, 1);
  EXPECT_EQ(sc.deadline_exceeded, 0);

  const RouterCounters counters = router.counters();
  EXPECT_EQ(counters.hedges_launched, 1);
  EXPECT_EQ(counters.hedges_won, 1);
  EXPECT_EQ(counters.hedge_cancelled, 1);
  EXPECT_EQ(counters.served, 3);
  expect_invariant(counters);
}

TEST(RouterTest, HedgeBudgetCapsDuplicateLoad) {
  FaultGuard guard;
  RouterHarness h;
  RouterConfig rc = h.frozen_config();
  rc.hedging = true;
  rc.hedge_budget = 0.10;
  rc.health_interval_ms = 2;
  rc.drain_score = -1.0;
  Router router(h.model, h.vocab, rc, h.pipeline.get());

  const int64_t owner = 1;
  const std::string id = id_owned_by(router, owner);
  runtime::FaultInjector::Config fc;
  fc.slow_forward_ms = 300 * kTimeScale;
  fc.slow_forward_count = 2;  // only the priming requests are slow
  router.shard_injector(owner)->configure(fc);
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(router.route(h.request(id)).status.answered());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Every request now sees p95 >> budget and would love a hedge; the 10%
  // budget must cap how many actually get one.
  constexpr int kRequests = 40;
  for (int i = 0; i < kRequests; ++i) {
    RouteRequest req = h.request(id);
    req.deadline_ms = 100 * kTimeScale;
    const RouteResponse response = router.route(std::move(req));
    EXPECT_TRUE(response.status.answered()) << response.status.to_string();
  }
  const RouterCounters counters = router.counters();
  EXPECT_LE(counters.hedges_launched,
            static_cast<int64_t>(0.10 * counters.submitted) + 1);
  expect_invariant(counters);
}

// --- drain / probe (shard-level half-open) ----------------------------------

TEST(RouterTest, DegradedShardIsDrainedProbedAndRestored) {
  FaultGuard guard;
  RouterHarness h;
  RouterConfig rc;
  rc.num_shards = 3;
  rc.shard.num_workers = 1;
  rc.shard.max_retries = 0;
  rc.shard.breaker_threshold = 1000;  // shard-level drain is the test
  rc.hedging = false;
  rc.health_interval_ms = 2;
  rc.shard_failure_threshold = 2;
  rc.drain_cooldown_ms = 10;
  rc.probe_interval_ms = 2;
  Router router(h.model, h.vocab, rc, /*fallback=*/nullptr);

  const int64_t owner = 2;
  const std::string id = id_owned_by(router, owner);
  runtime::FaultInjector::Config fc;
  fc.fail_forward_count = 1000;
  router.shard_injector(owner)->configure(fc);

  // Two failing answers trip the shard out of rotation (requests still
  // served by failover). Subsequent requests for its keys go elsewhere
  // without even touching it.
  for (int i = 0; i < 2; ++i) {
    const RouteResponse response = router.route(h.request(id));
    EXPECT_TRUE(response.status.ok()) << response.status.to_string();
    EXPECT_NE(response.shard, owner);
  }
  const auto drained_by = std::chrono::steady_clock::now() +
                          std::chrono::seconds(10);
  while (router.counters().shards_drained < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), drained_by)
        << "shard was never drained";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Heal the shard and keep offering it its own traffic: the half-open
  // probes must bring it back, and its keys must come home (the ring never
  // changed, only the shard's state did).
  router.shard_injector(owner)->reset();
  const auto restored_by = std::chrono::steady_clock::now() +
                           std::chrono::seconds(30);
  while (router.counters().shards_restored < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), restored_by)
        << "shard was never probed back into rotation";
    EXPECT_TRUE(router.route(h.request(id)).status.answered());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto home_by = std::chrono::steady_clock::now() +
                       std::chrono::seconds(10);
  for (;;) {
    const RouteResponse response = router.route(h.request(id));
    EXPECT_TRUE(response.status.answered());
    if (response.shard == owner && response.status.ok()) break;
    ASSERT_LT(std::chrono::steady_clock::now(), home_by)
        << "keys never returned to the restored owner";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  const RouterCounters counters = router.counters();
  EXPECT_GE(counters.probes_sent, 1);
  EXPECT_GE(counters.shards_restored, 1);
  expect_invariant(counters);
  const RouterHealth health = router.health();
  EXPECT_EQ(health.in_rotation, 3);
}

TEST(RouterTest, KilledShardStaysOutOfRotation) {
  FaultGuard guard;
  RouterHarness h;
  RouterConfig rc = h.frozen_config();
  rc.health_interval_ms = 2;
  rc.drain_cooldown_ms = 5;
  rc.probe_interval_ms = 2;
  Router router(h.model, h.vocab, rc, h.pipeline.get());

  const std::string id = id_owned_by(router, 0);
  router.kill_shard(0);

  const auto out_by =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (router.health().in_rotation != 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), out_by);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Its keys are served by the ring successors; a dead shard is never
  // probed back in (resume_admission refuses after stop()).
  for (int i = 0; i < 5; ++i) {
    const RouteResponse response = router.route(h.request(id));
    EXPECT_TRUE(response.status.ok()) << response.status.to_string();
    EXPECT_NE(response.shard, 0);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(router.health().in_rotation, 2);
  EXPECT_EQ(router.counters().shards_restored, 0);
  expect_invariant(router.counters());
}

// --- chaos: kill a shard mid-run, lose nothing ------------------------------

// Chaos load is env-tunable so the sanitizer script can crank it up:
// scripts/run_sanitized_tests.sh re-runs this suite under TSan with
// YOLLO_ROUTER_CHAOS_PER_THREAD=60 for a longer fault-injecting soak.
int chaos_per_thread() {
  if (const char* env = std::getenv("YOLLO_ROUTER_CHAOS_PER_THREAD")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0 && v <= 10000) return static_cast<int>(v);
  }
  return 30;
}

TEST(RouterChaosTest, ShardKilledMidRunLosesNoRequests) {
  FaultGuard guard;
  RouterHarness h;
  const int kPerThread = chaos_per_thread();
  constexpr int kThreads = 4;
  RouterConfig rc;
  rc.num_shards = 3;
  rc.shard.num_workers = 2;
  // Deep enough that the whole run fits in the surviving queues even under
  // TSan's ~10x slowdown — overload rejections are not this test's subject.
  rc.shard.queue_capacity = std::max<int64_t>(64, 2 * kPerThread + 8);
  rc.shard.max_retries = 1;
  rc.health_interval_ms = 2;
  rc.shard_failure_threshold = 3;
  rc.drain_cooldown_ms = 10;
  rc.hedging = true;
  rc.hedge_budget = 0.10;
  Router router(h.model, h.vocab, rc, h.pipeline.get());

  const char* queries[] = {"red circle", "the large square",
                           "blue thing on the left", "small green triangle"};

  // Concurrent snapshot poller: the extended invariant must hold (as a <=,
  // requests in flight) in EVERY observation, never over-counting.
  std::atomic<bool> poll_stop{false};
  std::atomic<int64_t> poll_violations{0};
  std::atomic<int64_t> polls{0};
  std::thread poller([&] {
    while (!poll_stop.load(std::memory_order_relaxed)) {
      const RouterCounters c = router.counters();
      const bool coherent =
          c.served + c.rejected + c.deadline_exceeded + c.failed <=
              c.submitted &&
          c.degraded <= c.served && c.hedges_won <= c.hedges_launched;
      if (!coherent) poll_violations.fetch_add(1);
      polls.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  std::vector<std::vector<std::future<RouteResponse>>> futures(kThreads);
  std::vector<std::thread> clients;
  std::atomic<int> submitted_before_kill{0};
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        RouteRequest request;
        request.image = h.image(static_cast<uint64_t>(t * 1000 + i));
        request.query = queries[(t + i) % 4];
        request.image_id = "chaos-" + std::to_string(t) + "-" +
                           std::to_string(i);
        request.deadline_ms = 5000 * kTimeScale;
        futures[static_cast<size_t>(t)].push_back(
            router.submit(std::move(request)));
        submitted_before_kill.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }

  // Mid-run chaos: wait for real traffic, then kill one of the three
  // shards. kill_shard drains its queue (those requests are still answered
  // or failed over) and the health loop routes around the corpse.
  while (submitted_before_kill.load() < (kThreads * kPerThread) / 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  router.kill_shard(1);

  for (std::thread& client : clients) client.join();

  // Zero lost: every single future resolves with a typed status.
  int64_t answered = 0, rejected = 0, deadline = 0, failed = 0;
  for (auto& thread_futures : futures) {
    for (auto& future : thread_futures) {
      ASSERT_EQ(future.wait_for(std::chrono::minutes(5)),
                std::future_status::ready)
          << "a request was lost during the chaos run";
      const RouteResponse response = future.get();
      switch (response.status.code) {
        case StatusCode::kOk:
        case StatusCode::kDegraded:
          ++answered;
          break;
        case StatusCode::kInvalidInput:
        case StatusCode::kOverloaded:
          ++rejected;
          break;
        case StatusCode::kDeadlineExceeded:
          ++deadline;
          break;
        case StatusCode::kInternalError:
          ++failed;
          break;
      }
    }
  }
  poll_stop.store(true);
  poller.join();
  EXPECT_EQ(poll_violations.load(), 0)
      << "a concurrent snapshot caught the router accounting mid-update";
  EXPECT_GE(polls.load(), 1);
  router.stop();

  const RouterCounters counters = router.counters();
  EXPECT_EQ(counters.submitted, kThreads * kPerThread);
  expect_invariant(counters);
  EXPECT_EQ(counters.served, answered);
  EXPECT_EQ(counters.rejected, rejected);
  EXPECT_EQ(counters.deadline_exceeded, deadline);
  EXPECT_EQ(counters.failed, failed);
  // The fleet kept serving: the overwhelming majority of requests got real
  // answers despite a third of the capacity dying mid-run.
  EXPECT_GE(answered, (kThreads * kPerThread * 9) / 10);
  // And the dead shard really is out.
  EXPECT_EQ(router.health().in_rotation, 2);
}

// --- chaos: scoped poison hits one shard only -------------------------------

TEST(RouterChaosTest, PoisonedShardDegradesItsKeysOnly) {
  FaultGuard guard;
  RouterHarness h;
  RouterConfig rc = h.frozen_config();
  rc.shard.max_retries = 0;
  Router router(h.model, h.vocab, rc, h.pipeline.get());

  runtime::FaultInjector::Config fc;
  fc.poison_forward_count = 1000;
  router.shard_injector(0)->configure(fc);

  // Shard 0's keys degrade to the baseline tier (answered, typed); the
  // other shards' keys are full-quality — proof the poison is scoped.
  const std::string sick = id_owned_by(router, 0);
  const std::string well = id_owned_by(router, 1);
  for (int i = 0; i < 3; ++i) {
    const RouteResponse degraded = router.route(h.request(sick));
    EXPECT_EQ(degraded.status.code, StatusCode::kDegraded)
        << degraded.status.to_string();
    const RouteResponse ok = router.route(h.request(well));
    EXPECT_TRUE(ok.status.ok()) << ok.status.to_string();
  }
  const RouterCounters counters = router.counters();
  EXPECT_EQ(counters.served, 6);
  EXPECT_EQ(counters.degraded, 3);
  expect_invariant(counters);
}

}  // namespace
}  // namespace yollo::serve
