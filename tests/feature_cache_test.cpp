// Content-addressed backbone feature cache tests (DESIGN.md §15): hash
// stability, cached-vs-uncached bitwise equivalence through the model's
// split forward, byte-budgeted LRU eviction, pool-budget degradation,
// invalidation on model reload, and multi-threaded sharing.
//
// Suite names deliberately contain "Cache" so `ctest -R 'serve|cache|batch'`
// selects everything here.
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/vocab.h"
#include "obs/metrics.h"
#include "plan/plan.h"
#include "runtime/fault.h"
#include "serve/feature_cache.h"
#include "serve/service.h"
#include "tensor/pool.h"
#include "test_util.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define YOLLO_TSAN_BUILD 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define YOLLO_TSAN_BUILD 1
#endif

namespace yollo::serve {
namespace {

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

Tensor image(int64_t h, int64_t w, uint64_t seed) {
  Rng rng(seed);
  return Tensor::rand({3, h, w}, rng);
}

// A [C, gh, gw]-shaped feature map with deterministic contents.
Tensor fake_features(int64_t c, int64_t gh, int64_t gw, uint64_t seed) {
  Rng rng(seed);
  return Tensor::rand({c, gh, gw}, rng);
}

// --- keying -----------------------------------------------------------------

TEST(FeatureCacheTest, HashIsStableAcrossIdenticalBuffers) {
  const Tensor a = image(32, 48, 9);
  Tensor b = Tensor::zeros(a.shape());
  std::memcpy(b.data(), a.data(),
              static_cast<size_t>(a.numel()) * sizeof(float));
  EXPECT_EQ(FeatureCache::hash_image(a), FeatureCache::hash_image(b));
  // Deterministic across calls, too.
  EXPECT_EQ(FeatureCache::hash_image(a), FeatureCache::hash_image(a));
}

TEST(FeatureCacheTest, DistinctImagesGetDistinctKeys) {
  obs::MetricsRegistry metrics;
  FeatureCache cache(metrics, 1 << 20);
  const Tensor a = image(32, 48, 1);
  const Tensor b = image(32, 48, 2);
  const uint64_t ha = FeatureCache::hash_image(a);
  const uint64_t hb = FeatureCache::hash_image(b);
  EXPECT_NE(ha, hb);
  EXPECT_NE(cache.make_key(ha, 0), cache.make_key(hb, 0));

  // A single flipped pixel changes the hash (content addressing, not
  // prefix addressing: the flip lands in the last plane, past the router's
  // 4 KiB locality prefix).
  Tensor c = a.clone();
  c[c.numel() - 1] += 0.25f;
  EXPECT_NE(FeatureCache::hash_image(a), FeatureCache::hash_image(c));
}

TEST(FeatureCacheTest, GenerationAndEpochChangeTheKey) {
  obs::MetricsRegistry metrics;
  FeatureCache cache(metrics, 1 << 20);
  const uint64_t h = FeatureCache::hash_image(image(32, 48, 3));
  const uint64_t k_gen0 = cache.make_key(h, 0);
  const uint64_t k_gen1 = cache.make_key(h, 1);
  EXPECT_NE(k_gen0, k_gen1);

  cache.invalidate();  // bumps the internal epoch
  EXPECT_NE(cache.make_key(h, 0), k_gen0);
}

// --- model-level equivalence ------------------------------------------------

// Restores the plan switch on scope exit (as in plan_test).
struct PlanSwitch {
  explicit PlanSwitch(bool on) : saved(plan::enabled()) {
    plan::set_enabled(on);
  }
  ~PlanSwitch() { plan::set_enabled(saved); }
  bool saved;
};

// Plan-cache hits so far (every planned forward, from either entry point,
// takes exactly one).
int64_t plan_cache_hits() {
  return obs::MetricsRegistry::global().counter("plan.cache_hits").value();
}

void expect_same_boxes(const std::vector<vision::Box>& a,
                       const std::vector<vision::Box>& b, const char* what,
                       int64_t batch) {
  ASSERT_EQ(a.size(), b.size()) << what << " at batch " << batch;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(vision::Box)),
            0)
      << what << " differs at batch " << batch;
}

TEST(FeatureCacheTest, CachedPathIsBitwiseIdenticalToFullForward) {
  FaultGuard guard;
  const core::YolloConfig cfg = tiny_config();
  const data::Vocab vocab = data::Vocab::grounding_vocab();
  Rng rng(123);
  core::YolloModel model(cfg, vocab.size(), rng);
  model.set_training(false);
  PlanSwitch on(true);

  const char* queries[] = {"red circle", "blue square", "the green thing"};
  for (int64_t batch : {int64_t{1}, int64_t{2}, int64_t{3}, int64_t{5},
                        int64_t{8}}) {
    Tensor batched({batch, 3, cfg.img_h, cfg.img_w});
    std::vector<int64_t> tokens;
    for (int64_t e = 0; e < batch; ++e) {
      const Tensor one = image(cfg.img_h, cfg.img_w, 5 + 17 * batch + e);
      std::memcpy(batched.data() + e * one.numel(), one.data(),
                  static_cast<size_t>(one.numel()) * sizeof(float));
      const std::vector<int64_t> q =
          data::pad_to(vocab.encode(queries[e % 3]), cfg.max_query_len);
      tokens.insert(tokens.end(), q.begin(), q.end());
    }

    const auto full = model.infer(batched, tokens, /*capture_features=*/true);
    ASSERT_TRUE(full.ok()) << full.message;
    ASSERT_TRUE(full.features.defined());
    ASSERT_EQ(full.features.shape().size(), 4u);
    EXPECT_EQ(full.features.shape()[0], batch);

    // Overwrite the plan's arena with another batch and query set, so the
    // hit must compute from the features and tokens it is handed.
    std::vector<int64_t> other_tokens(tokens.rbegin(), tokens.rend());
    ASSERT_TRUE(model.infer(Tensor::ones(batched.shape()), other_tokens).ok());

    // The hit runs the plan's feature entry: the plan is cached, has the
    // entry, and the call took one plan-cache hit.
    const int64_t hits_before = plan_cache_hits();
    const auto cached = model.infer_from_features(full.features, tokens);
    ASSERT_TRUE(cached.ok()) << cached.message;
    EXPECT_EQ(plan_cache_hits() - hits_before, 1) << "batch " << batch;
    EXPECT_TRUE(model.planned(batch));
    ASSERT_NE(model.cached_plan(batch), nullptr);
    EXPECT_TRUE(model.cached_plan(batch)->has_feature_entry());
    expect_same_boxes(full.boxes, cached.boxes, "planned hit", batch);

    // The eager reference (YOLLO_PLAN=0) gives the same answer.
    core::YolloModel::InferOutcome eager;
    {
      PlanSwitch off(false);
      eager = model.infer_from_features(full.features, tokens);
    }
    ASSERT_TRUE(eager.ok()) << eager.message;
    expect_same_boxes(full.boxes, eager.boxes, "eager hit", batch);
  }
}

TEST(FeatureCacheTest, InferFromFeaturesRejectsBadInput) {
  FaultGuard guard;
  const core::YolloConfig cfg = tiny_config();
  const data::Vocab vocab = data::Vocab::grounding_vocab();
  Rng rng(123);
  core::YolloModel model(cfg, vocab.size(), rng);
  model.set_training(false);
  const std::vector<int64_t> tokens =
      data::pad_to(vocab.encode("red circle"), cfg.max_query_len);

  // Undefined / wrong-rank features.
  auto out = model.infer_from_features(Tensor(), tokens);
  EXPECT_EQ(out.error, core::YolloModel::InferError::kInvalidInput);
  out = model.infer_from_features(Tensor::zeros({4, 4}), tokens);
  EXPECT_EQ(out.error, core::YolloModel::InferError::kInvalidInput);

  // Non-finite features.
  const Tensor batched =
      image(cfg.img_h, cfg.img_w, 6).reshape({1, 3, cfg.img_h, cfg.img_w});
  const auto full = model.infer(batched, tokens, /*capture_features=*/true);
  ASSERT_TRUE(full.ok());
  Tensor poisoned = full.features.clone();
  poisoned[3] = std::numeric_limits<float>::quiet_NaN();
  out = model.infer_from_features(poisoned, tokens);
  EXPECT_EQ(out.error, core::YolloModel::InferError::kInvalidInput);
}

// --- LRU + byte accounting --------------------------------------------------

TEST(FeatureCacheTest, LruEvictionOrderAndByteAccounting) {
  obs::MetricsRegistry metrics;
  const int64_t c = 4, gh = 3, gw = 3;
  const int64_t entry_bytes = c * gh * gw * static_cast<int64_t>(sizeof(float));
  FeatureCache cache(metrics, 2 * entry_bytes);  // room for exactly two

  const uint64_t ka = 101, kb = 202, kc = 303;
  EXPECT_TRUE(cache.insert(ka, fake_features(c, gh, gw, 1)));
  EXPECT_TRUE(cache.insert(kb, fake_features(c, gh, gw, 2)));
  EXPECT_EQ(cache.stats().entries, 2);
  EXPECT_EQ(cache.stats().bytes, 2 * entry_bytes);

  // Touch A so B becomes the LRU victim.
  EXPECT_TRUE(cache.lookup(ka).defined());
  EXPECT_TRUE(cache.insert(kc, fake_features(c, gh, gw, 3)));

  EXPECT_TRUE(cache.lookup(ka).defined());
  EXPECT_FALSE(cache.lookup(kb).defined());  // evicted
  EXPECT_TRUE(cache.lookup(kc).defined());

  const FeatureCache::Stats s = cache.stats();
  EXPECT_EQ(s.entries, 2);
  EXPECT_EQ(s.bytes, 2 * entry_bytes);
  EXPECT_EQ(s.evictions, 1);
  EXPECT_EQ(s.hits, 3);
  EXPECT_EQ(s.misses, 1);
}

TEST(FeatureCacheTest, LookupViewSurvivesEviction) {
  obs::MetricsRegistry metrics;
  const int64_t c = 2, gh = 2, gw = 2;
  const int64_t entry_bytes = c * gh * gw * static_cast<int64_t>(sizeof(float));
  FeatureCache cache(metrics, entry_bytes);  // room for exactly one

  const Tensor original = fake_features(c, gh, gw, 7);
  ASSERT_TRUE(cache.insert(11, original));
  Tensor view = cache.lookup(11);
  ASSERT_TRUE(view.defined());

  // Inserting a second entry evicts the first; the outstanding view must
  // keep its pinned buffer intact.
  ASSERT_TRUE(cache.insert(22, fake_features(c, gh, gw, 8)));
  EXPECT_FALSE(cache.lookup(11).defined());
  for (int64_t i = 0; i < view.numel(); ++i) {
    EXPECT_EQ(view[i], original[i]);
  }
}

TEST(FeatureCacheTest, OversizedAndNonFiniteInsertsAreRefused) {
  obs::MetricsRegistry metrics;
  FeatureCache cache(metrics, 64);  // 16 floats
  EXPECT_FALSE(cache.insert(1, fake_features(4, 4, 4, 1)));  // 256B > 64B
  Tensor nan_features = fake_features(2, 2, 2, 2);           // 32B fits...
  nan_features[0] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(cache.insert(2, nan_features));  // ...but is poisoned
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.stats().bytes, 0);
}

TEST(FeatureCacheTest, DisabledCacheIsInert) {
  obs::MetricsRegistry metrics;
  FeatureCache cache(metrics, 0);
  EXPECT_FALSE(cache.enabled());
  EXPECT_FALSE(cache.insert(1, fake_features(2, 2, 2, 1)));
  EXPECT_FALSE(cache.lookup(1).defined());
  const FeatureCache::Stats s = cache.stats();
  EXPECT_EQ(s.entries, 0);
  EXPECT_EQ(s.hits, 0);
  EXPECT_EQ(s.misses, 0);  // disabled lookups do not count as misses
}

TEST(FeatureCacheTest, PoolBudgetRefusalDegradesToUncached) {
  obs::MetricsRegistry metrics;
  FeatureCache cache(metrics, 1 << 20);
  const Tensor features = fake_features(4, 4, 4, 3);  // 1 KiB copy

  PoolScope scope;
  scope.set_budget_bytes(64);  // far too small for the copy
  EXPECT_FALSE(cache.insert(5, features));
  const FeatureCache::Stats s = cache.stats();
  EXPECT_EQ(s.budget_refused, 1);
  EXPECT_EQ(s.entries, 0);
  EXPECT_EQ(s.bytes, 0);
}

TEST(FeatureCacheTest, InvalidateDropsEverythingAndBumpsEpoch) {
  obs::MetricsRegistry metrics;
  FeatureCache cache(metrics, 1 << 20);
  ASSERT_TRUE(cache.insert(1, fake_features(2, 2, 2, 1)));
  ASSERT_TRUE(cache.insert(2, fake_features(2, 2, 2, 2)));
  ASSERT_GT(cache.stats().bytes, 0);

  cache.invalidate();
  const FeatureCache::Stats s = cache.stats();
  EXPECT_EQ(s.entries, 0);
  EXPECT_EQ(s.bytes, 0);
  EXPECT_EQ(s.invalidations, 1);
  EXPECT_FALSE(cache.lookup(1).defined());
}

// --- model reload interaction -----------------------------------------------

TEST(FeatureCacheTest, ModelReloadBumpsWeightsGeneration) {
  FaultGuard guard;
  const core::YolloConfig cfg = tiny_config();
  const data::Vocab vocab = data::Vocab::grounding_vocab();
  Rng rng(123);
  core::YolloModel model(cfg, vocab.size(), rng);
  model.set_training(false);

  obs::MetricsRegistry metrics;
  FeatureCache cache(metrics, 1 << 20);
  const uint64_t h = FeatureCache::hash_image(image(cfg.img_h, cfg.img_w, 4));

  const uint64_t gen_before = model.weights_generation();
  const uint64_t key_before = cache.make_key(h, gen_before);
  model.invalidate_plans();  // the model-reload signal
  const uint64_t gen_after = model.weights_generation();
  EXPECT_GT(gen_after, gen_before);
  EXPECT_NE(cache.make_key(h, gen_after), key_before);
}

// --- service integration ----------------------------------------------------

TEST(FeatureCacheServiceTest, RepeatImageHitsAndMatchesColdAnswer) {
  FaultGuard guard;
  const core::YolloConfig cfg = tiny_config();
  const data::Vocab vocab = data::Vocab::grounding_vocab();
  Rng rng(123);
  core::YolloModel model(cfg, vocab.size(), rng);
  model.set_training(false);

  ServeConfig scfg;
  scfg.num_workers = 1;
  scfg.batch_max = 1;
  scfg.feature_cache_mb = 16;
  InferenceService service(model, vocab, scfg);
  ASSERT_TRUE(service.feature_cache().enabled());

  GroundRequest req;
  req.image = image(cfg.img_h, cfg.img_w, 5);
  req.query = "red circle";
  const GroundResponse cold = service.ground(GroundRequest(req));
  ASSERT_TRUE(cold.status.ok()) << cold.status.to_string();
  const GroundResponse warm = service.ground(GroundRequest(req));
  ASSERT_TRUE(warm.status.ok()) << warm.status.to_string();

  // Same pixels + same weights: the cached fuse-only pass must reproduce
  // the full forward bitwise.
  EXPECT_EQ(cold.box.x, warm.box.x);
  EXPECT_EQ(cold.box.y, warm.box.y);
  EXPECT_EQ(cold.box.w, warm.box.w);
  EXPECT_EQ(cold.box.h, warm.box.h);

  ServiceCounters c = service.counters();
  EXPECT_GE(c.cache_misses, 1);
  EXPECT_GE(c.cache_hits, 1);
  EXPECT_GT(c.cache_bytes, 0);

  // Invalidation forces the next identical request back onto the full path.
  service.feature_cache().invalidate();
  const GroundResponse after = service.ground(GroundRequest(req));
  ASSERT_TRUE(after.status.ok());
  c = service.counters();
  EXPECT_GE(c.cache_misses, 2);
  EXPECT_EQ(after.box.x, cold.box.x);
  testing::expect_serve_invariant(c);
}

TEST(FeatureCacheServiceTest, EnvEscapeHatchDisablesCache) {
  FaultGuard guard;
  const core::YolloConfig cfg = tiny_config();
  const data::Vocab vocab = data::Vocab::grounding_vocab();
  Rng rng(123);
  core::YolloModel model(cfg, vocab.size(), rng);
  model.set_training(false);

  ServeConfig scfg;
  scfg.num_workers = 1;
  scfg.feature_cache_mb = 0;  // explicit disable wins over the env
  InferenceService service(model, vocab, scfg);
  EXPECT_FALSE(service.feature_cache().enabled());

  GroundRequest req;
  req.image = image(cfg.img_h, cfg.img_w, 5);
  req.query = "red circle";
  (void)service.ground(GroundRequest(req));
  (void)service.ground(GroundRequest(req));
  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.cache_hits, 0);
  EXPECT_EQ(c.cache_misses, 0);
  EXPECT_EQ(c.cache_bytes, 0);
}

// --- concurrency ------------------------------------------------------------

TEST(FeatureCacheTest, SharedCacheSurvivesConcurrentMixedOps) {
  obs::MetricsRegistry metrics;
  const int64_t c = 4, gh = 3, gw = 3;
  const int64_t entry_bytes = c * gh * gw * static_cast<int64_t>(sizeof(float));
  FeatureCache cache(metrics, 3 * entry_bytes);  // eviction pressure

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 200;
  std::atomic<int64_t> defined_hits{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const uint64_t key = static_cast<uint64_t>((t * 7 + i) % 8);
        switch (i % 4) {
          case 0:
            cache.insert(key, fake_features(c, gh, gw, key + 1));
            break;
          case 3:
            if (t == 0 && i % 50 == 3) cache.invalidate();
            [[fallthrough]];
          default: {
            Tensor view = cache.lookup(key);
            if (view.defined()) {
              // The pinned view must stay readable even under concurrent
              // eviction/invalidation.
              volatile float sink = view[0];
              (void)sink;
              defined_hits.fetch_add(1, std::memory_order_relaxed);
            }
            break;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  const FeatureCache::Stats s = cache.stats();
  EXPECT_LE(s.bytes, cache.budget_bytes());
  EXPECT_EQ(s.bytes, s.entries * entry_bytes);
  EXPECT_GT(defined_hits.load(), 0);
  const obs::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(s.hits + s.misses, snap.counter("serve.cache_hits") +
                                   snap.counter("serve.cache_misses"));
}

TEST(FeatureCacheServiceTest, FourWorkersShareOneCache) {
  FaultGuard guard;
  const core::YolloConfig cfg = tiny_config();
  const data::Vocab vocab = data::Vocab::grounding_vocab();
  Rng rng(123);
  core::YolloModel model(cfg, vocab.size(), rng);
  model.set_training(false);

  ServeConfig scfg;
  scfg.num_workers = 4;
  scfg.queue_capacity = 64;
  scfg.batch_max = 4;
  scfg.feature_cache_mb = 16;
  InferenceService service(model, vocab, scfg);

  // 48 requests over 3 distinct images: whichever worker populated an
  // image's entry, the others must hit it.
  std::vector<std::future<GroundResponse>> futures;
  for (int i = 0; i < 48; ++i) {
    GroundRequest req;
    req.image = image(cfg.img_h, cfg.img_w, static_cast<uint64_t>(i % 3));
    req.query = "red circle";
    futures.push_back(service.submit(std::move(req)));
  }
  int answered = 0;
  for (auto& f : futures) {
    if (f.get().status.answered()) ++answered;
  }
  EXPECT_EQ(answered, 48);

  const ServiceCounters c = service.counters();
  EXPECT_GE(c.cache_hits + c.cache_misses, 48);
  EXPECT_GE(c.cache_hits, 1);  // repeats must not all miss
  testing::expect_serve_invariant(c);
}

// --- scenario table (config-map fixture from test_util.h) -------------------

class CacheScenarioTest
    : public ::testing::TestWithParam<testing::ServeScenario> {};

TEST_P(CacheScenarioTest, CacheCountersMatchScenario) {
  FaultGuard guard;
  const testing::ServeScenario& scenario = GetParam();
  const core::YolloConfig cfg = tiny_config();
  const data::Vocab vocab = data::Vocab::grounding_vocab();
  Rng rng(123);
  core::YolloModel model(cfg, vocab.size(), rng);
  model.set_training(false);

#ifdef YOLLO_TSAN_BUILD
  constexpr int64_t kScale = 8;
#else
  constexpr int64_t kScale = 1;
#endif
  const testing::ServeScenarioOutcome out = testing::run_serve_scenario(
      model, vocab, /*fallback=*/nullptr, scenario, /*requests=*/24,
      /*distinct_images=*/4, kScale);

  if (scenario.warm_cache) {
    // Pre-warmed: every measured request's image is resident, so the run
    // must see hits (fault rows may re-miss after a degraded forward).
    EXPECT_GT(out.counters.cache_hits, 0) << scenario.name;
  } else {
    EXPECT_EQ(out.counters.cache_hits, 0) << scenario.name;
    EXPECT_EQ(out.counters.cache_bytes, 0) << scenario.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ServeScenarios, CacheScenarioTest,
    ::testing::ValuesIn(testing::serve_scenario_table()),
    [](const ::testing::TestParamInfo<yollo::testing::ServeScenario>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace yollo::serve
