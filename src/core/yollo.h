// YOLLO — "You Only Look & Listen Once": the paper's one-stage visual
// grounding model (§3, Fig. 2a).
//
// Pipeline: feature encoder (backbone grid features + word embeddings with
// learned absolute positional embeddings, §3.1) -> stacked Rel2Att modules
// (§3.2) -> RPN-like target detection network over the attended feature map
// (§3.3). Trained end-to-end with L = L_att + L_cls + lambda * L_reg
// (eq. 9); inference takes the single top-scored anchor's refined box.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/detection_head.h"
#include "core/rel2att.h"
#include "nn/layers.h"
#include "plan/plan.h"
#include "vision/backbone.h"

namespace yollo::core {

class YolloModel : public nn::Module {
 public:
  YolloModel(const YolloConfig& config, int64_t vocab_size, Rng& rng);

  const YolloConfig& config() const { return config_; }

  // Copy pre-trained Word2Vec vectors into the embedding table (the paper
  // initialises from Word2Vec and fine-tunes end-to-end, §4.2).
  void init_word_embeddings(const Tensor& embeddings);

  struct Output {
    ag::Variable scores;  // [B, A]
    ag::Variable deltas;  // [B, A, 4]
    ag::Variable att_v;   // [B, m] raw image attention from the last Rel2Att
    // att_v from every module in the stack; the attention loss supervises
    // all of them (deep supervision — each stacked module is pushed toward
    // the target region, which speeds up convergence markedly).
    std::vector<ag::Variable> att_v_all;
    // Backbone grid features [B, C, grid_h, grid_w] as produced by
    // encode_images() — everything query-independent. The serve-layer
    // feature cache stores these per image so repeat queries against the
    // same pixels skip the backbone entirely (fuse_features alone).
    ag::Variable feat;
  };

  // images: [B, 3, img_h, img_w]; tokens: row-major [B * max_query_len].
  // forward() == fuse_features(encode_images(images), tokens): the split
  // exists because encode_images depends only on the pixels (cacheable per
  // image) while fuse_features carries all the query-dependent work.
  Output forward(const Tensor& images, const std::vector<int64_t>& tokens);

  // CoordConv fill + backbone: the query-independent half of forward().
  ag::Variable encode_images(const Tensor& images);

  // Rel2Att stack + detection head over precomputed backbone features
  // ([B, C, grid_h, grid_w]): the query-dependent half of forward().
  Output fuse_features(const ag::Variable& feat,
                       const std::vector<int64_t>& tokens);

  struct Losses {
    ag::Variable total;
    ag::Variable att;
    ag::Variable cls;
    ag::Variable reg;
  };
  Losses compute_loss(const Output& out,
                      const std::vector<vision::Box>& targets, Rng& rng);

  // Top-1 box per batch element. Self-contained: installs an
  // ag::NoGradGuard (no autograd graph), an nn::EvalModeGuard
  // (deterministic batch-norm, restored on return), and a PoolScope
  // (storage recycling) internally — callers no longer manage train/eval
  // state around it. Throws on shape mismatch or a non-finite forward; use
  // infer() for the typed, never-throwing variant.
  std::vector<vision::Box> predict(const Tensor& images,
                                   const std::vector<int64_t>& tokens);

  // --- exception-free inference entry point (used by yollo::serve) ---------
  enum class InferError {
    kNone = 0,       // boxes are valid
    kInvalidInput,   // image/token shapes do not match the config
    kNonFinite,      // forward produced non-finite activations or boxes
    kFault,          // forward threw (includes runtime::InjectedFault)
    kCancelled,      // the caller's ExecContext was cancelled (explicit
                     // cancel or deadline expiry) mid-forward; distinguish
                     // via ExecContext::cause()
    kResourceExhausted,  // the active PoolScope's byte budget refused an
                         // allocation (PoolBudgetExceeded)
  };
  struct InferOutcome {
    InferError error = InferError::kNone;
    std::string message;
    std::vector<vision::Box> boxes;  // one per batch element when ok
    // Backbone features [B, C, grid_h, grid_w], cloned out of the forward
    // when infer() was asked to capture them (undefined otherwise, and on
    // batch-level failures). Valid even for elements whose head outputs
    // were poisoned — the features are produced upstream of the fault
    // hooks, so the cache may keep them.
    Tensor features;
    // Per-element verdicts for batched forwards: sized B once the forward
    // ran (empty on batch-level failures — invalid input or a thrown
    // fault). A non-finite element poisons only its own slot:
    // element_boxes[i] stays valid (clipped) wherever element_errors[i] is
    // kNone, so a micro-batching caller can serve the healthy elements and
    // degrade the poisoned ones individually.
    std::vector<InferError> element_errors;
    std::vector<vision::Box> element_boxes;
    bool ok() const { return error == InferError::kNone; }
    bool element_ok(int64_t i) const {
      return i >= 0 && i < static_cast<int64_t>(element_errors.size()) &&
             element_errors[static_cast<size_t>(i)] == InferError::kNone;
    }
  };
  // Hardened predict(): validates input shapes against the config, runs the
  // forward pass (honouring runtime::FaultInjector's inference-path faults),
  // scans the activations and decoded boxes for non-finite values, and clips
  // every box to the input image bounds so a degenerate or out-of-frame box
  // can never escape. Never throws; all failures surface as a typed
  // InferError with a message. Like predict(), installs NoGradGuard +
  // EvalModeGuard + PoolScope internally. `capture_features` additionally
  // clones the backbone feature map into InferOutcome::features (from the
  // plan arena on the planned path) so the caller can populate a feature
  // cache without a second forward.
  InferOutcome infer(const Tensor& images, const std::vector<int64_t>& tokens,
                     bool capture_features = false) noexcept;

  // infer() for precomputed backbone features ([B, C, grid_h, grid_w], as
  // captured by a previous infer(..., true)): skips the backbone and runs
  // only the Rel2Att stack + head, through the cached plan's feature entry
  // when there is one. Shares infer()'s body — guard stack, fault hooks,
  // per-element verdicts, cancellation — so there is one
  // FaultInjector::check_forward() per call and retry and chaos accounting
  // cannot drift between the cached and uncached paths.
  InferOutcome infer_from_features(const Tensor& features,
                                   const std::vector<int64_t>& tokens) noexcept;

  // Monotonic generation of the parameter state, bumped whenever weights
  // may have been replaced wholesale (init_word_embeddings) or plan-visible
  // storage was rebound (invalidate_plans — the model-reload signal). The
  // serve feature cache keys entries by it so stale features can never be
  // served across a reload.
  uint64_t weights_generation() const {
    return weights_generation_.load(std::memory_order_acquire);
  }

  // Softmax image-attention map of one batch element as [grid_h, grid_w]
  // (the masks visualised in the paper's Figure 5).
  Tensor attention_map(const Output& out, int64_t batch_index) const;

  // Self-contained variant: runs a grad-free eval-mode forward internally
  // (same guards as predict) — no caller-managed train/eval state, no
  // Output to thread through.
  Tensor attention_map(const Tensor& images,
                       const std::vector<int64_t>& tokens,
                       int64_t batch_index);

  const std::vector<vision::Box>& anchors() const { return head_.anchors(); }

  // --- static forward plans (DESIGN.md §14) --------------------------------
  // predict()/infer()/infer_from_features() route through a per-batch-size
  // compiled plan when yollo::plan::enabled() (YOLLO_PLAN=0 disables). Plans
  // are recorded lazily on first use; warm_plan() builds and runs one
  // eagerly so serving workers take no compile hit on their first real
  // request. Charges the caller's active pool budget for the arena; on
  // PoolBudgetExceeded the entry is marked failed and execution degrades to
  // the dynamic path, as it does for an unplannable trace.
  void warm_plan(int64_t batch);

  // True when a plan for this batch size is cached and ready.
  bool planned(int64_t batch);

  // Drop every cached plan (releases the arenas and their budget charges).
  // Needed when parameter *storage* is replaced (pointer-level rebinding);
  // plain in-place updates flow into cached plans automatically.
  void invalidate_plans();

  struct PlanCacheStats {
    int64_t entries = 0;
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t compiles = 0;
    int64_t arena_bytes = 0;
  };
  PlanCacheStats plan_cache_stats();

  // Test hooks. raw_forward runs the same guarded forward predict() runs
  // and returns the raw score/delta tensors (cloned out of the arena on the
  // planned path) plus which path executed — the bitwise plan-vs-dynamic
  // tests diff these. run_planned executes an already-cached plan, from
  // images or (from_features) from backbone features, with no decode and
  // no output wrapping (the zero-allocation probe); returns false when no
  // plan (or no feature entry) is cached.
  struct RawForward {
    Tensor scores;
    Tensor deltas;
    bool planned = false;
  };
  RawForward raw_forward(const Tensor& images,
                         const std::vector<int64_t>& tokens);
  bool run_planned(const Tensor& input, const std::vector<int64_t>& tokens,
                   bool from_features = false);

  // The cached plan for a batch size (nullptr when none): arena-layout
  // introspection for tests and diagnostics.
  std::shared_ptr<yollo::plan::Plan> cached_plan(int64_t batch);

 private:
  // The one body of infer() and infer_from_features(): input validation,
  // guards, the fault hook, the cancel check and outcome assembly. `input`
  // is images, or backbone features when from_features.
  InferOutcome infer_impl(const Tensor& input,
                          const std::vector<int64_t>& tokens,
                          bool from_features, bool capture_features) noexcept;

  // The forward from images or features: through the cached plan when there
  // is one (its outputs are arena views, valid while `guard` is held),
  // eagerly otherwise. Assumes the caller installed the inference guards.
  Output run_forward(const Tensor& input, const std::vector<int64_t>& tokens,
                     bool from_features, yollo::plan::Plan::ExecGuard& guard);

  // Shared forward-and-decode core for predict() and infer_impl(): one
  // place owns the finiteness scan and the bounds clipping, so the entry
  // points can never drift. May propagate exceptions from the forward.
  struct ForwardDecode {
    InferError error = InferError::kNone;  // kNone iff every element is ok
    std::string message;
    std::vector<InferError> element_errors;  // [B]
    std::vector<vision::Box> boxes;          // [B]; valid where element ok
    Tensor features;  // cloned backbone features when capture was requested
    bool all_ok() const { return error == InferError::kNone; }
  };
  ForwardDecode forward_and_decode(const Tensor& input,
                                   const std::vector<int64_t>& tokens,
                                   bool from_features, bool apply_fault_hooks,
                                   bool capture_features = false);

  // Finiteness scan + top-1 decode + clipping over a forward's outputs.
  // Boxes are clipped to [img_w, img_h] (the config geometry for every
  // admitted input). On the planned path the Output wraps arena-backed
  // views, so the caller must hold the plan's ExecGuard across this call.
  ForwardDecode decode_and_scan(Output& out, int64_t img_w, int64_t img_h,
                                bool apply_fault_hooks);

  // Plan cache (keyed by batch size; image dims and query length are fixed
  // by the config). plan_mu_ is held across a build, so a concurrent miss
  // waits for the plan; `failed` entries retry every kPlanRetryPeriod
  // misses in case budget freed up.
  struct PlanEntry {
    std::shared_ptr<yollo::plan::Plan> plan;
    bool failed = false;
    int64_t misses = 0;
  };
  std::shared_ptr<yollo::plan::Plan> planned_for(int64_t batch);
  // nullptr when the trace is unplannable.
  std::shared_ptr<yollo::plan::Plan> build_plan(int64_t batch);

  std::mutex plan_mu_;
  std::map<int64_t, PlanEntry> plan_cache_;
  PlanCacheStats plan_stats_;  // guarded by plan_mu_ (entries/arena_bytes
                               // recomputed on read)

  std::atomic<uint64_t> weights_generation_{0};

  YolloConfig config_;
  vision::Backbone backbone_;
  nn::Embedding word_emb_;
  ag::Variable pos_emb_;  // [max_query_len, word_dim]
  // Normalises text features to the same O(1) scale as the batch-normalised
  // backbone features; without it the text pathway is gradient-starved and
  // the model degenerates to query-independent grounding.
  nn::LayerNorm text_norm_;
  std::vector<std::unique_ptr<Rel2Att>> rel2att_;
  DetectionHead head_;
};

}  // namespace yollo::core
