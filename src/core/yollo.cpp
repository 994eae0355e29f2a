#include "core/yollo.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "autograd/trace.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/plan.h"
#include "runtime/fault.h"
#include "tensor/exec.h"
#include "tensor/kernels.h"
#include "tensor/pool.h"

namespace yollo::core {

namespace {

// The backbone consumes RGB + 2 CoordConv channels (see forward()).
vision::BackboneConfig with_coord_channels(vision::BackboneConfig cfg) {
  cfg.in_channels = 5;
  return cfg;
}

}  // namespace

YolloModel::YolloModel(const YolloConfig& config, int64_t vocab_size, Rng& rng)
    : config_(config),
      backbone_(with_coord_channels(config.backbone), rng),
      word_emb_(vocab_size, config.word_dim, rng),
      text_norm_(config.word_dim),
      // +1: the softmaxed attention map rides along as an explicit channel
      // (Fig. 3: the head "simply assigns a larger confidence score to the
      // anchor with larger grid values").
      head_(config_, config.backbone.out_channels() + 1, rng) {
  register_module("backbone", backbone_);
  register_module("word_emb", word_emb_);
  register_module("text_norm", text_norm_);
  pos_emb_ = ag::Variable::param(nn::embedding_init(
      {config.max_query_len, config.word_dim}, rng, 0.05f));
  register_parameter("pos_emb", pos_emb_);
  for (int64_t i = 0; i < config.num_rel2att; ++i) {
    rel2att_.push_back(std::make_unique<Rel2Att>(
        config_, config.backbone.out_channels(), config.word_dim, rng));
    register_module("rel2att" + std::to_string(i), *rel2att_.back());
  }
  register_module("head", head_);
}

void YolloModel::init_word_embeddings(const Tensor& embeddings) {
  if (embeddings.shape() != word_emb_.weight.shape()) {
    throw std::invalid_argument(
        "init_word_embeddings: shape mismatch, expected " +
        shape_to_string(word_emb_.weight.shape()) + " got " +
        shape_to_string(embeddings.shape()));
  }
  word_emb_.weight.value().copy_from(embeddings);
  weights_generation_.fetch_add(1, std::memory_order_acq_rel);
}

YolloModel::Output YolloModel::forward(const Tensor& images,
                                       const std::vector<int64_t>& tokens) {
  const int64_t b = images.size(0);
  const int64_t n = config_.max_query_len;
  if (static_cast<int64_t>(tokens.size()) != b * n) {
    throw std::invalid_argument("YolloModel::forward: token count " +
                                std::to_string(tokens.size()) + " != B*n = " +
                                std::to_string(b * n));
  }
  return fuse_features(encode_images(images), tokens);
}

ag::Variable YolloModel::encode_images(const Tensor& images) {
  const int64_t b = images.size(0);

  // §3.1 feature encoder — image side: dense grid features. Two normalised
  // coordinate channels ride along with the RGB input (CoordConv): location
  // words ("left", "top") are frequent in the queries, and a shallow
  // scratch-trained backbone otherwise carries almost no absolute-position
  // signal (the paper's deep pretrained C4 features get it from context).
  const int64_t ih = images.size(2);
  const int64_t iw = images.size(3);
  Tensor with_coords = Tensor::uninitialized({b, 5, ih, iw});
  kernels::fill_coord_channels(images.data(), with_coords.data(), b, ih, iw);
  // The plan prologue refills this slot per execution with the same kernel.
  ag::trace::note_input("with_coords", with_coords);
  return backbone_.forward(ag::Variable::constant(with_coords));
}

YolloModel::Output YolloModel::fuse_features(
    const ag::Variable& feat, const std::vector<int64_t>& tokens) {
  const int64_t b = feat.size(0);
  const int64_t n = config_.max_query_len;
  const int64_t m = config_.num_regions();
  const int64_t c = config_.backbone.out_channels();
  ag::Variable v = ag::transpose(ag::reshape(feat, {b, c, m}), 1, 2);

  // §3.1 feature encoder — text side: word + absolute position embeddings.
  ag::Variable words = word_emb_.forward(tokens);               // [B*n, d]
  words = ag::reshape(words, {b, n, config_.word_dim});
  ag::Variable t =
      text_norm_.forward(ag::add(words, pos_emb_));  // pos broadcasts over batch

  // PAD-validity mask shared by the whole Rel2Att stack (0 == Vocab::kPad).
  Tensor pair_mask = Tensor::uninitialized({b, m + n, m + n});
  kernels::fill_pair_mask(tokens.data(), b, m, n, pair_mask.data());
  ag::trace::note_input("pair_mask", pair_mask);

  // §3.2: stacked Rel2Att modules.
  Output out;
  for (size_t i = 0; i < rel2att_.size(); ++i) {
    Rel2Att::Output r = rel2att_[i]->forward(v, t, pair_mask);
    v = r.v;
    t = r.t;
    out.att_v = r.att_v;  // the last module's image attention
    out.att_v_all.push_back(r.att_v);
  }

  // Reconstruct the attended feature map M~, append the softmaxed attention
  // as one extra channel, and run the detection network.
  ag::Variable m_tilde =
      ag::reshape(ag::transpose(v, 1, 2), {b, c, config_.grid_h(),
                                           config_.grid_w()});
  ag::Variable att_plane = ag::reshape(
      ag::mul_scalar(ag::softmax(out.att_v, 1), static_cast<float>(m)),
      {b, 1, config_.grid_h(), config_.grid_w()});
  m_tilde = ag::concat({m_tilde, att_plane}, 1);
  DetectionHead::Output head_out = head_.forward(m_tilde);
  out.scores = head_out.scores;
  out.deltas = head_out.deltas;
  out.feat = feat;
  return out;
}

YolloModel::Losses YolloModel::compute_loss(
    const Output& out, const std::vector<vision::Box>& targets, Rng& rng) {
  const int64_t b = out.scores.size(0);
  const int64_t m = config_.num_regions();

  // Eq. (6): attention-mask loss against the scaled ground-truth box.
  Tensor gt_masks({b, m});
  for (int64_t bi = 0; bi < b; ++bi) {
    const Tensor row =
        make_gt_mask(targets[static_cast<size_t>(bi)], config_.grid_h(),
                     config_.grid_w(), config_.backbone.stride());
    std::copy(row.data(), row.data() + m, gt_masks.data() + bi * m);
  }

  // Eq. (6) applied to every stacked module's attention (deep supervision).
  Losses losses;
  losses.att = attention_loss(out.att_v_all[0], gt_masks);
  for (size_t i = 1; i < out.att_v_all.size(); ++i) {
    losses.att = ag::add(losses.att, attention_loss(out.att_v_all[i], gt_masks));
  }
  losses.att = ag::mul_scalar(
      losses.att, 1.0f / static_cast<float>(out.att_v_all.size()));

  // Eqs. (7)-(8): detection losses over sampled anchors.
  DetectionHead::Output head_out{out.scores, out.deltas};
  const DetectionLoss det =
      detection_loss(head_out, head_.anchors(), targets, config_, rng);
  losses.cls = det.cls;
  losses.reg = det.reg;

  // Eq. (9): L = L_att + L_cls + lambda * L_reg.
  losses.total = ag::add(
      losses.att,
      ag::add(losses.cls, ag::mul_scalar(losses.reg, config_.lambda_reg)));
  return losses;
}

YolloModel::Output YolloModel::run_forward(
    const Tensor& input, const std::vector<int64_t>& tokens,
    bool from_features, yollo::plan::Plan::ExecGuard& guard) {
  std::shared_ptr<yollo::plan::Plan> p =
      yollo::plan::enabled() ? planned_for(input.size(0)) : nullptr;
  if (p == nullptr || (from_features && !p->has_feature_entry())) {
    return from_features
               ? fuse_features(ag::Variable::constant(input), tokens)
               : forward(input, tokens);
  }
  guard = from_features ? p->execute_from_features(input, tokens)
                        : p->execute(input, tokens);
  // Arena-backed views of the outputs; the plan shared_ptr keeps the arena
  // alive, and the guard keeps another execution from overwriting it.
  const auto view = [&p](const Shape& shape, const float* data) {
    return ag::Variable::constant(
        Tensor::from_external(shape, const_cast<float*>(data), p));
  };
  Output out;
  out.scores = view(guard.scores_shape(), guard.scores());
  out.deltas = view(guard.deltas_shape(), guard.deltas());
  if (guard.has_features()) {
    out.feat = view(guard.features_shape(), guard.features());
  }
  return out;
}

YolloModel::ForwardDecode YolloModel::forward_and_decode(
    const Tensor& input, const std::vector<int64_t>& tokens,
    bool from_features, bool apply_fault_hooks, bool capture_features) {
  // Held through decode and capture: on the planned path `out` views the
  // arena.
  yollo::plan::Plan::ExecGuard guard;
  Output out = run_forward(input, tokens, from_features, guard);
  ForwardDecode fd = decode_and_scan(
      out, from_features ? config_.img_w : input.size(3),
      from_features ? config_.img_h : input.size(2), apply_fault_hooks);
  if (capture_features) fd.features = out.feat.value().clone();
  return fd;
}

YolloModel::ForwardDecode YolloModel::decode_and_scan(Output& out,
                                                      int64_t img_w,
                                                      int64_t img_h,
                                                      bool apply_fault_hooks) {
  ForwardDecode fd;
  if (apply_fault_hooks &&
      runtime::FaultInjector::active().take_poison_forward()) {
    // Stand-in for silently corrupted activations: the finiteness scan
    // below must catch this, never the caller. Only the last batch element
    // is poisoned — real corruption hits activations, not whole batches —
    // which also exercises the per-element isolation contract. For a batch
    // of one (the single-image path) this poisons the entire output.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const int64_t last = out.scores.size(0) - 1;
    Tensor& scores = out.scores.value();
    Tensor& deltas = out.deltas.value();
    const int64_t srow = scores.numel() / scores.size(0);
    const int64_t drow = deltas.numel() / deltas.size(0);
    std::fill(scores.data() + last * srow, scores.data() + (last + 1) * srow,
              nan);
    std::fill(deltas.data() + last * drow, deltas.data() + (last + 1) * drow,
              nan);
  }

  const int64_t b = out.scores.size(0);
  const int64_t a = out.scores.size(1);
  DetectionHead::Output head_out{out.scores, out.deltas};
  std::vector<vision::Box> decoded =
      decode_top1(head_out, head_.anchors(), config_);

  // Per-element verdicts: one element's non-finite activations or box must
  // never fail its batch mates (micro-batching relies on this isolation).
  fd.element_errors.assign(static_cast<size_t>(b), InferError::kNone);
  fd.boxes.assign(static_cast<size_t>(b), vision::Box{});
  const float* scores = out.scores.value().data();
  int64_t bad = 0;
  for (int64_t e = 0; e < b; ++e) {
    bool finite = true;
    for (int64_t i = 0; i < a && finite; ++i) {
      finite = std::isfinite(scores[e * a + i]);
    }
    const vision::Box& box = decoded[static_cast<size_t>(e)];
    finite = finite && std::isfinite(box.x) && std::isfinite(box.y) &&
             std::isfinite(box.w) && std::isfinite(box.h);
    if (!finite) {
      fd.element_errors[static_cast<size_t>(e)] = InferError::kNonFinite;
      ++bad;
      continue;
    }
    // decode_top1 clips against the config; re-clip against the actual
    // image so the invariant is local and survives refactors upstream.
    fd.boxes[static_cast<size_t>(e)] = vision::clip_box(
        box, static_cast<float>(img_w), static_cast<float>(img_h));
  }
  if (bad > 0) {
    fd.error = InferError::kNonFinite;
    fd.message = "non-finite activations or boxes in " + std::to_string(bad) +
                 " of " + std::to_string(b) + " batch elements";
  }
  return fd;
}

std::shared_ptr<yollo::plan::Plan> YolloModel::build_plan(int64_t batch) {
  OBS_SPAN("plan.record");
  yollo::plan::Recorder rec;
  // Recording is structural, so zero inputs serve every later request of
  // this batch size (all-PAD tokens; the gather replays the caller's ids).
  const Tensor images({batch, 3, config_.img_h, config_.img_w});
  const std::vector<int64_t> tokens(
      static_cast<size_t>(batch * config_.max_query_len), 0);
  rec.set_tokens(tokens);
  Output out;
  {
    // Record one ordinary grad-free forward; the hooks in autograd see
    // every op. Callers have NoGradGuard + EvalModeGuard installed.
    ag::trace::Scope scope(&rec);
    out = forward(images, tokens);
  }
  // Features ride along as a third plan output: serving populates the
  // feature cache straight from the arena, and the plan's feature entry
  // starts at that slot.
  return rec.compile(out.scores.value(), out.deltas.value(), /*why=*/nullptr,
                     &out.feat.value());
}

std::shared_ptr<yollo::plan::Plan> YolloModel::planned_for(int64_t batch) {
  constexpr size_t kMaxPlanEntries = 16;
  constexpr int64_t kPlanRetryPeriod = 64;
  static obs::Counter& hits =
      obs::MetricsRegistry::global().counter("plan.cache_hits");
  static obs::Counter& misses =
      obs::MetricsRegistry::global().counter("plan.cache_misses");

  // Held across a build: a concurrent miss waits for the plan instead of
  // running eagerly beside it. Serving never contends here — every worker
  // owns its replica.
  std::lock_guard<std::mutex> lk(plan_mu_);
  auto it = plan_cache_.find(batch);
  if (it == plan_cache_.end()) {
    if (plan_cache_.size() >= kMaxPlanEntries) {
      plan_cache_.erase(plan_cache_.begin());
    }
    it = plan_cache_.emplace(batch, PlanEntry{}).first;
  }
  PlanEntry& e = it->second;
  if (e.plan) {
    ++plan_stats_.hits;
    hits.inc();
    return e.plan;
  }
  if (e.failed) {
    // Unplannable traces stay failed; budget refusals may clear up, so
    // retry periodically instead of never.
    if (++e.misses % kPlanRetryPeriod != 0) return nullptr;
    e.failed = false;
  }
  ++plan_stats_.misses;
  misses.inc();
  // Cancellation or a fault mid-recording propagates and leaves the entry
  // clean, so the next request retries the build.
  try {
    e.plan = build_plan(batch);
  } catch (const PoolBudgetExceeded&) {
    // Arena refused by the pool budget: degrade to the dynamic path (which
    // runs inside the budgeted pool) instead of failing the request.
  }
  if (!e.plan) {
    e.failed = true;
    return nullptr;
  }
  ++plan_stats_.compiles;
  int64_t bytes = 0;
  for (const auto& [key, entry] : plan_cache_) {
    if (entry.plan) bytes += entry.plan->arena_bytes();
  }
  obs::MetricsRegistry::global()
      .gauge("plan.arena_bytes")
      .set(static_cast<double>(bytes));
  return e.plan;
}

void YolloModel::warm_plan(int64_t batch) {
  if (!yollo::plan::enabled() || batch < 1) return;
  ag::NoGradGuard no_grad;
  nn::EvalModeGuard eval_mode(*this);
  // Deliberately no PoolScope: the arena's byte charge must land on the
  // caller's active budget scope (the serve worker's), not a transient one.
  if (std::shared_ptr<yollo::plan::Plan> p = planned_for(batch)) {
    // One throwaway execution warms the GEMM pack scratch and obs rings so
    // the first real request runs at steady state.
    p->execute(Tensor({batch, 3, config_.img_h, config_.img_w}),
               std::vector<int64_t>(
                   static_cast<size_t>(batch * config_.max_query_len), 0));
  }
}

bool YolloModel::planned(int64_t batch) {
  return cached_plan(batch) != nullptr;
}

void YolloModel::invalidate_plans() {
  // Model-reload signal: parameter storage may have been rebound, so any
  // cached backbone features derived from the old weights are stale too.
  weights_generation_.fetch_add(1, std::memory_order_acq_rel);
  std::lock_guard<std::mutex> lk(plan_mu_);
  plan_cache_.clear();
}

YolloModel::PlanCacheStats YolloModel::plan_cache_stats() {
  std::lock_guard<std::mutex> lk(plan_mu_);
  PlanCacheStats s = plan_stats_;
  s.entries = 0;
  s.arena_bytes = 0;
  for (const auto& [key, e] : plan_cache_) {
    if (e.plan) {
      ++s.entries;
      s.arena_bytes += e.plan->arena_bytes();
    }
  }
  return s;
}

YolloModel::RawForward YolloModel::raw_forward(
    const Tensor& images, const std::vector<int64_t>& tokens) {
  ag::NoGradGuard no_grad;
  nn::EvalModeGuard eval_mode(*this);
  PoolScope pool;
  yollo::plan::Plan::ExecGuard guard;
  const Output out =
      run_forward(images, tokens, /*from_features=*/false, guard);
  RawForward rf;
  rf.scores = out.scores.value().clone();
  rf.deltas = out.deltas.value().clone();
  rf.planned = static_cast<bool>(guard);
  return rf;
}

bool YolloModel::run_planned(const Tensor& input,
                             const std::vector<int64_t>& tokens,
                             bool from_features) {
  const std::shared_ptr<yollo::plan::Plan> p = cached_plan(input.size(0));
  if (p == nullptr || (from_features && !p->has_feature_entry())) {
    return false;
  }
  if (from_features) {
    p->execute_from_features(input, tokens);
  } else {
    p->execute(input, tokens);
  }
  return true;
}

std::shared_ptr<yollo::plan::Plan> YolloModel::cached_plan(int64_t batch) {
  std::lock_guard<std::mutex> lk(plan_mu_);
  auto it = plan_cache_.find(batch);
  return it != plan_cache_.end() ? it->second.plan : nullptr;
}

std::vector<vision::Box> YolloModel::predict(
    const Tensor& images, const std::vector<int64_t>& tokens) {
  // Self-contained inference: no graph, deterministic eval-mode batch norm
  // regardless of the caller's train/eval state, recycled storage.
  ag::NoGradGuard no_grad;
  nn::EvalModeGuard eval_mode(*this);
  PoolScope pool;
  ForwardDecode fd = forward_and_decode(images, tokens, /*from_features=*/false,
                                        /*apply_fault_hooks=*/false);
  if (!fd.all_ok()) {
    throw std::runtime_error("YolloModel::predict: " + fd.message);
  }
  return std::move(fd.boxes);
}

YolloModel::InferOutcome YolloModel::infer(
    const Tensor& images, const std::vector<int64_t>& tokens,
    bool capture_features) noexcept {
  return infer_impl(images, tokens, /*from_features=*/false,
                    capture_features);
}

YolloModel::InferOutcome YolloModel::infer_from_features(
    const Tensor& features, const std::vector<int64_t>& tokens) noexcept {
  return infer_impl(features, tokens, /*from_features=*/true,
                    /*capture_features=*/false);
}

YolloModel::InferOutcome YolloModel::infer_impl(
    const Tensor& input, const std::vector<int64_t>& tokens,
    bool from_features, bool capture_features) noexcept {
  InferOutcome outcome;
  const auto fail = [&outcome](InferError error, std::string message) {
    outcome.error = error;
    outcome.message = std::move(message);
    outcome.boxes.clear();
    return outcome;
  };

  try {
    // Shape contract first: the forward would throw (or worse, mis-reshape)
    // on anything else. Images are [B,3,img_h,img_w]; features
    // [B,C,grid_h,grid_w].
    const int64_t want[3] = {
        from_features ? config_.backbone.out_channels() : 3,
        from_features ? config_.grid_h() : config_.img_h,
        from_features ? config_.grid_w() : config_.img_w};
    if (!input.defined() || input.ndim() != 4 || input.size(0) < 1 ||
        input.size(1) != want[0] || input.size(2) != want[1] ||
        input.size(3) != want[2]) {
      return fail(InferError::kInvalidInput,
                  std::string("expected ") +
                      (from_features ? "features" : "images") + " [B," +
                      std::to_string(want[0]) + "," +
                      std::to_string(want[1]) + "," +
                      std::to_string(want[2]) + "], got " +
                      (input.defined() ? shape_to_string(input.shape())
                                       : std::string("<undefined>")));
    }
    const int64_t b = input.size(0);
    if (static_cast<int64_t>(tokens.size()) != b * config_.max_query_len) {
      return fail(InferError::kInvalidInput,
                  "token count " + std::to_string(tokens.size()) +
                      " != B*max_query_len = " +
                      std::to_string(b * config_.max_query_len));
    }
    const int64_t vocab = word_emb_.weight.size(0);
    for (const int64_t token : tokens) {
      if (token < 0 || token >= vocab) {
        return fail(InferError::kInvalidInput,
                    "token id " + std::to_string(token) +
                        " outside vocabulary [0, " + std::to_string(vocab) +
                        ")");
      }
    }
    const float* values = input.data();
    for (int64_t i = 0; i < input.numel(); ++i) {
      if (!std::isfinite(values[i])) {
        return fail(InferError::kInvalidInput,
                    std::string("non-finite ") +
                        (from_features ? "feature" : "pixel") +
                        " at flat index " + std::to_string(i));
      }
    }

    // Same guard stack as predict(): the entry point owns its execution
    // mode instead of trusting the caller's.
    ag::NoGradGuard no_grad;
    nn::EvalModeGuard eval_mode(*this);
    PoolScope pool;

    // Fault hooks: a slow-forward fault sleeps here, a transient forward
    // failure throws here (caught below as kFault). active() resolves to a
    // thread-bound scoped injector when one is installed (per-shard chaos),
    // else the env-driven process-wide instance. A cached-path forward is
    // one attempt exactly like an uncached one.
    runtime::FaultInjector::active().check_forward();

    ForwardDecode fd =
        forward_and_decode(input, tokens, from_features,
                           /*apply_fault_hooks=*/true, capture_features);
    // A context cancelled on the *last* kernel has no later dispatch
    // checkpoint to throw from, and the abandoned kernel's partial output
    // can look finite — so the cancelled flag always wins over whatever
    // forward_and_decode scanned out of the data.
    if (ExecContext* ctx = ExecContext::current();
        ctx != nullptr && ctx->cancelled()) {
      return fail(InferError::kCancelled,
                  std::string("forward cancelled: ") +
                      cancel_cause_name(ctx->cause()));
    }
    outcome.element_errors = std::move(fd.element_errors);
    outcome.element_boxes = std::move(fd.boxes);
    outcome.features = std::move(fd.features);
    if (!fd.all_ok()) {
      outcome.error = fd.error;
      outcome.message = std::move(fd.message);
      outcome.boxes.clear();  // all-or-nothing view; per-element data stays
      return outcome;
    }
    outcome.boxes = outcome.element_boxes;
    return outcome;
  } catch (const ExecCancelled& e) {
    return fail(InferError::kCancelled, e.what());
  } catch (const PoolBudgetExceeded& e) {
    return fail(InferError::kResourceExhausted, e.what());
  } catch (const std::exception& e) {
    return fail(InferError::kFault, e.what());
  } catch (...) {
    return fail(InferError::kFault, "unknown exception during forward");
  }
}

Tensor YolloModel::attention_map(const Output& out,
                                 int64_t batch_index) const {
  const int64_t m = config_.num_regions();
  const Tensor att =
      out.att_v.value().narrow(0, batch_index, 1).reshape({m});
  return softmax(att, 0).reshape({config_.grid_h(), config_.grid_w()});
}

Tensor YolloModel::attention_map(const Tensor& images,
                                 const std::vector<int64_t>& tokens,
                                 int64_t batch_index) {
  ag::NoGradGuard no_grad;
  nn::EvalModeGuard eval_mode(*this);
  PoolScope pool;
  const Output out = forward(images, tokens);
  return attention_map(out, batch_index);
}

}  // namespace yollo::core
