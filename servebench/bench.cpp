// servebench — the repository's serving benchmark (see README.md here).
//
// Drives the serving stack the way its users do, one traffic mix per run:
//
//   robot_interactive  closed loop, one client: every command carries a new
//                      camera frame, sent through InferenceService::ground()
//   gallery_search     closed loop over album searches: each search submits
//                      one new query against every photo of a fixed album
//   fleet_poisson      open loop, Poisson arrivals of distinct frames through
//                      a 3-shard Router at a fixed nominal rate
//
// fleet_poisson also climbs a fixed ladder of open-loop rates for
// max_rate_rps. Inputs come from data::GroundingDataset +
// render_scene under --seed and are rendered, together with a reference box
// per (image, query) pair from a single-image YolloModel::infer, before any
// clock starts. Every kOk answer must equal its reference bit for bit, and
// the service and router accounting invariants must hold; any violation
// exits non-zero.
//
// --trace 0 reports the end-to-end metrics. --trace 1 serves every segment
// of the main window half untraced and half traced (the difference is the
// tracing overhead), replays the workload's inputs through the public entry
// points of each layer (tensor, plan, vision, core, serve, feature cache)
// under spans recorded here, and reports the per-layer metrics. Nothing
// inside src/ records anything for this benchmark.
//
// Usage (normally via run.py):
//   servebench --workload W --seed N --seconds S --trace 0|1
//              [--rev REV] [--trace-out PATH]
// The last stdout line is the JSON result.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "core/detection_head.h"
#include "core/yollo.h"
#include "data/dataset.h"
#include "data/renderer.h"
#include "data/vocab.h"
#include "nn/module.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "serve/feature_cache.h"
#include "serve/router.h"
#include "serve/service.h"
#include "serve/validation.h"
#include "stats.h"
#include "tensor/gemm.h"
#include "tensor/parallel.h"
#include "tensor/pool.h"
#include "trace.h"

extern char** environ;

namespace servebench {
namespace {

using namespace yollo;

// --- the one serving configuration every workload runs ----------------------
constexpr int64_t kImgH = 48;  // the serving benches' 48x72 geometry
constexpr int64_t kImgW = 72;
constexpr int64_t kMaxQueryLen = 16;
constexpr uint64_t kModelSeed = 7;
constexpr int64_t kBatchMax = 8;
constexpr int64_t kQueueCapacity = 64;
// 1 MiB of cached backbone features (~100 entries of 48x6x9 floats): the
// 16-photo album fits, while the 768-frame pool cycled by the frame
// workloads is several times larger than the cache (per shard too), so
// their probes always miss and every insert evicts.
constexpr int64_t kFeatureCacheMb = 1;
// Generator thread + all workers = 4 cores: three workers in the single
// service, or three shards of one worker each. Every other ServeConfig
// field is the same in every workload.
constexpr int64_t kServiceWorkers = 3;
constexpr int64_t kShards = 3;
// Every request, every workload: the usual bound for an interaction to
// feel immediate.
constexpr int64_t kDeadlineMs = 100;
constexpr int64_t kFramePool = 768;
constexpr int64_t kAlbum = 16;
constexpr int64_t kGalleryQueries = 48;
constexpr int kSystems = 5;
constexpr double kOutstandingSampleMs = 20.0;

enum class Workload { kRobot, kGallery, kFleet };

struct WorkloadSpec {
  Workload kind;
  const char* name;
};

const WorkloadSpec kWorkloads[] = {
    {Workload::kRobot, "robot_interactive"},
    {Workload::kGallery, "gallery_search"},
    {Workload::kFleet, "fleet_poisson"},
};

// fleet_poisson: the fixed offered rate of its main window, and the share
// of --seconds that window gets (most of it: its median is the figure most
// exposed to host load, and a longer window averages more of it).
// Untraced runs climb the max_rate_rps ladder in the rest; traced runs
// serve one ladder rung near the knee there instead, so the serve and
// router layer figures include batching under load. The closed-loop
// workloads serve for all of --seconds.
constexpr double kFleetRps = 100.0;
constexpr double kFleetMainShare = 0.6;

// max_rate_rps ladder: the fixed grid of rates 100 * 1.02^i requests/s
// (not calibrated per run), searched coarse to fine from a fixed start
// rung: steps of 4 rungs (8%) up while rungs pass, or down until one
// passes, then one step of 2 and one of 1 between the highest pass and the
// lowest failure. At most kMaxRungs rungs, sharing the part of --seconds
// the main window leaves.
constexpr int kMaxRungs = 4;
constexpr int kLadderStart = 129;  // 1287 rps, near the fleet's knee
double ladder_rate(int rung) { return std::round(100.0 * std::pow(1.02, rung)); }

using Ms = std::chrono::duration<double, std::milli>;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return Ms(b - a).count();
}

// --- inputs -----------------------------------------------------------------

struct Inputs {
  std::vector<Tensor> images;        // [3, H, W], rendered up front
  std::vector<std::string> queries;  // raw query text
  std::vector<std::string> image_ids;
  // (image, query) pairs the workload sends; the pair index keys the
  // reference table. Frame workloads: pair i = (frame i, its own command).
  // Gallery: pair q * kAlbum + p = (photo p, query q).
  std::vector<std::pair<size_t, size_t>> pairs;
};

Inputs make_inputs(Workload kind, uint64_t seed, const data::Vocab& vocab) {
  const bool gallery = kind == Workload::kGallery;
  data::DatasetConfig dc = data::DatasetConfig::synthref(
      gallery ? kAlbum + 4 * kGalleryQueries : kFramePool, seed);
  dc.img_h = kImgH;
  dc.img_w = kImgW;
  const data::GroundingDataset dataset(dc, vocab);
  std::vector<const data::GroundingSample*> samples;
  for (const auto* split : {&dataset.train(), &dataset.val(),
                            &dataset.test_a(), &dataset.test_b()}) {
    for (const data::GroundingSample& s : *split) samples.push_back(&s);
  }
  std::sort(samples.begin(), samples.end(),
            [](const data::GroundingSample* a, const data::GroundingSample* b) {
              return a->image_id != b->image_id ? a->image_id < b->image_id
                                                : a->query_text < b->query_text;
            });
  // One sample (its scene and first command) per distinct image.
  std::vector<const data::GroundingSample*> scenes;
  std::set<int64_t> seen;
  for (const data::GroundingSample* s : samples) {
    if (seen.insert(s->image_id).second) scenes.push_back(s);
  }

  Inputs in;
  const size_t n_images = gallery ? kAlbum : kFramePool;
  if (scenes.size() < n_images) {
    throw std::runtime_error("dataset produced too few distinct images");
  }
  for (size_t i = 0; i < n_images; ++i) {
    in.images.push_back(data::render_scene(scenes[i]->scene));
    in.image_ids.push_back("frame-" + std::to_string(seed) + "-" +
                           std::to_string(scenes[i]->image_id));
  }
  if (!gallery) {
    for (size_t i = 0; i < n_images; ++i) {
      in.queries.push_back(scenes[i]->query_text);
      in.pairs.emplace_back(i, i);
    }
    return in;
  }
  // Gallery searches: distinct query texts from the rest of the dataset.
  std::set<std::string> texts;
  for (const data::GroundingSample* s : samples) {
    if (static_cast<int64_t>(in.queries.size()) == kGalleryQueries) break;
    if (texts.insert(s->query_text).second) in.queries.push_back(s->query_text);
  }
  if (static_cast<int64_t>(in.queries.size()) < kGalleryQueries) {
    throw std::runtime_error("dataset produced too few distinct queries");
  }
  for (size_t q = 0; q < in.queries.size(); ++q) {
    for (size_t p = 0; p < n_images; ++p) in.pairs.emplace_back(p, q);
  }
  return in;
}

// --- the system under test --------------------------------------------------

core::YolloConfig model_config() {
  core::YolloConfig cfg;
  cfg.img_h = kImgH;
  cfg.img_w = kImgW;
  cfg.max_query_len = kMaxQueryLen;
  return cfg;
}

std::unique_ptr<core::YolloModel> build_model(const data::Vocab& vocab) {
  Rng rng(kModelSeed);
  auto model =
      std::make_unique<core::YolloModel>(model_config(), vocab.size(), rng);
  model->set_training(false);
  return model;
}

// Every ServeConfig field that would otherwise fall back to an environment
// variable is set here explicitly.
serve::ServeConfig serve_config(int64_t workers) {
  serve::ServeConfig c;
  c.num_workers = workers;
  c.queue_capacity = kQueueCapacity;
  c.batch_max = kBatchMax;
  c.adaptive_batching = true;
  c.feature_cache_mb = kFeatureCacheMb;
  c.default_deadline_ms = 0;
  c.max_retries = 1;
  c.enable_cancellation = true;
  c.warm_plans = true;
  c.watchdog_interval_ms = 0;
  c.pool_budget_mb = 0;
  c.seed = 1234;
  return c;
}

struct Answer {
  serve::StatusCode code = serve::StatusCode::kInternalError;
  vision::Box box;
  double latency_ms = 0.0;  // from the start of submit() to the answer
};

// A submitted request: the future of whichever front end took it.
struct Pending {
  std::future<serve::GroundResponse> ground;
  std::future<serve::RouteResponse> route;

  Answer get() {
    Answer a;
    if (ground.valid()) {
      const serve::GroundResponse r = ground.get();
      a.code = r.status.code;
      a.box = r.box;
      a.latency_ms = r.latency_ms;
    } else {
      const serve::RouteResponse r = route.get();
      a.code = r.status.code;
      a.box = r.box;
      a.latency_ms = r.latency_ms;
    }
    return a;
  }
};

// The front end a workload serves through: one InferenceService or a
// kShards-shard Router, plus the master model it was built from (the
// reference and replay model).
struct System {
  std::unique_ptr<core::YolloModel> model;
  std::unique_ptr<serve::InferenceService> service;
  std::unique_ptr<serve::Router> router;

  bool warm() const {
    if (service) {
      return service->counters().workers_warmed >= kServiceWorkers;
    }
    for (int64_t i = 0; i < router->num_shards(); ++i) {
      if (router->shard(i).counters().workers_warmed < 1) return false;
    }
    return true;
  }

  Pending submit(const Inputs& in, size_t pair, Clock::time_point deadline) {
    const auto [img, q] = in.pairs[pair];
    Pending p;
    if (service) {
      serve::GroundRequest req;
      req.image = in.images[img];  // shares storage
      req.query = in.queries[q];
      req.deadline_at = deadline;
      p.ground = service->submit(std::move(req));
    } else {
      serve::RouteRequest req;
      req.image = in.images[img];
      req.query = in.queries[q];
      req.image_id = in.image_ids[img];
      req.deadline_at = deadline;
      p.route = router->submit(std::move(req));
    }
    return p;
  }

  // Requests admitted but not yet answered, from one coherent snapshot.
  int64_t outstanding() const {
    if (service) {
      const serve::ServiceCounters c = service->counters();
      return c.submitted - (c.served + c.rejected + c.deadline_exceeded +
                            c.failed + c.cancelled);
    }
    const serve::RouterCounters c = router->counters();
    return c.submitted -
           (c.served + c.rejected + c.deadline_exceeded + c.failed);
  }

  void stop() {
    if (router) router->stop();
    if (service) service->stop();
  }
};

// Every thread of the process but the calling one (the benchmark's client
// or load generator) drops to nice 10. The threads of the system under test
// keep equal shares among themselves, while the generator, which needs a
// fraction of one core, is never starved by them: at the fleet's knee a
// starved generator sent its Poisson schedule late by up to 30 ms (p99),
// so a rung's offered load depended on the scheduler, not on the rate.
void deprioritize_other_threads() {
  const pid_t self = gettid();
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    const pid_t tid = static_cast<pid_t>(
        std::stol(task.path().filename().string()));
    if (tid != self &&
        setpriority(PRIO_PROCESS, static_cast<id_t>(tid), 10) != 0) {
      throw std::runtime_error("cannot lower the priority of thread " +
                               std::to_string(tid));
    }
  }
}

// Model build, front-end start, and the wait until every worker has
// compiled its plans: the time from nothing to the first servable request.
System start_system(Workload kind, const data::Vocab& vocab) {
  System s;
  s.model = build_model(vocab);
  if (kind == Workload::kFleet) {
    serve::RouterConfig rc;
    rc.num_shards = kShards;
    rc.shard = serve_config(1);
    rc.default_deadline_ms = 0;
    rc.seed = 1234;
    s.router = std::make_unique<serve::Router>(*s.model, vocab, rc);
  } else {
    s.service = std::make_unique<serve::InferenceService>(
        *s.model, vocab, serve_config(kServiceWorkers));
  }
  while (!s.warm()) std::this_thread::sleep_for(std::chrono::microseconds(200));
  deprioritize_other_threads();
  return s;
}

// --- measurement ------------------------------------------------------------

struct Window {
  std::vector<double> latency_ms;  // answered requests
  std::vector<double> search_ms;   // one per client interaction
  std::vector<double> gen_lag_ms;  // open loop only
  int64_t sent = 0;
  int64_t answered = 0;
  int64_t in_slo = 0;
  double wall_s = 0.0;
  std::map<std::string, int64_t> misses;  // status name -> count

  void merge(const Window& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    search_ms.insert(search_ms.end(), o.search_ms.begin(), o.search_ms.end());
    gen_lag_ms.insert(gen_lag_ms.end(), o.gen_lag_ms.begin(),
                      o.gen_lag_ms.end());
    sent += o.sent;
    answered += o.answered;
    in_slo += o.in_slo;
    wall_s += o.wall_s;
    for (const auto& [k, v] : o.misses) misses[k] += v;
  }
  double slo_attainment() const {
    return sent > 0 ? static_cast<double>(in_slo) / static_cast<double>(sent)
                    : 0.0;
  }
};

struct Runner {
  const WorkloadSpec& spec;
  const Inputs& in;
  AnswerChecker& checker;
  Tracer& tracer;
  std::mt19937_64 rng;
  System* sys = nullptr;  // the system serving the current segment
  size_t cursor = 0;      // next pair / search
  int64_t next_id = 0;    // benchmark-assigned request ids

  // Account one answer; latency_ms is the user-visible latency.
  void account(Window& w, size_t pair, const Answer& a, double latency_ms) {
    const bool answered = a.code == serve::StatusCode::kOk ||
                          a.code == serve::StatusCode::kDegraded;
    if (a.code == serve::StatusCode::kOk) checker.check(pair, a.box);
    if (!answered) {
      ++w.misses[serve::status_code_name(a.code)];
      return;
    }
    ++w.answered;
    w.latency_ms.push_back(latency_ms);
    if (latency_ms <= static_cast<double>(kDeadlineMs)) ++w.in_slo;
  }

  // robot_interactive: one client, one command at a time.
  Window robot(double seconds) {
    Window w;
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    while (Clock::now() < end) {
      const size_t pair = cursor++ % in.pairs.size();
      const auto [img, q] = in.pairs[pair];
      ScopedSpan request(tracer, "request", next_id++);
      serve::GroundRequest req;
      req.image = in.images[img];
      req.query = in.queries[q];
      const Clock::time_point t0 = Clock::now();
      req.deadline_at = t0 + std::chrono::milliseconds(kDeadlineMs);
      serve::GroundResponse r;
      {
        ScopedSpan s(tracer, "serve.ground");
        r = sys->service->ground(std::move(req));
      }
      const double client_ms = ms_between(t0, Clock::now());
      ++w.sent;
      Answer a;
      a.code = r.status.code;
      a.box = r.box;
      a.latency_ms = r.latency_ms;
      account(w, pair, a, client_ms);
      w.search_ms.push_back(client_ms);
    }
    w.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
    return w;
  }

  // gallery_search: one client, one album search at a time.
  Window gallery(double seconds) {
    Window w;
    const size_t album = in.images.size();
    const size_t searches = in.queries.size();
    std::vector<Pending> pending(album);
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    while (Clock::now() < end) {
      const size_t q = cursor++ % searches;
      ScopedSpan search(tracer, "search", next_id++);
      const Clock::time_point t0 = Clock::now();
      const Clock::time_point deadline =
          t0 + std::chrono::milliseconds(kDeadlineMs);
      for (size_t p = 0; p < album; ++p) {
        ScopedSpan s(tracer, "serve.submit");
        pending[p] = sys->submit(in, q * album + p, deadline);
      }
      for (size_t p = 0; p < album; ++p) {
        Answer a;
        {
          ScopedSpan s(tracer, "serve.await");
          a = pending[p].get();
        }
        ++w.sent;
        account(w, q * album + p, a, a.latency_ms);
      }
      w.search_ms.push_back(ms_between(t0, Clock::now()));
    }
    w.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
    return w;
  }

  // A served window and the rate it was served at, as a ladder rung.
  struct Served {
    Window w;
    Rung rung;
  };

  // Open loop (fleet_poisson): Poisson arrivals of one request each at
  // `rate_rps` requests/s on an absolute schedule for `seconds`. Each
  // request is timed from when it was due and carries a deadline of
  // due + kDeadlineMs.
  Served open_loop(double rate_rps, double seconds) {
    struct Sent {
      size_t pair;
      Clock::time_point due, submit_start, submit_end;
      Pending pending;
    };
    std::vector<Sent> sent;
    sent.reserve(static_cast<size_t>(rate_rps * seconds * 1.3) + 64);
    std::vector<std::pair<double, int64_t>> samples;  // (ms, outstanding)

    const Clock::time_point start = Clock::now();
    const double window_ms = seconds * 1e3;
    double due_ms = 0.0;
    double next_sample_ms = 0.0;
    for (;;) {
      const double u =
          static_cast<double>(rng() >> 11) * (1.0 / 9007199254740992.0);
      due_ms += -std::log1p(-u) / rate_rps * 1e3;
      if (due_ms >= window_ms) break;
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(Ms(due_ms));
      // Sleep to just before the due time, then spin: a sleeping thread
      // wakes ~0.1 ms late (more on a loaded host), and due-time accounting
      // would charge that to every request. The generator owns one core.
      std::this_thread::sleep_until(due - std::chrono::microseconds(300));
      while (Clock::now() < due) {
      }
      Sent s;
      s.pair = cursor++ % in.pairs.size();
      s.due = due;
      s.submit_start = Clock::now();
      s.pending = sys->submit(in, s.pair,
                              due + std::chrono::milliseconds(kDeadlineMs));
      s.submit_end = Clock::now();
      sent.push_back(std::move(s));
      const double now_ms = ms_between(start, Clock::now());
      if (now_ms >= next_sample_ms) {
        samples.emplace_back(now_ms, sys->outstanding());
        next_sample_ms = now_ms + kOutstandingSampleMs;
      }
    }

    Served out;
    Window& w = out.w;
    Clock::time_point last_answer = start;
    for (Sent& s : sent) {
      const Answer a = s.pending.get();
      const double submit_ms = ms_between(start, s.submit_start);
      const double due_ms_rel = ms_between(start, s.due);
      const double latency = due_latency_ms(due_ms_rel, submit_ms, a.latency_ms);
      const Clock::time_point answered_at =
          s.submit_start +
          std::chrono::duration_cast<Clock::duration>(Ms(a.latency_ms));
      last_answer = std::max(last_answer, answered_at);
      ++w.sent;
      w.gen_lag_ms.push_back(generator_lag_ms(due_ms_rel, submit_ms));
      account(w, s.pair, a, latency);
      w.search_ms.push_back(latency);  // a fleet request is one interaction
      if (tracer.enabled()) {
        const int64_t id = next_id++;
        const int64_t root =
            tracer.add("request", s.due, answered_at, -1, id);
        tracer.add("bench.gen_lag", s.due, s.submit_start, root, id);
        tracer.add(sys->router ? "router.submit" : "serve.submit",
                   s.submit_start, s.submit_end, root, id);
        tracer.add(sys->router ? "router.inflight" : "serve.inflight",
                   s.submit_end, answered_at, root, id);
      }
    }
    w.wall_s = std::max(seconds, std::chrono::duration<double>(
                                     last_answer - start).count());

    // Backlog: mean outstanding over the window's second tenth against the
    // mean over its last tenth (see backlog_growing).
    const auto mean_between = [&](double lo, double hi) {
      double sum = 0.0;
      int64_t n = 0;
      for (const auto& [t, v] : samples) {
        if (t >= lo && t < hi) {
          sum += static_cast<double>(v);
          ++n;
        }
      }
      return n > 0 ? sum / static_cast<double>(n) : 0.0;
    };
    const double start_out = mean_between(0.1 * window_ms, 0.2 * window_ms);
    const double end_out = mean_between(0.9 * window_ms, window_ms + 1.0);
    out.rung.rate_rps = rate_rps;
    out.rung.slo_attainment = w.slo_attainment();
    // The fleet holds at most one full batch per shard in its forwards.
    out.rung.backlog_growing = backlog_growing(
        start_out, end_out, rate_rps, static_cast<double>(kShards * kBatchMax));
    out.rung.start_outstanding = start_out;
    out.rung.end_outstanding = end_out;
    return out;
  }

  // A closed loop is served at the rate it offers, with no backlog to
  // grow; run() takes that rate from the whole main window.
  Served main_window(double seconds) {
    if (spec.kind == Workload::kFleet) return open_loop(kFleetRps, seconds);
    Served out;
    out.w = spec.kind == Workload::kRobot ? robot(seconds) : gallery(seconds);
    return out;
  }
};

// --- per-layer replays (traced run) -----------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double span_median(const std::map<std::string, SpanStats>& stats,
                   const std::string& name) {
  const auto it = stats.find(name);
  return it == stats.end() ? 0.0 : median(it->second.durations_ms);
}

struct GemmShape {
  const char* label;
  const char* span;
  int64_t m, n, k;
};

// The GEMMs the served model runs, in (m, n, k) of C[m,n] = A[m,k] B[k,n]:
// im2col convolutions (m = Cout, n = out_h * out_w, k = Cin * 3 * 3; the
// stem sees RGB + 2 CoordConv channels; each stage's shape is that of its
// stride-2 DownsampleBlock conv1, from ch[s-1] to ch[s] channels) and the
// Rel2Att stack (FFN over a batch of 8 x (regions + query tokens) rows; the
// relation map over one image's regions + tokens).
std::vector<GemmShape> model_gemm_shapes(const core::YolloConfig& cfg) {
  const std::vector<int64_t>& ch = cfg.backbone.channels;
  const int64_t h = cfg.img_h;
  const int64_t w = cfg.img_w;
  const int64_t tokens = cfg.num_regions() + cfg.max_query_len;
  return {
      {"conv_stem", "tensor.gemm.conv_stem", ch[0], h * w, 5 * 9},
      {"conv_stage1", "tensor.gemm.conv_stage1", ch[1], (h / 2) * (w / 2),
       ch[0] * 9},
      {"conv_stage2", "tensor.gemm.conv_stage2", ch[2], (h / 4) * (w / 4),
       ch[1] * 9},
      {"conv_stage3", "tensor.gemm.conv_stage3", ch[3], (h / 8) * (w / 8),
       ch[2] * 9},
      {"rel2att_ffn", "tensor.gemm.rel2att_ffn", kBatchMax * tokens,
       cfg.ffn_hidden, cfg.d_rel},
      {"relation_map", "tensor.gemm.relation_map", tokens, tokens, cfg.d_rel},
  };
}

std::vector<int64_t> tokens_for(const std::string& query,
                                const data::Vocab& vocab) {
  serve::ValidatedQuery v = serve::validate_query(query, vocab, kMaxQueryLen);
  if (!v.status.ok()) {
    throw std::runtime_error("generated query rejected: " + query);
  }
  return v.tokens;
}

// Replays the workload's own inputs through each layer's public calls,
// every call under a span; the layer metrics are medians of span
// durations. Runs after the serving window, on a single thread.
std::vector<Metric> replay_layers(const Inputs& in, const data::Vocab& vocab,
                                  Tracer& tr) {
  std::vector<Metric> out;
  const core::YolloConfig cfg = model_config();
  const int64_t plane = 3 * kImgH * kImgW;
  const size_t n_pairs = in.pairs.size();
  constexpr int kRepsB1 = 150;
  constexpr int kRepsB8 = 30;
  constexpr int kRepsMicro = 1000;

  std::vector<std::vector<int64_t>> tokens;
  for (const std::string& q : in.queries) tokens.push_back(tokens_for(q, vocab));
  const auto image_b1 = [&](size_t pair) {
    return in.images[in.pairs[pair].first].reshape({1, 3, kImgH, kImgW});
  };
  const auto batch8 = [&](size_t first, std::vector<int64_t>* toks) {
    Tensor b({kBatchMax, 3, kImgH, kImgW});
    toks->clear();
    for (int64_t i = 0; i < kBatchMax; ++i) {
      const auto [img, q] = in.pairs[(first + static_cast<size_t>(i)) % n_pairs];
      std::copy(in.images[img].data(), in.images[img].data() + plane,
                b.data() + i * plane);
      toks->insert(toks->end(), tokens[q].begin(), tokens[q].end());
    }
    return b;
  };

  // plan: a fresh model pays the per-worker plan warm-up (batch 1..8).
  std::unique_ptr<core::YolloModel> model = build_model(vocab);
  {
    ScopedSpan s(tr, "plan.warm");
    for (int64_t b = 1; b <= kBatchMax; ++b) model->warm_plan(b);
  }
  const double arena_bytes =
      static_cast<double>(model->plan_cache_stats().arena_bytes);

  // vision / core: the forward split at the backbone seam, then decode.
  Tensor features;  // [1, C, gh, gw] of the last replayed image
  {
    ag::NoGradGuard no_grad;
    nn::EvalModeGuard eval(*model);
    PoolScope pool;
    for (int r = 0; r < kRepsB1; ++r) {
      const size_t pair = static_cast<size_t>(r) % n_pairs;
      const std::vector<int64_t>& toks = tokens[in.pairs[pair].second];
      const Tensor image = image_b1(pair);
      ScopedSpan fwd(tr, "replay.forward");
      ag::Variable feat;
      {
        ScopedSpan s(tr, "vision.backbone");
        feat = model->encode_images(image);
      }
      core::YolloModel::Output o;
      {
        ScopedSpan s(tr, "core.rel2att_head");
        o = model->fuse_features(feat, toks);
      }
      {
        ScopedSpan s(tr, "core.decode");
        const std::vector<vision::Box> boxes = core::decode_top1(
            core::DetectionHead::Output{o.scores, o.deltas}, model->anchors(),
            cfg);
        (void)boxes;
      }
      if (r + 1 == kRepsB1) features = feat.value().clone();
    }
  }
  for (int r = 0; r < kRepsB1; ++r) {
    const size_t pair = static_cast<size_t>(r) % n_pairs;
    const std::vector<int64_t>& toks = tokens[in.pairs[pair].second];
    ScopedSpan s(tr, "core.infer_from_features.b1");
    (void)model->infer_from_features(features, toks);
  }
  for (int r = 0; r < kRepsB1; ++r) {
    const size_t pair = static_cast<size_t>(r) % n_pairs;
    const Tensor image = image_b1(pair);
    const std::vector<int64_t>& toks = tokens[in.pairs[pair].second];
    {
      ScopedSpan s(tr, "core.infer.b1");
      (void)model->infer(image, toks);
    }
    ScopedSpan s(tr, "plan.execute.b1");
    model->run_planned(image, toks);
  }
  std::vector<int64_t> toks8;
  for (int r = 0; r < kRepsB8; ++r) {
    const Tensor images = batch8(static_cast<size_t>(r) * kBatchMax, &toks8);
    {
      ScopedSpan s(tr, "core.infer.b8");
      (void)model->infer(images, toks8);
    }
    ScopedSpan s(tr, "plan.execute.b8");
    model->run_planned(images, toks8);
  }

  // serve admission validation and the feature cache, on the workload's
  // own images: hash every image, insert its features under a fresh key
  // (evicting once the budget fills, as the frame workloads do), and look
  // up a resident key (a hit, as the gallery does).
  {
    obs::MetricsRegistry registry;
    serve::FeatureCache cache(registry, kFeatureCacheMb << 20);
    const Tensor feat = features.reshape(
        {features.size(1), features.size(2), features.size(3)});
    const uint64_t generation = model->weights_generation();
    uint64_t resident = 0;
    for (int r = 0; r < kRepsMicro; ++r) {
      const size_t pair = static_cast<size_t>(r) % n_pairs;
      const Tensor& image = in.images[in.pairs[pair].first];
      {
        ScopedSpan s(tr, "serve.validate");
        const serve::Status st = serve::validate_image(image, kImgH, kImgW);
        const serve::ValidatedQuery vq = serve::validate_query(
            in.queries[in.pairs[pair].second], vocab, kMaxQueryLen);
        (void)st;
        (void)vq;
      }
      uint64_t hash = 0;
      {
        ScopedSpan s(tr, "cache.hash");
        hash = serve::FeatureCache::hash_image(image);
      }
      const uint64_t key = cache.make_key(hash + static_cast<uint64_t>(r),
                                          generation);
      {
        ScopedSpan s(tr, "cache.insert");
        cache.insert(key, feat);
      }
      if (r == 0) resident = key;
      {
        ScopedSpan s(tr, "cache.lookup");
        (void)cache.lookup(r % 50 == 0 ? key : resident);
      }
      if (r % 50 == 0) resident = key;
    }
  }

  // tensor: the model's own GEMM shapes through gemm::gemm.
  std::vector<std::pair<std::string, double>> gflops;
  {
    std::mt19937 fill(12345);
    std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
    PoolScope pool;
    for (const GemmShape& g : model_gemm_shapes(cfg)) {
      std::vector<float> a(static_cast<size_t>(g.m * g.k));
      std::vector<float> b(static_cast<size_t>(g.k * g.n));
      std::vector<float> c(static_cast<size_t>(g.m * g.n));
      for (float& v : a) v = dist(fill);
      for (float& v : b) v = dist(fill);
      const double flops = 2.0 * static_cast<double>(g.m * g.n * g.k);
      // ~20 ms of calls per shape at tens of GFLOP/s.
      const int reps = std::clamp(static_cast<int>(8e8 / flops), 50, 20000);
      gemm(false, false, g.m, g.n, g.k, a.data(), b.data(), c.data());
      for (int r = 0; r < reps; ++r) {
        ScopedSpan s(tr, g.span);
        gemm(false, false, g.m, g.n, g.k, a.data(), b.data(), c.data());
      }
    }
  }

  const std::map<std::string, SpanStats> st = tr.stats();
  out.push_back({"vision.backbone_ms", span_median(st, "vision.backbone"), "ms"});
  out.push_back(
      {"core.rel2att_head_ms", span_median(st, "core.rel2att_head"), "ms"});
  out.push_back({"core.infer_from_features_ms.b1",
                 span_median(st, "core.infer_from_features.b1"), "ms"});
  out.push_back({"core.decode_ms", span_median(st, "core.decode"), "ms"});
  out.push_back({"core.infer_ms.b1", span_median(st, "core.infer.b1"), "ms"});
  out.push_back({"core.infer_ms.b8", span_median(st, "core.infer.b8"), "ms"});
  out.push_back(
      {"plan.execute_ms.b1", span_median(st, "plan.execute.b1"), "ms"});
  out.push_back(
      {"plan.execute_ms.b8", span_median(st, "plan.execute.b8"), "ms"});
  out.push_back({"plan.warm_s", span_median(st, "plan.warm") / 1e3, "s"});
  out.push_back({"plan.arena_bytes", arena_bytes, "bytes"});
  out.push_back(
      {"serve.validate_us", span_median(st, "serve.validate") * 1e3, "us"});
  out.push_back({"cache.hash_us", span_median(st, "cache.hash") * 1e3, "us"});
  out.push_back(
      {"cache.lookup_us", span_median(st, "cache.lookup") * 1e3, "us"});
  out.push_back(
      {"cache.insert_us", span_median(st, "cache.insert") * 1e3, "us"});
  for (const GemmShape& g : model_gemm_shapes(cfg)) {
    const double ms = span_median(st, g.span);
    const double flops = 2.0 * static_cast<double>(g.m * g.n * g.k);
    out.push_back({std::string("tensor.gemm_gflops.") + g.label,
                   ms > 0.0 ? flops / (ms * 1e-3) / 1e9 : 0.0, "GFLOP/s"});
  }
  return out;
}

// --- serve / feature cache / router metrics from the program's counters -----

// The program's own serve / cache / router counters, summed over every
// system of a run.
struct ServeTotals {
  obs::MetricsSnapshot services;        // every service or shard, merged
  std::vector<double> shard_submitted;  // by shard index
  double cache_bytes = 0.0;             // resident, last system
  double worker_s = 0.0;                // workers x serving wall
  bool routed = false;
  obs::MetricsSnapshot router;
  double hedges_launched = 0.0, hedges_won = 0.0;
  double failovers = 0.0, shards_drained = 0.0;

  void add(const System& sys, double window_s) {
    std::vector<obs::MetricsSnapshot> shards;
    if (sys.service) {
      shards.push_back(sys.service->metrics_snapshot());
    } else {
      for (int64_t i = 0; i < sys.router->num_shards(); ++i) {
        shards.push_back(sys.router->shard(i).metrics_snapshot());
      }
    }
    shard_submitted.resize(std::max(shard_submitted.size(), shards.size()));
    cache_bytes = 0.0;
    for (size_t i = 0; i < shards.size(); ++i) {
      services.merge(shards[i]);
      shard_submitted[i] +=
          static_cast<double>(shards[i].counter("serve.submitted"));
      cache_bytes += shards[i].gauge("serve.cache_bytes");
    }
    worker_s += window_s * static_cast<double>(
                               sys.service ? kServiceWorkers : kShards);
    if (sys.router) {
      routed = true;
      router.merge(sys.router->metrics_snapshot());
      const serve::RouterCounters rc = sys.router->counters();
      hedges_launched += static_cast<double>(rc.hedges_launched);
      hedges_won += static_cast<double>(rc.hedges_won);
      failovers += static_cast<double>(rc.failovers);
      shards_drained += static_cast<double>(rc.shards_drained);
    }
  }
};

std::vector<Metric> serve_layer_metrics(const ServeTotals& t) {
  const obs::MetricsSnapshot& all = t.services;
  const auto q = [&all](const char* name, double quant) {
    const obs::HistogramSnapshot* h = all.histogram(name);
    return h != nullptr ? h->quantile(quant) : 0.0;
  };
  obs::HistogramSnapshot formation;
  for (int64_t k = 1; k <= kBatchMax; ++k) {
    const obs::HistogramSnapshot* h =
        all.histogram("serve.formation_ms_b" + std::to_string(k));
    if (h == nullptr) continue;
    if (formation.bounds.empty()) {
      formation = *h;
    } else {
      formation.merge(*h);
    }
  }
  const obs::HistogramSnapshot* model = all.histogram("serve.model_ms");
  const double forwards = model != nullptr ? static_cast<double>(model->count) : 0.0;
  const double model_ms_sum = model != nullptr ? model->sum : 0.0;
  const double coalesced =
      static_cast<double>(all.counter("serve.batches_coalesced"));
  const double riders =
      static_cast<double>(all.counter("serve.batched_requests")) +
      (forwards - coalesced);
  const double hits = static_cast<double>(all.counter("serve.cache_hits"));
  const double misses = static_cast<double>(all.counter("serve.cache_misses"));

  // Router metrics; a workload without a router reports zeros.
  double overhead = 0.0, share = 0.0;
  if (t.routed) {
    const obs::HistogramSnapshot* rl = t.router.histogram("router.latency_ms");
    overhead = (rl != nullptr ? rl->quantile(0.5) : 0.0) -
               q("serve.latency_ms", 0.5);
    double total = 0.0, most = 0.0;
    for (const double n : t.shard_submitted) {
      total += n;
      most = std::max(most, n);
    }
    share = total > 0.0 ? most / total : 0.0;
  }
  return {
      {"serve.queue_wait_ms.p50", q("serve.queue_wait_ms", 0.50), "ms"},
      {"serve.queue_wait_ms.p99", q("serve.queue_wait_ms", 0.99), "ms"},
      {"serve.queue_depth.p99", q("serve.queue_depth", 0.99), "count"},
      {"serve.model_ms.p50", q("serve.model_ms", 0.50), "ms"},
      {"serve.batch_size.mean", forwards > 0.0 ? riders / forwards : 0.0,
       "count"},
      {"serve.batches_coalesced", coalesced, "count"},
      {"serve.solo_dispatches",
       static_cast<double>(all.counter("serve.solo_dispatches")), "count"},
      {"serve.formation_ms.p99", formation.quantile(0.99), "ms"},
      {"serve.worker_busy", t.worker_s > 0.0 ? model_ms_sum / (t.worker_s * 1e3) : 0.0,
       "ratio"},
      {"serve.retries", static_cast<double>(all.counter("serve.retries")),
       "count"},
      {"serve.degraded", static_cast<double>(all.counter("serve.degraded")),
       "count"},
      {"cache.hit_ratio", hits + misses > 0.0 ? hits / (hits + misses) : 0.0,
       "ratio"},
      {"cache.evictions",
       static_cast<double>(all.counter("serve.cache_evictions")), "count"},
      {"cache.bytes", t.cache_bytes, "bytes"},
      {"router.hedges_launched", t.hedges_launched, "count"},
      {"router.hedges_won", t.hedges_won, "count"},
      {"router.hedge_win_ratio",
       t.hedges_launched > 0.0 ? t.hedges_won / t.hedges_launched : 0.0,
       "ratio"},
      {"router.failovers", t.failovers, "count"},
      {"router.shards_drained", t.shards_drained, "count"},
      {"router.overhead_ms.p50", overhead, "ms"},
      {"router.shard_share.max", share, "ratio"},
  };
}

// Accounting invariants of every front end; returns the verdict lines and
// whether all hold. `sent` is what the benchmark submitted.
bool check_invariants(const System& sys, int64_t sent,
                      const std::string& system,
                      std::vector<std::string>* verdicts) {
  bool ok = true;
  const auto service_ok = [&](const serve::InferenceService& s,
                              const std::string& label, bool exact_sent) {
    const serve::ServiceCounters c = s.counters();
    const int64_t terms =
        c.served + c.rejected + c.deadline_exceeded + c.failed + c.cancelled;
    const bool holds =
        terms == c.submitted && (!exact_sent || c.submitted == sent);
    ok = ok && holds;
    verdicts->push_back(
        system + " " + label + " served+rejected+deadline_exceeded+failed+cancelled=" +
        std::to_string(terms) + " submitted=" + std::to_string(c.submitted) +
        (exact_sent ? " sent=" + std::to_string(sent) : "") +
        (holds ? " ok" : " VIOLATED"));
  };
  if (sys.service) {
    service_ok(*sys.service, "service", true);
    return ok;
  }
  for (int64_t i = 0; i < sys.router->num_shards(); ++i) {
    service_ok(sys.router->shard(i), "shard" + std::to_string(i), false);
  }
  const serve::RouterCounters c = sys.router->counters();
  const int64_t terms = c.served + c.rejected + c.deadline_exceeded + c.failed;
  const bool holds = terms == c.submitted && c.submitted == sent;
  ok = ok && holds;
  verdicts->push_back(system + " router served+rejected+deadline_exceeded+failed=" +
                      std::to_string(terms) +
                      " submitted=" + std::to_string(c.submitted) +
                      " sent=" + std::to_string(sent) +
                      (holds ? " ok" : " VIOLATED"));
  return ok;
}

// --- environment ------------------------------------------------------------

// Settings that would change what is measured: fault injection, the
// eager-only escape hatch, and the batching-target override.
std::string refused_environment() {
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("YOLLO_FAULT_", 0) == 0 ||
        kv.rfind("YOLLO_BATCH_ADAPTIVE=", 0) == 0 || kv == "YOLLO_PLAN=0") {
      return kv;
    }
  }
  return "";
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string rev = "unknown";
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::stoull(v);
    } else if (k == "--seconds") {
      a->seconds = std::stod(v);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--rev") {
      a->rev = v;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0.0;
}

void print_metric(const Metric& m, const std::string& note = "") {
  std::printf("  %-34s %14.6g %-8s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), note.c_str());
}

std::string tail_note(const Summary& s) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "n=%lld, tail=p%g",
                static_cast<long long>(s.n), s.tail_pct);
  return buf;
}

// The max_rate_rps search over the ladder grid (see ladder_rate).
void climb_ladder(Runner& runner, double rung_s, std::vector<Rung>* rungs,
                  std::vector<Window>* windows) {
  const auto visit = [&](int rung) {
    Runner::Served r = runner.open_loop(ladder_rate(rung), rung_s);
    rungs->push_back(r.rung);
    windows->push_back(std::move(r.w));
    return passes(r.rung);
  };
  // lo passes, hi fails (-1 = not yet seen).
  int lo = -1;
  int hi = -1;
  int rung = kLadderStart;
  (visit(rung) ? lo : hi) = rung;
  while (static_cast<int>(rungs->size()) < kMaxRungs && (lo < 0 || hi < 0)) {
    rung = lo >= 0 ? lo + 4 : hi - 4;
    (visit(rung) ? lo : hi) = rung;
  }
  for (const int step : {2, 1}) {
    if (static_cast<int>(rungs->size()) >= kMaxRungs || lo < 0 || hi < 0 ||
        lo + step >= hi) {
      continue;
    }
    (visit(lo + step) ? lo : hi) = lo + step;
  }
}

int run(const Args& args) {
  const std::string refused = refused_environment();
  if (!refused.empty()) {
    std::fprintf(stderr, "servebench: refusing to run with %s set\n",
                 refused.c_str());
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "servebench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  set_num_threads(1);
  obs::set_enabled(false);

  std::printf(
      "# stamp {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %u, \"cpu\": \"%s\", \"rev\": \"%s\", "
      "\"build_type\": \"%s\", \"intra_op_threads\": %d, "
      "\"deadline_ms\": %lld, \"batch_max\": %lld, \"feature_cache_mb\": "
      "%lld}\n",
      spec->name, static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, std::thread::hardware_concurrency(),
      json_escape(cpu_model()).c_str(), json_escape(args.rev).c_str(),
      SERVEBENCH_BUILD_TYPE, num_threads(),
      static_cast<long long>(kDeadlineMs), static_cast<long long>(kBatchMax),
      static_cast<long long>(kFeatureCacheMb));
  std::fflush(stdout);

  const data::Vocab vocab = data::Vocab::grounding_vocab();
  const Inputs in = make_inputs(spec->kind, args.seed, vocab);

  // Reference boxes: one single-image forward per pair on a master model
  // (every system's model is built from the same seed, so its weights).
  std::vector<vision::Box> expected;
  {
    const std::unique_ptr<core::YolloModel> master = build_model(vocab);
    expected.reserve(in.pairs.size());
    for (const auto& [img, q] : in.pairs) {
      const core::YolloModel::InferOutcome o =
          master->infer(in.images[img].reshape({1, 3, kImgH, kImgW}),
                        tokens_for(in.queries[q], vocab));
      if (!o.ok()) {
        std::fprintf(stderr, "servebench: reference forward failed: %s\n",
                     o.message.c_str());
        return 1;
      }
      expected.push_back(o.boxes[0]);
    }
  }
  AnswerChecker checker(std::move(expected));

  // The main window is served in kSystems equal segments, each by a
  // freshly set-up system, so every set-up that setup_s times also serves
  // and no single system's thread placement or memory layout decides the
  // run. In a traced run every segment is served half untraced and half
  // traced (alternating which half comes first), so the tracing overhead
  // compares the same system with itself. On fleet_poisson the last system
  // then climbs the ladder (untraced run) or serves its start rung (traced
  // run).
  Tracer tracer(false);
  Runner runner{*spec, in, checker, tracer,
                std::mt19937_64(args.seed * 0x9e3779b97f4a7c15ull + 1)};
  const bool fleet = spec->kind == Workload::kFleet;
  const double main_s = fleet ? kFleetMainShare * args.seconds : args.seconds;
  const double rung_s = (args.seconds - main_s) / kMaxRungs;
  const double segment_s = main_s / kSystems;
  std::vector<double> setup_s;
  std::vector<double> segment_p50;
  Window untraced, traced;
  std::vector<Rung> rungs;
  std::vector<Window> rung_windows;
  bool main_backlog = false;  // in any segment (or half, when traced)
  ServeTotals totals;
  double plan_fallbacks = 0.0;
  double plan_cache_misses = 0.0;
  double peak_rss = 0.0;
  std::vector<std::string> verdicts;
  bool invariants_ok = true;
  for (int k = 0; k < kSystems; ++k) {
    const Clock::time_point t0 = Clock::now();
    System sys = start_system(spec->kind, vocab);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    runner.sys = &sys;

    const obs::MetricsSnapshot plan_before =
        obs::MetricsRegistry::global().snapshot();
    Window w;
    if (args.trace) {
      for (const bool traced_half : {k % 2 == 1, k % 2 == 0}) {
        tracer.set_enabled(traced_half);
        const Runner::Served half = runner.main_window(segment_s / 2);
        tracer.set_enabled(false);
        (traced_half ? traced : untraced).merge(half.w);
        w.merge(half.w);
        main_backlog = main_backlog || half.rung.backlog_growing;
      }
    } else {
      const Runner::Served served = runner.main_window(segment_s);
      w = served.w;
      untraced.merge(w);
      main_backlog = main_backlog || served.rung.backlog_growing;
    }
    const obs::MetricsSnapshot plan_after =
        obs::MetricsRegistry::global().snapshot();
    plan_fallbacks += static_cast<double>(
        plan_after.counter("plan.fallbacks") -
        plan_before.counter("plan.fallbacks"));
    plan_cache_misses += static_cast<double>(
        plan_after.counter("plan.cache_misses") -
        plan_before.counter("plan.cache_misses"));
    segment_p50.push_back(median(w.latency_ms));
    int64_t sent = w.sent;
    double served_s = w.wall_s;

    if (k + 1 == kSystems) {
      peak_rss = peak_rss_mb();
      if (fleet && !args.trace) {
        climb_ladder(runner, rung_s, &rungs, &rung_windows);
        for (const Window& r : rung_windows) sent += r.sent;
      } else if (fleet) {
        Runner::Served knee =
            runner.open_loop(ladder_rate(kLadderStart), rung_s);
        sent += knee.w.sent;
        served_s += knee.w.wall_s;
        rungs.push_back(knee.rung);
        rung_windows.push_back(std::move(knee.w));
      }
    }
    if (args.trace) totals.add(sys, served_s);
    sys.stop();
    invariants_ok = check_invariants(sys, sent, "system" + std::to_string(k),
                                     &verdicts) &&
                    invariants_ok;
  }
  Window main = untraced;
  main.merge(traced);
  const double throughput =
      static_cast<double>(main.answered) / std::max(main.wall_s, 1e-9);
  // The main window as one more rung. A closed loop has no ladder: its one
  // client's highest rate is the rate it is served at, taken at its median
  // interaction (a command, or an album search of kAlbum requests) so that
  // the host stalls in a few of them do not decide it, as they would the
  // answers per second of the window. On fleet_poisson it is the ladder's
  // floor (every segment runs at kFleetRps), so max_rate_rps reads 0 only
  // when even that rate fails.
  const double per_interaction =
      spec->kind == Workload::kGallery ? static_cast<double>(kAlbum) : 1.0;
  const double main_rate =
      fleet ? kFleetRps : per_interaction * 1e3 / median(main.search_ms);
  rungs.push_back({main_rate, main.slo_attainment(), main_backlog});

  std::vector<Metric> layer;
  if (args.trace) {
    layer = serve_layer_metrics(totals);
    tracer.set_enabled(true);
    for (const Metric& m : replay_layers(in, vocab, tracer)) layer.push_back(m);
    const double base = median(untraced.latency_ms);
    layer.push_back({"plan.fallbacks", plan_fallbacks, "count"});
    layer.push_back({"plan.cache_misses", plan_cache_misses, "count"});
    layer.push_back({"bench.gen_lag_ms.p99",
                     quantile(main.gen_lag_ms, 0.99), "ms"});
    layer.push_back(
        {"bench.trace_overhead_pct",
         base > 0.0 ? (median(traced.latency_ms) - base) / base * 100.0 : 0.0,
         "%"});
  }

  const bool correct =
      checker.wrong() == 0 && checker.checked() > 0 && invariants_ok;
  const Summary lat = summarize(main.latency_ms);
  const Summary search = summarize(main.search_ms);
  const double error_rate =
      main.sent > 0 ? static_cast<double>(main.sent - main.answered) /
                          static_cast<double>(main.sent)
                    : 1.0;

  std::printf("# workload %s: %lld requests in the main window, %lld "
              "answers checked against their reference box\n",
              spec->name, static_cast<long long>(main.sent),
              static_cast<long long>(checker.checked()));
  std::printf("# segment latency p50 (ms):");
  for (const double v : segment_p50) std::printf(" %.4f", v);
  std::printf("\n# wrong_answers %lld\n",
              static_cast<long long>(checker.wrong()));
  for (const std::string& v : verdicts) std::printf("# invariant %s\n", v.c_str());
  for (const auto& [status, n] : main.misses) {
    std::printf("# unanswered %s %lld\n", status.c_str(),
                static_cast<long long>(n));
  }
  if (!rung_windows.empty()) {
    std::printf(args.trace ? "knee rung (open loop, untraced, counted in the "
                             "serve and router layer metrics):\n"
                           : "ladder (open loop):\n");
  }
  for (size_t i = 0; i < rung_windows.size(); ++i) {
    const Window& w = rung_windows[i];
    std::printf("  %7.0f rps  sent %6lld  slo %.4f  p50 %7.3f ms  "
                "p99 %8.3f ms  gen_lag_p99 %6.3f ms  outstanding %5.1f -> "
                "%5.1f  backlog %s\n",
                rungs[i].rate_rps, static_cast<long long>(w.sent),
                rungs[i].slo_attainment, quantile(w.latency_ms, 0.5),
                quantile(w.latency_ms, 0.99), quantile(w.gen_lag_ms, 0.99),
                rungs[i].start_outstanding, rungs[i].end_outstanding,
                rungs[i].backlog_growing ? "GROWING" : "steady");
  }

  std::vector<Metric> reported;
  if (!args.trace) {
    reported = {
        {"setup_s", median(setup_s), "s"},
        {"latency_p50_ms", lat.p50, "ms"},
        {"search_p50_ms", search.p50, "ms"},
        {"max_rate_rps", max_rate(rungs), "1/s"},
        {"peak_rss_mb", peak_rss, "MB"},
    };
    std::printf("end-to-end metrics (tracing off):\n");
    for (const Metric& m : reported) print_metric(m);
    // Reported, not in the JSON result: on fleet_poisson throughput is the
    // fixed offered rate and on the closed loops it is max_rate_rps; the
    // tails' run-to-run spread on a shared 4-vCPU host (0.3 to 0.8 of the
    // median) is wider than a 25% regression bound.
    print_metric({"throughput_rps", throughput, "1/s"},
                 "answered / main-window second");
    print_metric({"latency_p99_ms", lat.tail, "ms"}, tail_note(lat));
    print_metric({"search_p99_ms", search.tail, "ms"}, tail_note(search));
    print_metric({"slo_attainment", main.slo_attainment(), "ratio"},
                 "answered within " + std::to_string(kDeadlineMs) +
                     " ms / sent");
    print_metric({"error_rate", error_rate, "ratio"}, "unanswered / sent");
    print_metric({"bench.gen_lag_ms.p99", quantile(main.gen_lag_ms, 0.99),
                  "ms"},
                 "open loop only");
  } else {
    reported = layer;
    std::printf("per-layer metrics (traced run):\n");
    for (const Metric& m : reported) print_metric(m);
    std::printf("span self time (ms):\n  %-30s %8s %12s %12s\n", "span",
                "count", "total", "self");
    for (const auto& [name, st] : tracer.stats()) {
      std::printf("  %-30s %8lld %12.3f %12.3f\n", name.c_str(),
                  static_cast<long long>(st.count), st.total_ms, st.self_ms);
    }
    if (!args.trace_out.empty()) {
      if (tracer.write_chrome(args.trace_out)) {
        std::printf("# wrote %zu spans to %s\n", tracer.spans().size(),
                    args.trace_out.c_str());
      } else {
        std::fprintf(stderr, "servebench: cannot write %s\n",
                     args.trace_out.c_str());
      }
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(main.sent),
              static_cast<long long>(main.sent - main.answered));
  for (size_t i = 0; i < reported.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", reported[i].name.c_str(),
                reported[i].value, reported[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Args args;
  if (!servebench::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload W --seed N --seconds S "
                 "--trace 0|1 [--rev REV] [--trace-out PATH]\n");
    return 2;
  }
  try {
    return servebench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 1;
  }
}
