#include "nn/multi_eval.hpp"

#include <algorithm>

#include "tensor/kernels.hpp"
#include "util/contracts.hpp"
#include "util/metric_names.hpp"
#include "util/metrics.hpp"
#include "util/scratch_lease.hpp"
#include "util/thread_pool.hpp"

namespace baffle {

namespace {
constexpr std::size_t kPC = kernels::kPanelCols;

using PanelLease = ScratchLease<MultiModelEval::PanelScratch>;
using CallLease = ScratchLease<MultiModelEval::CallScratch>;
}  // namespace

MultiModelEval::MultiModelEval(MlpConfig config) : config_(std::move(config)) {
  BAFFLE_CHECK(config_.layer_dims.size() >= 2,
               "MultiModelEval: need at least input and output dims");
  num_layers_ = config_.layer_dims.size() - 1;
  for (std::size_t l = 0; l < num_layers_; ++l) {
    const std::size_t d_in = config_.layer_dims[l];
    const std::size_t d_out = config_.layer_dims[l + 1];
    BAFFLE_CHECK(d_in > 0 && d_out > 0,
                 "MultiModelEval: zero-width layer");
    num_params_ += d_in * d_out + d_out;
  }
  for (std::size_t d : config_.layer_dims) max_width_ = std::max(max_width_, d);
}

void MultiModelEval::fill_layer_views(std::span<const float> params,
                                      LayerView* out) const {
  BAFFLE_CHECK(params.size() == num_params_,
               "MultiModelEval: parameter count mismatch");
  const float* p = params.data();
  for (std::size_t l = 0; l < num_layers_; ++l) {
    const std::size_t d_in = config_.layer_dims[l];
    const std::size_t d_out = config_.layer_dims[l + 1];
    out[l].w = p;
    p += d_in * d_out;
    out[l].bias = p;
    p += d_out;
    out[l].d_in = d_in;
    out[l].d_out = d_out;
  }
}

void MultiModelEval::bind(const Matrix& x) {
  BAFFLE_CHECK(x.cols() == config_.layer_dims.front(),
               "MultiModelEval::bind: input dim mismatch");
  const ScopedTimer bind_timer(metric::kEngineBind);
  // pack_bt_panels parallelizes its transposing gather internally for
  // validation-sized inputs (disjoint panels, identical arithmetic).
  pack_bt_panels(x, xpack_);
  samples_ = x.rows();
  panels_ = (samples_ + kPC - 1) / kPC;
}

const float* MultiModelEval::eval_panels(std::span<const LayerView> layers,
                                         const float* xpanels,
                                         std::size_t panels,
                                         PanelScratch& ps) const {
  const kernels::KernelTable& t = kernels::active_table();
  const float* in = xpanels;
  float* cur = ps.panel_a.data();
  float* nxt = ps.panel_b.data();
  const float* last = nullptr;
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const LayerView& lv = layers[l];
    const bool hidden = l + 1 < layers.size();
    kernels::EvalLayerArgs a{lv.w,     1,        lv.d_out, lv.bias, in,
                             cur,      lv.d_in,  lv.d_out, hidden,  panels};
    t.eval_layer_f32(a);
    last = cur;
    in = cur;
    std::swap(cur, nxt);
  }
  return last;
}

void MultiModelEval::run_tile(std::span<const MultiEvalModel> models,
                              std::size_t m0, std::size_t mend,
                              std::size_t jb, std::size_t jend,
                              const CallScratch& cs, PanelScratch& ps) const {
  const kernels::KernelTable& t = kernels::active_table();
  const std::size_t d = config_.layer_dims.front();
  const std::size_t classes = config_.layer_dims.back();
  ps.panel_a.resize(max_width_ * kPC * kGroupPanels);
  ps.panel_b.resize(max_width_ * kPC * kGroupPanels);
  for (std::size_t mi = m0; mi < mend; ++mi) {
    std::span<const LayerView> views{cs.views.data() + mi * num_layers_,
                                     num_layers_};
    const std::span<float> margins = models[mi].margins;
    for (std::size_t jg = jb; jg < jend; jg += kGroupPanels) {
      const std::size_t panels = std::min(kGroupPanels, jend - jg);
      const float* logits =
          eval_panels(views, xpack_.data() + jg * d * kPC, panels, ps);
      for (std::size_t q = 0; q < panels; ++q) {
        const std::size_t j0 = (jg + q) * kPC;
        kernels::ArgmaxMarginArgs am{
            logits + q * classes * kPC, classes, std::min(kPC, samples_ - j0),
            models[mi].preds.data() + j0,
            margins.empty() ? nullptr : margins.data() + j0};
        t.argmax_margin_panel(am);
      }
    }
  }
}

void MultiModelEval::predict_many(std::span<const MultiEvalModel> models) {
  BAFFLE_CHECK(!xpack_.empty() || samples_ == 0,
               "MultiModelEval: bind() before predict");
  for (const MultiEvalModel& m : models) {
    BAFFLE_CHECK(m.preds.size() == samples_,
                 "MultiModelEval: prediction span size mismatch");
    BAFFLE_CHECK(m.margins.empty() || m.margins.size() == samples_,
                 "MultiModelEval: margin span size mismatch");
  }
  if (samples_ == 0 || models.empty()) return;
  const ScopedTimer run_timer(metric::kEngineRun);

  const std::size_t nmodels = models.size();

  CallLease call;
  CallScratch& cs = *call;
  cs.views.resize(nmodels * num_layers_);
  for (std::size_t i = 0; i < nmodels; ++i) {
    fill_layer_views(models[i].params, cs.views.data() + i * num_layers_);
  }

  // The tile sweep. Every (model-chunk × panel-block) tile writes the
  // disjoint prediction/margin slice of its (model, sample) rectangle
  // with the serial loop's per-element arithmetic, so any schedule —
  // including the inline loop a one-worker pool runs — produces the
  // same bytes. On the pool the caller participates and help-drains,
  // so nesting inside other pool tasks (wire actors, the adaptive
  // attacker's update, repetitions, sweep cells) cannot deadlock a
  // saturated pool.
  const std::size_t nchunks = (nmodels + kModelChunk - 1) / kModelChunk;
  const std::size_t nblocks = (panels_ + kPanelBlock - 1) / kPanelBlock;
  const std::size_t ntiles = nchunks * nblocks;
  const auto tile_fn = [&](std::size_t tile) {
    const std::size_t m0 = (tile / nblocks) * kModelChunk;
    const std::size_t jb = (tile % nblocks) * kPanelBlock;
    PanelLease lease;
    run_tile(models, m0, std::min(nmodels, m0 + kModelChunk), jb,
             std::min(panels_, jb + kPanelBlock), cs, *lease);
  };
  // A one-worker pool would run parallel_for inline anyway; testing the
  // size first keeps that path free of parallel_for's task bookkeeping.
  if (ntiles > 1 && ThreadPool::global().size() > 1) {
    ThreadPool::global().parallel_for(ntiles, tile_fn);
  } else {
    for (std::size_t tile = 0; tile < ntiles; ++tile) tile_fn(tile);
  }
  MetricsRegistry::global().add_counter(metric::kEngineTiles, ntiles);
}

void predict_classes(const MlpConfig& arch, std::span<const float> params,
                     const Matrix& x, std::span<std::size_t> out) {
  MultiModelEval engine(arch);
  engine.bind(x);
  const MultiEvalModel model{params, out};
  engine.predict_many({&model, 1});
}

}  // namespace baffle
