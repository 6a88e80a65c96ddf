#include "nn/mlp.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "nn/loss.hpp"
#include "tensor/ops.hpp"

namespace baffle {

Mlp::Mlp(const MlpConfig& config) : config_(config) {
  if (config.layer_dims.size() < 2) {
    throw std::invalid_argument("Mlp: need at least input and output dims");
  }
  const std::size_t n_layers = config.layer_dims.size() - 1;
  layers_.reserve(n_layers);
  for (std::size_t i = 0; i < n_layers; ++i) {
    const bool hidden = (i + 1 < n_layers);
    layers_.emplace_back(config.layer_dims[i], config.layer_dims[i + 1],
                         hidden);
    num_params_ += layers_.back().num_params();
  }
}

void Mlp::init(Rng& rng) {
  for (auto& layer : layers_) layer.init_weights(rng);
}

namespace {

/// The output layer's step with its outputs on the rows of the logits
/// (classes <= one 16-lane panel): the batch's samples fill the lanes of
/// the forward GEMM and the softmax, the layer's inputs those of dW. Each
/// element keeps the row-major step's fold: logitsᵀ = Wᵀ·inᵀ with the
/// bias one add in the softmax, dWᵀ = dYᵀ·in, db the fold of dYᵀ's rows
/// and din = dYᵀᵀ·Wᵀ, all over the same inner index in the same order.
void output_step_class_major(Dense& layer, const Matrix& in,
                             std::span<const int> labels, Matrix* din,
                             TrainWorkspace& ws) {
  transpose(in, ws.in_t);
  ws.dlogits.resize(layer.out_dim(), in.rows());
  gemm_atb(layer.weights(), ws.in_t, ws.dlogits);
  softmax_xent_grad_class_major(ws.dlogits, layer.bias(), labels,
                                layer.bias_grad());
  ws.wt.resize(layer.out_dim(), layer.in_dim());
  gemm_ab(ws.dlogits, in, ws.wt);
  transpose(ws.wt, layer.weight_grad());
  if (din == nullptr) return;
  transpose(layer.weights(), ws.wt);
  din->resize(in.rows(), layer.in_dim());
  gemm_atb(ws.dlogits, ws.wt, *din);
}

/// The output layer's step for wider layers, whose 16-lane panels the
/// classes fill: logits = in·W + b, the row-major softmax gradient, then
/// the layer's row-major backward.
void output_step_row_major(Dense& layer, const Matrix& in,
                           std::span<const int> labels, Matrix* din,
                           TrainWorkspace& ws) {
  layer.forward_eval(in, ws.dlogits);
  softmax_xent_grad(ws.dlogits, labels);
  // A linear layer's backward never reads its output, which the
  // gradient has overwritten.
  layer.backward_at(in, ws.dlogits, ws.dlogits, din);
}

}  // namespace

void Mlp::compute_gradients(const Matrix& x, std::span<const int> labels,
                            TrainWorkspace& ws) {
  const std::size_t hidden = layers_.size() - 1;
  ws.acts.resize(hidden);
  const Matrix* in = &x;
  for (std::size_t i = 0; i < hidden; ++i) {
    layers_[i].forward_eval(*in, ws.acts[i]);
    in = &ws.acts[i];
  }
  Dense& output = layers_.back();
  Matrix* din = hidden > 0 ? &ws.dx : nullptr;
  if (output.out_dim() <= kClassMajorMaxClasses) {
    output_step_class_major(output, *in, labels, din, ws);
  } else {
    output_step_row_major(output, *in, labels, din, ws);
  }
  // The hidden layers, last to first; dlogits is free again and takes
  // turns with dx.
  Matrix* dout = &ws.dx;
  Matrix* dx = &ws.dlogits;
  for (std::size_t i = hidden; i-- > 0;) {
    const bool first = (i == 0);
    const Matrix& input = first ? x : ws.acts[i - 1];
    layers_[i].backward_at(input, ws.acts[i], *dout, first ? nullptr : dx);
    std::swap(dout, dx);
  }
}

std::vector<float> Mlp::parameters() const {
  std::vector<float> flat;
  flat.reserve(num_params_);
  for (const auto& layer : layers_) {
    const auto w = layer.weights().flat();
    flat.insert(flat.end(), w.begin(), w.end());
    flat.insert(flat.end(), layer.bias().begin(), layer.bias().end());
  }
  return flat;
}

void Mlp::set_parameters(std::span<const float> flat) {
  if (flat.size() != num_params_) {
    throw std::invalid_argument("Mlp::set_parameters: size mismatch");
  }
  std::size_t pos = 0;
  for (auto& layer : layers_) {
    auto w = layer.weights().flat();
    std::copy_n(flat.begin() + static_cast<std::ptrdiff_t>(pos), w.size(),
                w.begin());
    pos += w.size();
    std::copy_n(flat.begin() + static_cast<std::ptrdiff_t>(pos),
                layer.bias().size(), layer.bias().begin());
    pos += layer.bias().size();
  }
}

void Mlp::set_parameters(const F32View& flat) {
  if (flat.size() != num_params_) {
    throw std::invalid_argument("Mlp::set_parameters: size mismatch");
  }
  std::size_t pos = 0;
  for (auto& layer : layers_) {
    const auto w = layer.weights().flat();
    flat.subview(pos, w.size()).copy_to(w);
    pos += w.size();
    flat.subview(pos, layer.bias().size()).copy_to(layer.bias());
    pos += layer.bias().size();
  }
}

void Mlp::copy_parameters_from(const Mlp& from) {
  if (from.config_.layer_dims != config_.layer_dims) {
    throw std::invalid_argument(
        "Mlp::copy_parameters_from: layer dims differ");
  }
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const Dense& src = from.layers_[i];
    Dense& dst = layers_[i];
    std::ranges::copy(src.weights().flat(), dst.weights().flat().begin());
    std::ranges::copy(src.bias(), dst.bias().begin());
  }
}

void Mlp::parameter_delta_into(const Mlp& base, std::span<float> out) const {
  if (base.config_.layer_dims != config_.layer_dims) {
    throw std::invalid_argument("Mlp::parameter_delta_into: layer dims differ");
  }
  if (out.size() != num_params_) {
    throw std::invalid_argument("Mlp::parameter_delta_into: size mismatch");
  }
  auto pos = out.begin();
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const Dense& layer = layers_[i];
    const Dense& from = base.layers_[i];
    const auto w = layer.weights().flat();
    pos = std::transform(w.begin(), w.end(), from.weights().flat().begin(),
                         pos, std::minus<>());
    pos = std::transform(layer.bias().begin(), layer.bias().end(),
                         from.bias().begin(), pos, std::minus<>());
  }
}

void Mlp::add_to_parameters(std::span<const float> delta) {
  if (delta.size() != num_params_) {
    throw std::invalid_argument("Mlp::add_to_parameters: size mismatch");
  }
  std::size_t pos = 0;
  for (auto& layer : layers_) {
    auto w = layer.weights().flat();
    axpy(1.0f, delta.subspan(pos, w.size()), w);
    pos += w.size();
    axpy(1.0f, delta.subspan(pos, layer.bias().size()), layer.bias());
    pos += layer.bias().size();
  }
}

LeasedMlp::LeasedMlp(const MlpConfig& config) {
  std::optional<Mlp>& slot = *lease_;
  if (!slot || slot->config().layer_dims != config.layer_dims) {
    slot.emplace(config);
  }
}

}  // namespace baffle
