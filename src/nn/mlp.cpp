#include "nn/mlp.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

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

const Matrix& Mlp::forward_train(const Matrix& x, TrainWorkspace& ws) const {
  ws.acts.resize(layers_.size());
  layers_.front().forward_eval(x, ws.acts.front());
  for (std::size_t i = 1; i < layers_.size(); ++i) {
    layers_[i].forward_eval(ws.acts[i - 1], ws.acts[i]);
  }
  return ws.acts.back();
}

void Mlp::backward_train(const Matrix& x, TrainWorkspace& ws) {
  if (ws.acts.size() != layers_.size()) {
    throw std::logic_error("Mlp::backward_train: run forward_train first");
  }
  Matrix* dout = &ws.dlogits;
  Matrix* dx = &ws.dx;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    const bool first = (i == 0);
    const Matrix& input = first ? x : ws.acts[i - 1];
    layers_[i].backward_at(input, ws.acts[i], *dout, first ? nullptr : dx);
    if (!first) std::swap(dout, dx);
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
