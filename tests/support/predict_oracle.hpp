#pragma once
// The inference oracle the evaluation engine (nn/multi_eval.hpp) is
// checked against: the model's training-path forward over the whole
// feature matrix (Dense::forward_eval per layer: GEMM, bias add, ReLU
// on the hidden layers), then each row's first maximum. It runs no
// kernel the engine runs (gemm_ab_bias's panel kernel, where the engine
// runs eval_layer_f32) and chunks nothing, so a fault in the engine's
// fused layer, its panel tiling or its argmax shows as a mismatch
// against it.

#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "metrics/confusion.hpp"
#include "nn/mlp.hpp"

namespace baffle {

/// The logits, one row per row of `x`.
Matrix oracle_logits(const Mlp& model, const Matrix& x);

/// Index of each row's first maximum.
std::vector<std::size_t> oracle_argmax_rows(const Matrix& m);

/// The class `model` predicts for each row of `x`.
std::vector<std::size_t> oracle_predict(const Mlp& model, const Matrix& x);

/// As above for the model with flat parameters `params` (Mlp layout).
std::vector<std::size_t> oracle_predict(const MlpConfig& arch,
                                        std::span<const float> params,
                                        const Matrix& x);

/// The confusion matrix of the oracle's predictions on `data`.
ConfusionMatrix oracle_confusion(const Mlp& model, const Dataset& data);

}  // namespace baffle
