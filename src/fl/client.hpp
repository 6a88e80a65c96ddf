#pragma once
// FL client: owns a private shard and produces local-training updates.

#include "data/dataset.hpp"
#include "fl/update.hpp"
#include "nn/train.hpp"

namespace baffle {

class FlClient {
 public:
  FlClient(std::size_t id, Dataset data)
      : id_(id), data_(std::move(data)) {}

  std::size_t id() const { return id_; }
  const Dataset& data() const { return data_; }

  /// Trains a copy of the global model on the local shard for the
  /// configured number of epochs and returns the update U = L - G
  /// (train_update: the copy is a leased model, so a warm call allocates
  /// only the update). A client with no data returns a zero update.
  ParamVec compute_update(const Mlp& global, const TrainConfig& config,
                          Rng& rng) const;

 private:
  std::size_t id_;
  Dataset data_;
};

/// Round-level source of client updates. The honest implementation
/// trains locally; the attack module substitutes poisoned updates for
/// adversary-controlled ids.
///
/// Thread-safety contract: the server's round loop and the client
/// actors call update_for concurrently for the round's contributors
/// (each call gets its own Rng; train_update leases its local model and
/// train_sgd its scratch), so implementations must not mutate shared
/// state in update_for — confine per-call state to locals or atomics.
/// arm()-style round configuration happens strictly between rounds and
/// needs no synchronization.
class UpdateProvider {
 public:
  virtual ~UpdateProvider() = default;
  /// Produces the update client `client_id` submits for this round.
  virtual ParamVec update_for(std::size_t client_id, const Mlp& global,
                              Rng& rng) = 0;
  /// Nothing in the library calls or overrides this form; it is kept
  /// because e2ebench's TracingProvider overrides it. The default
  /// ignores the workspace and forwards to the 3-arg form.
  virtual ParamVec update_for(std::size_t client_id, const Mlp& global,
                              Rng& rng, TrainWorkspace& ws) {
    (void)ws;
    return update_for(client_id, global, rng);
  }
};

class HonestUpdateProvider : public UpdateProvider {
 public:
  HonestUpdateProvider(const std::vector<FlClient>* clients,
                       TrainConfig config)
      : clients_(clients), config_(config) {}

  ParamVec update_for(std::size_t client_id, const Mlp& global,
                      Rng& rng) override;

 private:
  const std::vector<FlClient>* clients_;
  TrainConfig config_;
};

}  // namespace baffle
