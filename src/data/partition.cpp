#include "data/partition.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace baffle {

std::vector<Dataset> dirichlet_partition(const Dataset& data,
                                         std::size_t num_clients,
                                         double alpha, Rng& rng) {
  if (num_clients == 0) {
    throw std::invalid_argument("dirichlet_partition: num_clients == 0");
  }
  std::vector<std::vector<std::size_t>> rows(num_clients);

  // Group sample indices per class, then deal each class out with its
  // own Dirichlet draw.
  std::vector<std::vector<std::size_t>> by_class(data.num_classes());
  for (std::size_t i = 0; i < data.size(); ++i) {
    by_class[static_cast<std::size_t>(data.y(i))].push_back(i);
  }
  for (auto& indices : by_class) {
    if (indices.empty()) continue;
    const auto proportions = rng.dirichlet(num_clients, alpha);
    // Shuffle so the assignment is exchangeable within the class.
    rng.shuffle(indices);
    // Largest-remainder allocation of |indices| samples to clients.
    std::vector<std::size_t> quota(num_clients, 0);
    std::vector<std::pair<double, std::size_t>> remainders;
    std::size_t assigned = 0;
    for (std::size_t c = 0; c < num_clients; ++c) {
      const double exact =
          proportions[c] * static_cast<double>(indices.size());
      quota[c] = static_cast<std::size_t>(exact);
      assigned += quota[c];
      remainders.emplace_back(exact - static_cast<double>(quota[c]), c);
    }
    std::sort(remainders.begin(), remainders.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (std::size_t i = 0; assigned < indices.size(); ++i, ++assigned) {
      quota[remainders[i % num_clients].second]++;
    }
    std::size_t pos = 0;
    for (std::size_t c = 0; c < num_clients; ++c) {
      for (std::size_t k = 0; k < quota[c]; ++k) {
        rows[c].push_back(indices[pos++]);
      }
    }
  }
  std::vector<Dataset> clients;
  clients.reserve(num_clients);
  for (const auto& r : rows) clients.push_back(data.subset(r));
  return clients;
}

std::vector<Dataset> iid_partition(const Dataset& data,
                                   std::size_t num_clients, Rng& rng) {
  if (num_clients == 0) {
    throw std::invalid_argument("iid_partition: num_clients == 0");
  }
  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  std::vector<std::vector<std::size_t>> rows(num_clients);
  for (std::size_t i = 0; i < order.size(); ++i) {
    rows[i % num_clients].push_back(order[i]);
  }
  std::vector<Dataset> clients;
  clients.reserve(num_clients);
  for (const auto& r : rows) clients.push_back(data.subset(r));
  return clients;
}

ClientServerSplit split_client_server(const Dataset& data,
                                      double server_fraction, Rng& rng) {
  if (!(server_fraction >= 0.0 && server_fraction < 1.0)) {
    throw std::invalid_argument(
        "split_client_server: server_fraction out of [0,1)");
  }
  auto [server, clients] = data.split(server_fraction, rng);
  return ClientServerSplit{std::move(clients), std::move(server)};
}

}  // namespace baffle
