// §VI-D: communication overhead of shipping the model history to
// validating clients. Reports (a) byte-accurate numbers for this repo's
// simulation models and (b) the paper's own arithmetic re-derived for a
// ResNet18-sized (~10 MB) model: ~200 MB/validator uncompressed, ~20 MB
// with 10x compression, amortizing to ~40 MB per client per 20 rounds
// thanks to history deltas.

#include <cstdio>

#include "bench_common.hpp"
#include "fl/comm.hpp"
#include "net/wire.hpp"
#include "nn/compression.hpp"

using namespace baffle;

namespace {

/// Simulated lossy compression factor from Caldas et al. (federated
/// dropout + quantization), which the paper cites as giving ~10x.
constexpr double kModelCompressionFactor = 10.0;

/// Bytes the transport ships for one history model: the growth of a
/// HistoryDelta frame from zero entries to one.
std::size_t history_model_bytes(const Mlp& model) {
  HistoryDelta one;
  one.entries.push_back({0, model.parameters()});
  return encode_frame(one).size() - encode_frame(HistoryDelta{}).size();
}

void simulate(const char* label, std::size_t model_bytes,
              double compression, CsvWriter& csv) {
  const std::size_t num_clients = 100, per_round = 10, rounds = 200;
  const std::size_t history_len = 21;  // ℓ = 20 -> ℓ+1 models
  CommTracker tracker(num_clients, model_bytes, history_len, compression);
  Rng rng(1);
  const ClientSampler sampler(num_clients, per_round);
  for (std::size_t r = 0; r < rounds; ++r) {
    tracker.record_round(sampler.sample_round(rng), /*defense_active=*/true);
  }
  const auto& s = tracker.stats();
  const double mb = 1024.0 * 1024.0;
  const double per_client_20rounds =
      tracker.history_bytes_per_client() / (static_cast<double>(rounds) / 20.0);
  std::printf(
      "%-28s first-selection history: %8.2f MB | total history/client: "
      "%8.2f MB | per client per 20 rounds: %6.2f MB\n",
      label,
      static_cast<double>(history_len) * model_bytes / compression / mb,
      tracker.history_bytes_per_client() / mb, per_client_20rounds / mb);
  csv.row({label, CsvWriter::num(static_cast<double>(model_bytes)),
           CsvWriter::num(compression),
           CsvWriter::num(per_client_20rounds / mb)});
  (void)s;
}

}  // namespace

int main() {
  print_banner("Communication overhead of the feedback loop",
               "BaFFLe (ICDCS'21), §VI-D");

  // Byte-accurate sizes of this repo's models.
  Rng rng(7);
  Mlp vision(MlpConfig{{32, 64, 10}});
  Mlp femnist(MlpConfig{{48, 96, 62}});
  vision.init(rng);
  femnist.init(rng);
  const std::size_t vision_bytes = history_model_bytes(vision);
  const std::size_t femnist_bytes = history_model_bytes(femnist);
  std::printf("simulation model sizes (exact wire bytes per history "
              "entry):\n");
  std::printf("  vision10  model: %zu params, %zu bytes\n",
              vision.num_params(), vision_bytes);
  std::printf("  femnist62 model: %zu params, %zu bytes\n\n",
              femnist.num_params(), femnist_bytes);

  CsvWriter csv(bench::csv_path("comm"),
                {"config", "model_bytes", "compression",
                 "mb_per_client_per_20_rounds"});

  // Measured compression: top-k sparsification + 8-bit quantization on
  // the actual model parameters (stands in for Caldas et al.'s ~10x).
  const auto compressed = compress_topk(vision.parameters(), 0.07);
  const double measured_ratio = compressed.compression_ratio();
  std::printf("top-k(7%%)+8-bit codec on vision10 params: %.1fx measured\n\n",
              measured_ratio);

  std::printf("history transfer, l=20, 10 of 100 clients/round, 200 rounds:\n");
  simulate("vision10 (exact)", vision_bytes, 1.0, csv);
  simulate("femnist62 (exact)", femnist_bytes, 1.0, csv);
  simulate("vision10, top-k compressed", vision_bytes, measured_ratio, csv);
  const std::size_t resnet18 = 10u * 1024 * 1024;  // paper: ~10 MB/model
  simulate("ResNet18-sized, raw", resnet18, 1.0, csv);
  simulate("ResNet18-sized, 10x compressed", resnet18,
           kModelCompressionFactor, csv);

  std::printf(
      "\npaper shape: ~200 MB/validator raw (21 x ~10 MB), ~20 MB with\n"
      "model compression; selection probability 1/10 and history deltas\n"
      "amortize this to <= ~40 MB per client per 20 rounds. CSV: %s\n",
      bench::csv_path("comm").c_str());
  return 0;
}
