// Tests for the contract layer (util/contracts.hpp) and its adoption
// at the library's configuration and shape boundaries. ContractViolation
// derives from std::invalid_argument, so these tests also pin down that
// existing catch sites keep working.

#include "util/contracts.hpp"

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/feedback_loop.hpp"
#include "fl/server.hpp"
#include "metrics/confusion.hpp"
#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"

namespace baffle {
namespace {

TEST(Contracts, CheckPassesOnTrueCondition) {
  EXPECT_NO_THROW(BAFFLE_CHECK(1 + 1 == 2, "arithmetic holds"));
}

TEST(Contracts, CheckThrowsContractViolationWithContext) {
  try {
    BAFFLE_CHECK(2 + 2 == 5, "arithmetic must hold");
    FAIL() << "BAFFLE_CHECK did not throw";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("arithmetic must hold"), std::string::npos) << what;
    EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos) << what;
    EXPECT_NE(what.find("contracts_test.cpp"), std::string::npos) << what;
  }
}

TEST(Contracts, ViolationIsAnInvalidArgument) {
  // Existing call sites catch std::invalid_argument; the contract layer
  // must stay compatible with them.
  EXPECT_THROW(BAFFLE_CHECK(false, "always fires"), std::invalid_argument);
}

TEST(Contracts, DcheckIsInertWhenChecksAreOff) {
#if defined(BAFFLE_CHECKS) && BAFFLE_CHECKS
  EXPECT_THROW(BAFFLE_DCHECK(false, "live in checked builds"),
               ContractViolation);
  EXPECT_THROW(BAFFLE_DCHECK_BOUNDS(3, 3), ContractViolation);
#else
  // In default builds the macros compile to nothing — the condition
  // must not even be evaluated.
  bool evaluated = false;
  BAFFLE_DCHECK(
      [&] {
        evaluated = true;
        return false;
      }(),
      "must not be evaluated");
  EXPECT_FALSE(evaluated);
#endif
}

// -- configuration-time contracts ------------------------------------

FlConfig small_fl_config() {
  FlConfig config;
  config.total_clients = 10;
  config.clients_per_round = 4;
  return config;
}

TEST(Contracts, FlConfigAcceptsSaneValues) {
  EXPECT_NO_THROW(validate_fl_config(small_fl_config()));
}

TEST(Contracts, FlConfigRejectsRoundLargerThanPopulation) {
  FlConfig config = small_fl_config();
  config.clients_per_round = 11;  // n > N
  EXPECT_THROW(validate_fl_config(config), ContractViolation);
}

TEST(Contracts, FlConfigRejectsEmptyRound) {
  FlConfig config = small_fl_config();
  config.clients_per_round = 0;
  EXPECT_THROW(validate_fl_config(config), ContractViolation);
}

TEST(Contracts, FlConfigRejectsNonPositiveGlobalLr) {
  FlConfig config = small_fl_config();
  config.global_lr = 0.0;
  EXPECT_THROW(validate_fl_config(config), ContractViolation);
}

TEST(Contracts, FlConfigRejectsDegenerateFixedPoint) {
  FlConfig config = small_fl_config();
  config.secure_agg_frac_bits = 64;
  EXPECT_THROW(validate_fl_config(config), ContractViolation);
}

FeedbackConfig small_feedback_config() {
  FeedbackConfig config;
  config.quorum = 3;
  return config;
}

TEST(Contracts, FeedbackConfigAcceptsReachableQuorum) {
  // q = n: a full round of client validators can reject on its own.
  FeedbackConfig config = small_feedback_config();
  config.mode = DefenseMode::kClientsOnly;
  config.quorum = 4;
  EXPECT_NO_THROW(validate_feedback_config(config, /*clients_per_round=*/4));
}

TEST(Contracts, FeedbackConfigRejectsUnreachableQuorum) {
  // q > n (+ server): no round could ever gather enough votes, so every
  // backdoored model would be accepted by default (paper footnote 1
  // treats short rounds as accepts). This must fail loudly up front.
  FeedbackConfig config = small_feedback_config();
  config.mode = DefenseMode::kClientsOnly;
  config.quorum = 5;
  EXPECT_THROW(validate_feedback_config(config, /*clients_per_round=*/4),
               ContractViolation);
  config.mode = DefenseMode::kClientsAndServer;  // one extra voter
  EXPECT_NO_THROW(validate_feedback_config(config, /*clients_per_round=*/4));
}

TEST(Contracts, FeedbackConfigRejectsZeroQuorum) {
  FeedbackConfig config = small_feedback_config();
  config.quorum = 0;
  EXPECT_THROW(validate_feedback_config(config, /*clients_per_round=*/4),
               ContractViolation);
}

TEST(Contracts, FeedbackConfigRejectsDegenerateLookback) {
  // ℓ < 2 cannot produce the ℓ variation points + LOF neighbourhood the
  // validator needs (k = ⌈ℓ/2⌉ with at least one reference neighbour).
  FeedbackConfig config = small_feedback_config();
  config.validator.lookback = 0;
  EXPECT_THROW(validate_feedback_config(config, /*clients_per_round=*/4),
               ContractViolation);
  config.validator.lookback = 1;
  EXPECT_THROW(validate_feedback_config(config, /*clients_per_round=*/4),
               ContractViolation);
  // A window shorter than min_variations (6 by default) never holds the
  // min_variations + 1 models the defense waits for.
  config.validator.lookback = 5;
  EXPECT_THROW(validate_feedback_config(config, /*clients_per_round=*/4),
               ContractViolation);
  config.validator.lookback = 6;
  EXPECT_NO_THROW(validate_feedback_config(config, /*clients_per_round=*/4));
}

TEST(Contracts, FeedbackConfigRejectsNonPositiveTauMargin) {
  FeedbackConfig config = small_feedback_config();
  config.validator.tau_margin = 0.0;
  EXPECT_THROW(validate_feedback_config(config, /*clients_per_round=*/4),
               ContractViolation);
}

// -- shape contracts --------------------------------------------------

TEST(Contracts, GemmRejectsMismatchedInnerDimension) {
  Matrix a(2, 3), b(4, 2), out(2, 2);  // k mismatch: 3 vs 4
  EXPECT_THROW(gemm_ab(a, b, out), ContractViolation);
}

TEST(Contracts, GemmRejectsMismatchedOutputShape) {
  Matrix a(2, 3), b(3, 2), out(2, 5);
  EXPECT_THROW(gemm_ab(a, b, out), ContractViolation);
}

TEST(Contracts, ConfusionMatrixRejectsOutOfRangeLabels) {
  ConfusionMatrix cm(3);
  EXPECT_NO_THROW(cm.record(0, 2));
  EXPECT_THROW(cm.record(3, 0), ContractViolation);
  EXPECT_THROW(cm.record(-1, 0), ContractViolation);
  EXPECT_THROW(cm.record(0, 3), ContractViolation);
}

}  // namespace
}  // namespace baffle
