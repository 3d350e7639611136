#include <gtest/gtest.h>

#include "cts/buflib.h"
#include "netlist/library.h"

namespace contango {
namespace {

TEST(BufLib, EightSmallDominatesOneLarge) {
  // The paper's Table I observation.
  const Technology tech = ispd09_technology();
  const CompositeElectrical small8 = tech.electrical(CompositeBuffer{0, 8});
  const CompositeElectrical large1 = tech.electrical(CompositeBuffer{1, 1});
  EXPECT_TRUE(dominates(small8, large1));
  EXPECT_FALSE(dominates(large1, small8));
}

TEST(BufLib, DominanceIsIrreflexiveAndAsymmetric) {
  const Technology tech = ispd09_technology();
  const CompositeElectrical a = tech.electrical(CompositeBuffer{0, 4});
  EXPECT_FALSE(dominates(a, a));
  const CompositeElectrical b = tech.electrical(CompositeBuffer{0, 8});
  // Within one cell type, more copies = stronger but more cap: incomparable.
  EXPECT_FALSE(dominates(a, b));
  EXPECT_FALSE(dominates(b, a));
}

TEST(BufLib, NondominatedFrontExcludesDominatedLargeCells) {
  const Technology tech = ispd09_technology();
  const int max_count = 64;
  const auto front = nondominated_composites(tech, max_count);
  ASSERT_FALSE(front.empty());
  for (const CompositeBuffer& b : front) {
    // k large inverters are dominated by 8k small ones whenever 8k fits in
    // the count budget; only over-budget large configs may survive.
    if (b.inverter_type == 1) {
      EXPECT_GT(8 * b.count, max_count)
          << "dominated large config survived the filter";
    }
  }
  // Every small-cell count is mutually non-dominated, so all survive.
  int small_configs = 0;
  for (const CompositeBuffer& b : front) small_configs += (b.inverter_type == 0);
  EXPECT_EQ(small_configs, max_count);
  // Sorted weakest (highest resistance) first.
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_GE(tech.electrical(front[i - 1]).output_res,
              tech.electrical(front[i]).output_res);
  }
}

TEST(BufLib, BestUnitIsEightSmall) {
  const Technology tech = ispd09_technology();
  const CompositeBuffer unit = best_unit_composite(tech);
  EXPECT_EQ(unit.inverter_type, 0);
  EXPECT_EQ(unit.count, 8);
}

TEST(BufLib, SlewFreeCapScalesWithStrength) {
  const Technology tech = ispd09_technology();
  const Ff cap8 = slew_free_cap(tech, CompositeBuffer{0, 8});
  const Ff cap16 = slew_free_cap(tech, CompositeBuffer{0, 16});
  EXPECT_GT(cap8, 0.0);
  EXPECT_GT(cap16, cap8);  // stronger driver can take more load
}

TEST(BufLib, SlewFreeCapRespectsMargin) {
  const Technology tech = ispd09_technology();
  const Ff strict = slew_free_cap(tech, CompositeBuffer{0, 8}, 0.5);
  const Ff loose = slew_free_cap(tech, CompositeBuffer{0, 8}, 1.0);
  EXPECT_LT(strict, loose);
}

/// Property sweep: within one type, the electrical view scales exactly
/// linearly / inverse-linearly with the parallel count.
class CompositeScaling : public ::testing::TestWithParam<int> {};

TEST_P(CompositeScaling, ParallelCompositionMath) {
  const Technology tech = ispd09_technology();
  const int k = GetParam();
  const CompositeElectrical one = tech.electrical(CompositeBuffer{0, 1});
  const CompositeElectrical many = tech.electrical(CompositeBuffer{0, k});
  EXPECT_DOUBLE_EQ(many.input_cap, k * one.input_cap);
  EXPECT_DOUBLE_EQ(many.output_cap, k * one.output_cap);
  EXPECT_DOUBLE_EQ(many.output_res, one.output_res / k);
}

INSTANTIATE_TEST_SUITE_P(Counts, CompositeScaling,
                         ::testing::Values(1, 2, 4, 8, 16, 24, 32, 64));

}  // namespace
}  // namespace contango
