// Executable loop-suite tests: every kernel's SVE-emulation path is
// checked against its scalar reference, parameterized over kind, size
// and seed.

#include <gtest/gtest.h>

#include "ookami/loops/kernels.hpp"

namespace ookami::loops {
namespace {

class LoopKindTest : public ::testing::TestWithParam<LoopKind> {};

TEST_P(LoopKindTest, SveMatchesScalarWithinUlps) {
  const LoopKind kind = GetParam();
  // pow composes exp(y log x): allow its wider envelope; everything
  // else must be a handful of ulps or exact.
  const double bound = kind == LoopKind::kPow ? 2048.0
                       : kind == LoopKind::kSin || kind == LoopKind::kExp ? 8.0
                                                                          : 1.0;
  EXPECT_LE(max_ulp_scalar_vs_sve(kind), bound) << loop_name(kind);
}

TEST_P(LoopKindTest, OddSizesExerciseTailPredicates) {
  const LoopKind kind = GetParam();
  const double bound = kind == LoopKind::kPow ? 2048.0 : 8.0;
  for (std::size_t n : {1ul, 7ul, 8ul, 9ul, 63ul, 100ul}) {
    EXPECT_LE(max_ulp_scalar_vs_sve(kind, n, 13), bound)
        << loop_name(kind) << " n=" << n;
  }
}

TEST_P(LoopKindTest, SpecIsSelfConsistent) {
  const KernelSpec s = kernel_spec(GetParam());
  EXPECT_EQ(s.kind, GetParam());
  // Every kernel moves data.
  EXPECT_GT(s.loads + s.stores + s.gather + s.scatter + s.pred_stores, 0.0);
  // Math kernels have exactly one call per element.
  if (s.math != MathFn::kNone) {
    EXPECT_EQ(s.math_calls, 1.0);
  }
  // Windowed flag only on the short variants.
  const bool is_short =
      GetParam() == LoopKind::kShortGather || GetParam() == LoopKind::kShortScatter;
  EXPECT_EQ(s.windowed_128, is_short);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, LoopKindTest, ::testing::ValuesIn(all_loop_kinds()),
                         [](const auto& param_info) {
                           auto n = loop_name(param_info.param);
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(LoopData, ShortVariantsUse128ByteWindows) {
  const LoopData d = make_loop_data(LoopKind::kShortGather, 256);
  for (std::size_t i = 0; i < d.index.size(); ++i) {
    EXPECT_EQ(i / 16, d.index[i] / 16) << "16 doubles = 128 bytes";
  }
}

TEST(LoopData, GatherUsesFullPermutation) {
  const LoopData d = make_loop_data(LoopKind::kGather, 256);
  bool crosses_window = false;
  for (std::size_t i = 0; i < d.index.size(); ++i) {
    if (i / 16 != d.index[i] / 16) crosses_window = true;
  }
  EXPECT_TRUE(crosses_window);
}

TEST(LoopData, L1SizingRule) {
  // x and y together fill the 64 KB A64FX L1.
  EXPECT_EQ(kL1Elems * sizeof(double) * 2, 64u * 1024u);
}

TEST(LoopSuite, FigureOrderingsAreStable) {
  const auto fig1 = fig1_loop_kinds();
  const auto fig2 = fig2_loop_kinds();
  EXPECT_EQ(fig1.size(), 6u);
  EXPECT_EQ(fig2.size(), 5u);
  EXPECT_EQ(all_loop_kinds().size(), 11u);
  EXPECT_EQ(loop_name(fig1.front()), "simple");
  EXPECT_EQ(loop_name(fig2.back()), "pow");
}

}  // namespace
}  // namespace ookami::loops
