// Property-based suites (parameterised gtest) over algebraic invariants of
// the tensor kernels, autograd, and geometry utilities. Each property is
// checked across a sweep of random shapes/seeds.
#include <cmath>
#include <ostream>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "tensor/tensor.h"
#include "vision/anchors.h"
#include "vision/box.h"

namespace yollo {
namespace {

// ---------- elementwise algebra across random shapes ------------------------

struct ShapeCase {
  Shape a;
  Shape b;  // broadcast-compatible with a
  uint64_t seed;
};

// Prints the case by value ("a2x3x4_b3x4_seed3"). Without it gtest dumps the
// struct's bytes, which include the vectors' heap addresses, so the names
// ctest discovers would change with every build.
void PrintTo(const ShapeCase& c, std::ostream* os) {
  auto dims = [os](const Shape& s) {
    for (size_t i = 0; i < s.size(); ++i) *os << (i ? "x" : "") << s[i];
  };
  *os << "a";
  dims(c.a);
  *os << "_b";
  dims(c.b);
  *os << "_seed" << c.seed;
}

class ElementwiseAlgebra : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(ElementwiseAlgebra, CommutativityAndDistributivity) {
  const ShapeCase& cfg = GetParam();
  Rng rng(cfg.seed);
  const Tensor a = Tensor::randn(cfg.a, rng);
  const Tensor b = Tensor::randn(cfg.b, rng);
  const Tensor c = Tensor::randn(cfg.b, rng);

  EXPECT_TRUE(allclose(add(a, b), add(b, a), 1e-5f, 1e-6f));
  EXPECT_TRUE(allclose(mul(a, b), mul(b, a), 1e-5f, 1e-6f));
  // a * (b + c) == a*b + a*c
  EXPECT_TRUE(allclose(mul(a, add(b, c)), add(mul(a, b), mul(a, c)), 1e-4f,
                       1e-5f));
  // (a - b) + b == broadcast(a)
  const Shape out_shape = broadcast_shape(cfg.a, cfg.b);
  EXPECT_TRUE(allclose(add(sub(a, b), b), a.broadcast_to(out_shape), 1e-4f,
                       1e-5f));
}

TEST_P(ElementwiseAlgebra, ReduceToShapeIsAdjointOfBroadcast) {
  // <broadcast(a), g> == <a, reduce_to_shape(g)>.
  const ShapeCase& cfg = GetParam();
  Rng rng(cfg.seed + 1);
  const Shape out_shape = broadcast_shape(cfg.a, cfg.b);
  const Tensor a = Tensor::randn(cfg.b, rng);
  const Tensor g = Tensor::randn(out_shape, rng);
  const Tensor ab = a.broadcast_to(out_shape);
  const Tensor ga = reduce_to_shape(g, cfg.b);
  double lhs = 0.0, rhs = 0.0;
  for (int64_t i = 0; i < ab.numel(); ++i) lhs += ab[i] * g[i];
  for (int64_t i = 0; i < a.numel(); ++i) rhs += a[i] * ga[i];
  EXPECT_NEAR(lhs, rhs, 1e-2 * std::max(1.0, std::fabs(lhs)));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ElementwiseAlgebra,
    ::testing::Values(ShapeCase{{4}, {4}, 1}, ShapeCase{{3, 4}, {4}, 2},
                      ShapeCase{{2, 3, 4}, {3, 4}, 3},
                      ShapeCase{{2, 3, 4}, {1, 4}, 4},
                      ShapeCase{{5, 1, 4}, {5, 2, 1}, 5},
                      ShapeCase{{2, 2, 2, 2}, {2, 1, 2}, 6}));

// ---------- reductions and softmax -------------------------------------------

class ReductionProperty : public ::testing::TestWithParam<int> {};

TEST_P(ReductionProperty, SumOverAxesEqualsTotalSum) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const Tensor t = Tensor::randn({3, 4, 5}, rng);
  const float total = sum(t).item();
  EXPECT_NEAR(sum(sum(sum(t, 0), 0), 0).item(), total, 1e-3f);
  EXPECT_NEAR(sum(sum(sum(t, 2), 1), 0).item(), total, 1e-3f);
  // mean * numel == sum
  EXPECT_NEAR(mean(t).item() * static_cast<float>(t.numel()), total, 1e-3f);
}

TEST_P(ReductionProperty, SoftmaxIsShiftInvariantDistribution) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 100);
  const Tensor t = Tensor::randn({4, 7}, rng, 0.0f, 3.0f);
  const Tensor s = softmax(t, 1);
  const Tensor shifted = softmax(add_scalar(t, 42.0f), 1);
  EXPECT_TRUE(allclose(s, shifted, 1e-4f, 1e-6f));
  const Tensor rows = sum(s, 1);
  for (int64_t r = 0; r < 4; ++r) EXPECT_NEAR(rows[r], 1.0f, 1e-5f);
  EXPECT_GE(min_value(s), 0.0f);
  // argmax is preserved by softmax.
  for (int64_t r = 0; r < 4; ++r) {
    EXPECT_EQ(argmax(t, 1)[r], argmax(s, 1)[r]);
  }
}

TEST_P(ReductionProperty, MatmulDistributesOverAddition) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 200);
  const Tensor a = Tensor::randn({4, 6}, rng);
  const Tensor b = Tensor::randn({6, 3}, rng);
  const Tensor c = Tensor::randn({6, 3}, rng);
  EXPECT_TRUE(allclose(matmul(a, add(b, c)),
                       add(matmul(a, b), matmul(a, c)), 1e-3f, 1e-4f));
  // (A B)^T == B^T A^T
  EXPECT_TRUE(allclose(matmul(a, b).transpose(0, 1),
                       matmul(b.transpose(0, 1), a.transpose(0, 1)), 1e-3f,
                       1e-4f));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReductionProperty, ::testing::Range(1, 7));

// ---------- autograd linearity / sum rules ------------------------------------

class AutogradProperty : public ::testing::TestWithParam<int> {};

TEST_P(AutogradProperty, GradientOfSumIsOnes) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 300);
  ag::Variable x = ag::Variable::param(Tensor::randn({3, 5}, rng));
  ag::sum(x).backward();
  EXPECT_TRUE(allclose(x.grad(), Tensor::ones({3, 5})));
}

TEST_P(AutogradProperty, BackwardIsLinearInSeedScaling) {
  // grad of (c * f) == c * grad of f.
  Rng rng(static_cast<uint64_t>(GetParam()) + 400);
  const Tensor init = Tensor::randn({4, 4}, rng);
  auto grad_of = [&](float scale) {
    ag::Variable x = ag::Variable::param(init.clone());
    ag::Variable y =
        ag::mul_scalar(ag::sum(ag::mul(ag::tanh(x), x)), scale);
    y.backward();
    return x.grad().clone();
  };
  const Tensor g1 = grad_of(1.0f);
  const Tensor g3 = grad_of(3.0f);
  EXPECT_TRUE(allclose(mul_scalar(g1, 3.0f), g3, 1e-4f, 1e-5f));
}

TEST_P(AutogradProperty, DetachBlocksGradient) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 500);
  ag::Variable x = ag::Variable::param(Tensor::randn({3}, rng));
  ag::Variable y = ag::sum(ag::mul(x.detach(), x.detach()));
  EXPECT_FALSE(y.requires_grad());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AutogradProperty, ::testing::Range(1, 6));

// ---------- box geometry invariants ---------------------------------------------

class BoxProperty : public ::testing::TestWithParam<int> {};

TEST_P(BoxProperty, IouTriangleOfContainment) {
  // Shrinking a box towards its centre monotonically decreases IoU with the
  // original.
  Rng rng(static_cast<uint64_t>(GetParam()) + 600);
  const vision::Box base{rng.uniform(0, 40), rng.uniform(0, 40),
                         rng.uniform(10, 30), rng.uniform(10, 30)};
  float prev = 1.0f;
  for (float shrink = 1.0f; shrink >= 0.2f; shrink -= 0.1f) {
    const vision::Box inner = vision::Box::from_center(
        base.cx(), base.cy(), base.w * shrink, base.h * shrink);
    const float overlap = vision::iou(base, inner);
    EXPECT_LE(overlap, prev + 1e-5f);
    prev = overlap;
  }
}

TEST_P(BoxProperty, EncodeDecodeIsInverseForRandomPairs) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 700);
  for (int i = 0; i < 50; ++i) {
    const vision::Box anchor = vision::Box::from_center(
        rng.uniform(5, 70), rng.uniform(5, 40), rng.uniform(6, 25),
        rng.uniform(6, 25));
    const vision::Box target = vision::Box::from_center(
        rng.uniform(5, 70), rng.uniform(5, 40), rng.uniform(4, 30),
        rng.uniform(4, 30));
    const vision::Box round =
        vision::decode_delta(anchor, vision::encode_delta(anchor, target));
    EXPECT_GT(vision::iou(round, target), 0.99f);
  }
}

TEST_P(BoxProperty, NmsOutputIsConflictFree) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 800);
  std::vector<vision::Box> boxes;
  std::vector<float> scores;
  for (int i = 0; i < 40; ++i) {
    boxes.push_back({rng.uniform(0, 50), rng.uniform(0, 30),
                     rng.uniform(5, 20), rng.uniform(5, 20)});
    scores.push_back(rng.uniform());
  }
  const float threshold = 0.3f;
  const auto keep = vision::nms(boxes, scores, threshold);
  for (size_t i = 0; i < keep.size(); ++i) {
    for (size_t j = i + 1; j < keep.size(); ++j) {
      EXPECT_LE(vision::iou(boxes[static_cast<size_t>(keep[i])],
                            boxes[static_cast<size_t>(keep[j])]),
                threshold + 1e-5f);
    }
  }
  // Every suppressed box conflicts with some kept box.
  for (size_t b = 0; b < boxes.size(); ++b) {
    if (std::find(keep.begin(), keep.end(), static_cast<int64_t>(b)) !=
        keep.end()) {
      continue;
    }
    bool conflicted = false;
    for (int64_t k : keep) {
      conflicted = conflicted ||
                   vision::iou(boxes[b], boxes[static_cast<size_t>(k)]) >
                       threshold;
    }
    EXPECT_TRUE(conflicted) << "box " << b << " suppressed without cause";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoxProperty, ::testing::Range(1, 8));

}  // namespace
}  // namespace yollo
