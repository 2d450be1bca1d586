#include "common/topk.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"

namespace vaq {
namespace {

TEST(TopKHeapTest, KeepsKSmallest) {
  TopKHeap heap(3);
  for (float d : {5.f, 1.f, 4.f, 2.f, 3.f}) {
    heap.Push(d, static_cast<int64_t>(d));
  }
  const auto result = heap.TakeSorted();
  ASSERT_EQ(result.size(), 3u);
  EXPECT_FLOAT_EQ(result[0].distance, 1.f);
  EXPECT_FLOAT_EQ(result[1].distance, 2.f);
  EXPECT_FLOAT_EQ(result[2].distance, 3.f);
}

TEST(TopKHeapTest, ThresholdInfiniteUntilFull) {
  TopKHeap heap(2);
  EXPECT_GT(heap.Threshold(), 1e30f);
  heap.Push(1.f, 0);
  EXPECT_GT(heap.Threshold(), 1e30f);
  heap.Push(2.f, 1);
  EXPECT_FLOAT_EQ(heap.Threshold(), 2.f);
}

TEST(TopKHeapTest, ThresholdShrinks) {
  TopKHeap heap(2);
  heap.Push(10.f, 0);
  heap.Push(20.f, 1);
  EXPECT_FLOAT_EQ(heap.Threshold(), 20.f);
  heap.Push(5.f, 2);
  EXPECT_FLOAT_EQ(heap.Threshold(), 10.f);
}

TEST(TopKHeapTest, RejectsWorseCandidates) {
  TopKHeap heap(1);
  EXPECT_TRUE(heap.Push(1.f, 0));
  EXPECT_FALSE(heap.Push(2.f, 1));
  EXPECT_FALSE(heap.Push(1.f, 2));  // equal does not improve
  EXPECT_TRUE(heap.Push(0.5f, 3));
}

TEST(TopKHeapTest, ExactTieAtTheKthPlaceKeepsTheSmallerIdInEitherOrder) {
  // The k smallest (distance, id) pairs, whatever order they arrive in.
  TopKHeap first(1);
  EXPECT_TRUE(first.Push(1.f, 5));
  EXPECT_TRUE(first.Push(1.f, 3));
  EXPECT_FALSE(first.Push(1.f, 4));
  TopKHeap second(1);
  EXPECT_TRUE(second.Push(1.f, 3));
  EXPECT_FALSE(second.Push(1.f, 5));
  for (TopKHeap* heap : {&first, &second}) {
    const auto result = heap->TakeSorted();
    ASSERT_EQ(result.size(), 1u);
    EXPECT_EQ(result[0].id, 3);
    EXPECT_EQ(result[0].distance, 1.f);
  }
}

TEST(TopKHeapTest, FewerItemsThanK) {
  TopKHeap heap(10);
  heap.Push(2.f, 0);
  heap.Push(1.f, 1);
  const auto result = heap.TakeSorted();
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].id, 1);
}

TEST(TopKHeapTest, TiesBrokenById) {
  TopKHeap heap(2);
  heap.Push(1.f, 5);
  heap.Push(1.f, 3);
  heap.Push(1.f, 9);
  const auto result = heap.TakeSorted();
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].id, 3);
  EXPECT_EQ(result[1].id, 5);
}

TEST(TopKHeapTest, MatchesSortOnRandomInput) {
  Rng rng(77);
  std::vector<Neighbor> all;
  TopKHeap heap(25);
  for (int i = 0; i < 1000; ++i) {
    const float d = rng.NextFloat();
    all.push_back({d, i});
    heap.Push(d, i);
  }
  std::sort(all.begin(), all.end());
  all.resize(25);
  const auto result = heap.TakeSorted();
  ASSERT_EQ(result.size(), 25u);
  for (size_t i = 0; i < 25; ++i) {
    EXPECT_EQ(result[i].id, all[i].id) << i;
  }
}

TEST(NeighborTest, OrderingByDistanceThenId) {
  const Neighbor a{1.f, 2};
  const Neighbor b{1.f, 3};
  const Neighbor c{2.f, 1};
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(b < c);
  EXPECT_TRUE(a == Neighbor({1.f, 2}));
}

}  // namespace
}  // namespace vaq
