//===- tests/PageArrayTest.cpp - Growable arrays on shared pages ------------===//
//
// Unit tests of support/PageArray.h, the array behind the sequential
// engine's per-state stores: contents survive growth across the switch
// from malloc to a mapping at HugeBlockBytes, moves, swaps, clears and
// destruction leave both sides usable, and every zeroed block (a rebuilt
// hash index, a bitstate array) reads as zero.
//
//===----------------------------------------------------------------------===//

#include "support/PageArray.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

using namespace rocker;

namespace {

/// Elements of \p T that fill \p Blocks mapped-size blocks.
template <typename T> size_t elemsFor(size_t Blocks) {
  return Blocks * HugeBlockBytes / sizeof(T);
}

/// A value that differs from its neighbours and from zero.
uint64_t pattern(size_t I) { return I * 0x9e3779b97f4a7c15ull + 1; }

} // namespace

TEST(PageArray, PushBackAcrossTheMappedSwitchKeepsContents) {
  PageArray<uint64_t> A;
  const size_t N = elemsFor<uint64_t>(3);
  size_t Grows = 0;
  for (size_t I = 0; I != N; ++I) {
    size_t Cap = A.capacity();
    A.push_back(pattern(I));
    Grows += A.capacity() != Cap;
  }
  ASSERT_EQ(A.size(), N);
  EXPECT_GE(A.capacity() * sizeof(uint64_t), HugeBlockBytes);
  EXPECT_GT(Grows, 10u); // Through realloc, the switch, then mremap.
  for (size_t I = 0; I != N; ++I)
    ASSERT_EQ(A[I], pattern(I)) << I;
}

TEST(PageArray, AppendAcrossTheMappedSwitchKeepsContents) {
  PageArray<char> A;
  std::string Chunk;
  for (int I = 0; I != 1000; ++I)
    Chunk.push_back(static_cast<char>('a' + I % 26));
  std::string Expect;
  while (Expect.size() < 2 * HugeBlockBytes + 12345) {
    A.append(Chunk.data(), Chunk.size());
    Expect += Chunk;
    Chunk.pop_back(); // Vary the lengths.
    if (Chunk.empty())
      Chunk = "xyz";
  }
  A.append(Chunk.data(), 0);
  ASSERT_EQ(A.size(), Expect.size());
  EXPECT_EQ(std::string(A.data(), A.size()), Expect);
}

TEST(PageArray, PushBackOfOwnElementSurvivesGrowth) {
  PageArray<uint64_t> A;
  A.push_back(7);
  while (A.size() != A.capacity())
    A.push_back(A[0]);
  A.push_back(A[0]); // Grows while reading its own first element.
  for (uint64_t V : A)
    ASSERT_EQ(V, 7u);
}

TEST(PageArray, MoveSwapClearAndDestroy) {
  for (size_t N : {size_t{10}, elemsFor<uint32_t>(2)}) {
    PageArray<uint32_t> A;
    for (size_t I = 0; I != N; ++I)
      A.push_back(static_cast<uint32_t>(I));

    PageArray<uint32_t> B(std::move(A));
    EXPECT_EQ(A.size(), 0u);
    EXPECT_EQ(A.data(), nullptr);
    ASSERT_EQ(B.size(), N);
    EXPECT_EQ(B[N - 1], N - 1);
    A.push_back(42); // A moved-from array is an empty one.
    EXPECT_EQ(A.size(), 1u);

    A.swap(B);
    ASSERT_EQ(A.size(), N);
    ASSERT_EQ(B.size(), 1u);
    EXPECT_EQ(B[0], 42u);
    EXPECT_EQ(A[N / 2], N / 2);

    B = std::move(A); // Frees B's old block.
    ASSERT_EQ(B.size(), N);
    EXPECT_EQ(A.size(), 0u);

    size_t Cap = B.capacity();
    B.clear();
    EXPECT_TRUE(B.empty());
    EXPECT_EQ(B.capacity(), Cap);
    B.push_back(5);
    EXPECT_EQ(B[0], 5u);
  } // Both arrays are destroyed here, small and mapped.
}

TEST(PageArray, ResizeAndReserve) {
  PageArray<uint32_t> A;
  A.reserve(100);
  EXPECT_EQ(A.capacity(), 100u);
  EXPECT_TRUE(A.empty());
  for (uint32_t I = 0; I != 100; ++I)
    A.push_back(I + 1);
  // New elements are zero even where the block held data before.
  A.clear();
  A.resize(elemsFor<uint32_t>(1) + 3);
  for (uint32_t V : A)
    ASSERT_EQ(V, 0u);
  A.resize(2);
  EXPECT_EQ(A.size(), 2u);
}

TEST(PageArray, IndexGrowthIsZeroFilled) {
  // The sequential tables rebuild their index at twice the size with
  // assignZeroed: the fresh block must read as zero below and above the
  // mapped switch, whatever the old block held.
  PageArray<uint32_t, /*HugePages=*/true> Index;
  for (size_t Slots = 64; Slots <= elemsFor<uint32_t>(4); Slots *= 4) {
    Index.assignZeroed(Slots);
    ASSERT_EQ(Index.size(), Slots);
    for (size_t I = 0; I != Slots; ++I)
      ASSERT_EQ(Index[I], 0u) << Slots << " @" << I;
    for (size_t I = 0; I < Slots; I += 7)
      Index[I] = static_cast<uint32_t>(I + 1);
  }
  Index.assignZeroed(0);
  EXPECT_TRUE(Index.empty());
  EXPECT_EQ(Index.data(), nullptr);
}

TEST(PageArray, ZeroedAllocOnBothSidesOfTheSwitch) {
  for (size_t Bytes : {size_t{4096}, HugeBlockBytes, 3 * HugeBlockBytes}) {
    for (bool Huge : {false, true}) {
      auto *P = static_cast<unsigned char *>(zeroedAlloc(Bytes, Huge));
      for (size_t I = 0; I < Bytes; I += 4093)
        ASSERT_EQ(P[I], 0u);
      P[Bytes - 1] = 1;
      zeroedFree(P, Bytes);
    }
  }
}
