#include "tidlist/tidlist_codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <set>
#include <vector>

#include "common/random.h"
#include "common/status.h"

namespace demon {
namespace {

// ---------------------------------------------------------------------------
// Helpers.

TidList RandomSortedList(Rng* rng, uint32_t universe, size_t max_size) {
  std::set<uint32_t> values;
  const size_t n = rng->NextUint64(max_size + 1);
  for (size_t i = 0; i < n; ++i) {
    values.insert(static_cast<uint32_t>(rng->NextUint64(universe)));
  }
  return TidList(values.begin(), values.end());
}

TidList Validated(const EncodedTidList& encoded, uint32_t universe) {
  TidList out;
  const Status status = DecodeTidList(encoded.View(universe), &out);
  EXPECT_TRUE(status.ok()) << status;
  return out;
}

// ---------------------------------------------------------------------------
// Round trips.

TEST(TidListCodecTest, EdgeListsRoundTripUnderEveryEncoding) {
  const uint32_t universe = 200;
  const std::vector<TidList> cases = {
      TidList{},                           // empty
      TidList{0},                          // singleton at the low edge
      TidList{universe - 1},               // singleton at the high edge
      TidList{0, universe - 1},            // extreme gap
      TidList{5, 6, 7, 8, 9},              // consecutive run
      [] {                                 // fully dense
        TidList all;
        for (uint32_t i = 0; i < 200; ++i) all.push_back(i);
        return all;
      }(),
  };
  for (const TidList& list : cases) {
    for (const TidEncoding encoding :
         {TidEncoding::kRaw, TidEncoding::kDelta}) {
      const EncodedTidList encoded = EncodeTidListAs(encoding, list);
      EXPECT_EQ(encoded.bytes.size(),
                EncodedTidListBytes(encoding, list));
      // Trusting decode and validating decode agree with the input.
      TidList materialized;
      MaterializeInto(encoded.View(universe), &materialized);
      EXPECT_EQ(materialized, list) << TidEncodingName(encoding);
      EXPECT_EQ(Validated(encoded, universe), list) << TidEncodingName(encoding);
    }
  }
}

TEST(TidListCodecTest, RandomizedRoundTripsAreBitIdentical) {
  Rng rng(4242);
  for (int round = 0; round < 200; ++round) {
    const uint32_t universe = 1 + static_cast<uint32_t>(rng.NextUint64(5000));
    const TidList list = RandomSortedList(&rng, universe, 400);
    for (const TidEncoding encoding :
         {TidEncoding::kRaw, TidEncoding::kDelta}) {
      const EncodedTidList encoded = EncodeTidListAs(encoding, list);
      EXPECT_EQ(Validated(encoded, universe), list);
      // Re-encoding the decoded list reproduces the bytes exactly — the
      // property the spill files and checkpoint determinism rest on.
      const EncodedTidList again =
          EncodeTidListAs(encoding, Validated(encoded, universe));
      EXPECT_EQ(again.bytes, encoded.bytes);
    }
    // The auto-selected encoding is the smaller of the two.
    const EncodedTidList best = EncodeTidList(list);
    for (const TidEncoding encoding :
         {TidEncoding::kRaw, TidEncoding::kDelta}) {
      EXPECT_LE(best.bytes.size(),
                EncodedTidListBytes(encoding, list));
    }
  }
}

TEST(TidListCodecTest, AdversarialGapsNearUint32MaxRoundTrip) {
  // Varint gaps of up to 32 bits and offsets at the top of the u32 range.
  const uint32_t universe = UINT32_MAX;
  const TidList list = {0,          1,          127,        128,
                        0x0FFFFFFF, 0xFFFFFFF0, 0xFFFFFFFE};
  for (const TidEncoding encoding : {TidEncoding::kRaw, TidEncoding::kDelta}) {
    const EncodedTidList encoded = EncodeTidListAs(encoding, list);
    EXPECT_EQ(Validated(encoded, universe), list) << TidEncodingName(encoding);
  }
  EXPECT_EQ(Validated(EncodeTidList(list), universe), list);
}

TEST(TidListCodecTest, DensityHeuristicPicksExpectedEncodings) {
  const uint32_t universe = 64000;
  // 3 tids over 64000: delta (3 bytes) beats raw (12).
  EXPECT_EQ(EncodeTidList({10, 20, 30}).encoding, TidEncoding::kDelta);
  // Every other transaction: 32000 tids. Raw = 128000B, delta = 32000B.
  TidList dense;
  for (uint32_t i = 0; i < universe; i += 2) dense.push_back(i);
  EXPECT_EQ(EncodeTidList(dense).encoding, TidEncoding::kDelta);
  // Consecutive small offsets: delta gaps of 1 are 1 byte each.
  TidList run;
  for (uint32_t i = 0; i < 100; ++i) run.push_back(i);
  EXPECT_EQ(EncodeTidList(run).encoding, TidEncoding::kDelta);
  // Gaps wider than 2^21 need 4-byte varints: delta ties raw, and ties
  // prefer raw. The empty list ties at 0 bytes and stays raw as well.
  EXPECT_EQ(EncodeTidList({1u << 22, 2u << 22, 3u << 22}).encoding,
            TidEncoding::kRaw);
  EXPECT_EQ(EncodeTidList({}).encoding, TidEncoding::kRaw);
}

// ---------------------------------------------------------------------------
// Corruption: every malformed extent yields DataLoss, never UB or garbage.

TEST(TidListCodecTest, TruncatedExtentsAreDataLoss) {
  Rng rng(99);
  const uint32_t universe = 3000;
  for (const TidEncoding encoding :
       {TidEncoding::kRaw, TidEncoding::kDelta}) {
    const TidList list = RandomSortedList(&rng, universe, 300);
    if (list.empty()) continue;
    EncodedTidList encoded = EncodeTidListAs(encoding, list);
    ASSERT_FALSE(encoded.bytes.empty());
    encoded.bytes.pop_back();
    TidList out;
    EXPECT_EQ(DecodeTidList(encoded.View(universe), &out).code(),
              StatusCode::kDataLoss)
        << TidEncodingName(encoding);
  }
}

TEST(TidListCodecTest, CardinalityMismatchesAreDataLoss) {
  const uint32_t universe = 500;
  const TidList list = {3, 9, 77, 401};
  for (const TidEncoding encoding :
       {TidEncoding::kRaw, TidEncoding::kDelta}) {
    EncodedTidList encoded = EncodeTidListAs(encoding, list);
    encoded.num_tids += 1;
    TidList out;
    EXPECT_EQ(DecodeTidList(encoded.View(universe), &out).code(),
              StatusCode::kDataLoss)
        << TidEncodingName(encoding);
  }
  // A cardinality larger than the universe is structurally impossible.
  EncodedTidList encoded = EncodeTidListAs(TidEncoding::kRaw, list);
  encoded.num_tids = universe + 1;
  TidList out;
  EXPECT_EQ(DecodeTidList(encoded.View(universe), &out).code(),
            StatusCode::kDataLoss);
}

TEST(TidListCodecTest, OutOfOrderAndOutOfRangeBytesAreDataLoss) {
  const uint32_t universe = 100;
  TidList out;
  {
    // Raw with a duplicate (not strictly increasing).
    const TidList bad = {5, 5, 9};
    EncodedTidList encoded;
    encoded.encoding = TidEncoding::kRaw;
    encoded.num_tids = 3;
    encoded.bytes.resize(bad.size() * sizeof(uint32_t));
    std::memcpy(encoded.bytes.data(), bad.data(), encoded.bytes.size());
    EXPECT_EQ(DecodeTidList(encoded.View(universe), &out).code(),
              StatusCode::kDataLoss);
  }
  {
    // Raw with an offset beyond the universe.
    const TidList bad = {5, 200};
    EncodedTidList encoded;
    encoded.encoding = TidEncoding::kRaw;
    encoded.num_tids = 2;
    encoded.bytes.resize(bad.size() * sizeof(uint32_t));
    std::memcpy(encoded.bytes.data(), bad.data(), encoded.bytes.size());
    EXPECT_EQ(DecodeTidList(encoded.View(universe), &out).code(),
              StatusCode::kDataLoss);
  }
  {
    // Delta whose gaps overrun the universe.
    EncodedTidList encoded = EncodeTidListAs(TidEncoding::kDelta, {90});
    encoded.bytes.push_back(90);  // second value = 180 > universe
    encoded.num_tids = 2;
    EXPECT_EQ(DecodeTidList(encoded.View(universe), &out).code(),
              StatusCode::kDataLoss);
  }
  {
    // Delta with a zero gap (duplicate value).
    EncodedTidList encoded = EncodeTidListAs(TidEncoding::kDelta, {7});
    encoded.bytes.push_back(0);
    encoded.num_tids = 2;
    EXPECT_EQ(DecodeTidList(encoded.View(universe), &out).code(),
              StatusCode::kDataLoss);
  }
  {
    // Delta with trailing garbage after the announced cardinality.
    EncodedTidList encoded = EncodeTidListAs(TidEncoding::kDelta, {7, 9});
    encoded.bytes.push_back(3);
    EXPECT_EQ(DecodeTidList(encoded.View(universe), &out).code(),
              StatusCode::kDataLoss);
  }
}

TEST(TidListCodecTest, RetiredAndUnknownEncodingValuesAreDataLoss) {
  // Value 2 was the dense bitmap encoding. These bytes are a well-formed
  // bitmap of {1, 5} over a 64-offset universe, so only the encoding value
  // itself can make the decoder refuse them.
  const uint8_t bitmap[8] = {0x22, 0, 0, 0, 0, 0, 0, 0};
  for (const uint8_t value : {uint8_t{2}, uint8_t{3}, uint8_t{255}}) {
    const TidListView view{static_cast<TidEncoding>(value), 2, 64, bitmap,
                           sizeof(bitmap)};
    TidList out;
    EXPECT_EQ(DecodeTidList(view, &out).code(), StatusCode::kDataLoss)
        << "encoding value " << int{value};
  }
}

// ---------------------------------------------------------------------------
// Cross-encoding kernel agreement: all 4 pairs match std::set_intersection.

TEST(TidListCodecTest, AllKernelPairsMatchSetIntersection) {
  Rng rng(777);
  const TidEncoding encodings[] = {TidEncoding::kRaw, TidEncoding::kDelta};
  for (int round = 0; round < 60; ++round) {
    const uint32_t universe = 1 + static_cast<uint32_t>(rng.NextUint64(2000));
    const TidList a = RandomSortedList(&rng, universe, 250);
    const TidList b = RandomSortedList(&rng, universe, 250);
    TidList expected;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(expected));
    for (const TidEncoding ea : encodings) {
      const EncodedTidList enc_a = EncodeTidListAs(ea, a);
      for (const TidEncoding eb : encodings) {
        const EncodedTidList enc_b = EncodeTidListAs(eb, b);
        TidList out;
        IntersectInto(enc_a.View(universe), enc_b.View(universe), &out);
        EXPECT_EQ(out, expected)
            << TidEncodingName(ea) << " x " << TidEncodingName(eb);
        // The raw-left fold overload agrees as well.
        IntersectInto(a, enc_b.View(universe), &out);
        EXPECT_EQ(out, expected);
      }
    }
  }
}

// CountMarked is ECUT's probe: the values of a list whose bit is set in a
// prefix bitset, streamed no further than the largest marked offset. It
// must equal the set intersection for both encodings, and garbage bytes
// must never read a word past that offset's.
TEST(TidListCodecTest, CountMarkedMatchesSetIntersection) {
  Rng rng(4242);
  for (int round = 0; round < 60; ++round) {
    const uint32_t universe = 1 + static_cast<uint32_t>(rng.NextUint64(1100));
    const TidList marked = RandomSortedList(&rng, universe, universe / 3 + 1);
    const TidList list = RandomSortedList(&rng, universe, universe / 2 + 1);
    if (marked.empty()) continue;
    const uint32_t limit = marked.back();
    std::vector<uint64_t> bits(limit / 64 + 1, 0);
    for (const uint32_t v : marked) bits[v >> 6] |= uint64_t{1} << (v & 63);
    TidList expected;
    std::set_intersection(marked.begin(), marked.end(), list.begin(),
                          list.end(), std::back_inserter(expected));
    for (const TidEncoding encoding :
         {TidEncoding::kRaw, TidEncoding::kDelta}) {
      const EncodedTidList encoded = EncodeTidListAs(encoding, list);
      EXPECT_EQ(CountMarked(encoded.View(universe), bits.data(), limit),
                expected.size())
          << TidEncodingName(encoding) << " round " << round;
    }
    // Random bytes under the delta encoding: any count, no stray read.
    std::vector<uint8_t> garbage(1 + rng.NextUint64(64));
    for (uint8_t& byte : garbage) {
      byte = static_cast<uint8_t>(rng.NextUint64(256));
    }
    const TidListView view{TidEncoding::kDelta, universe, universe,
                           garbage.data(), garbage.size()};
    EXPECT_LE(CountMarked(view, bits.data(), limit), universe);
  }
}

}  // namespace
}  // namespace demon
