/// \file view_layout_test.cc
/// \brief Differential property tests of the packed columnar key layout:
/// ViewMap (arity-strided keys + cached hashes) and SortView (SoA key
/// columns) must be observationally equivalent to the straightforward
/// AoS reference semantics — an ordered map keyed by the full key tuple,
/// which is exactly what the pre-packed layout (sorted TupleKey objects)
/// computed. Swept across every arity 0..TupleKey::kMaxArity including the
/// boundary arity 12, with negative key values, plus a pin of the packed
/// key/payload byte accounting.

#include <cmath>
#include <cstdint>
#include <iterator>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "storage/view.h"
#include "util/random.h"

namespace lmfao {
namespace {

using RefKey = std::vector<int64_t>;
/// Lexicographic std::map: iteration order == the old sorted-array order.
using RefModel = std::map<RefKey, std::vector<double>>;

TupleKey ToTupleKey(const RefKey& k) {
  TupleKey key(static_cast<int>(k.size()));
  for (size_t c = 0; c < k.size(); ++c) {
    key.set(static_cast<int>(c), k[c]);
  }
  return key;
}

RefKey RandomKey(int arity, Rng* rng) {
  RefKey key(static_cast<size_t>(arity));
  for (int64_t& v : key) {
    // Small domain forces collisions; negative values exercise the
    // signed-key paths (hashing, comparisons, binary search).
    v = rng->UniformInt(-8, 8);
  }
  return key;
}

/// Checks map against model: size, lookups (hits and misses), ForEach
/// coverage.
void ExpectMapEquals(const ViewMap& map, const RefModel& model, int arity,
                     int width, Rng* rng, double tolerance = 0.0) {
  // Summation order differs between the map and the model (e.g. per-shard
  // accumulation then merge), so payload comparisons allow a relative
  // tolerance where the caller says so.
  auto expect_close = [tolerance](double got, double want) {
    if (tolerance == 0.0) {
      EXPECT_DOUBLE_EQ(got, want);
    } else {
      EXPECT_NEAR(got, want, tolerance * (1.0 + std::fabs(want)));
    }
  };
  ASSERT_EQ(map.size(), model.size());
  for (const auto& [key, payload] : model) {
    const double* p = map.Lookup(ToTupleKey(key));
    ASSERT_NE(p, nullptr);
    for (int j = 0; j < width; ++j) {
      expect_close(p[j], payload[static_cast<size_t>(j)]);
    }
  }
  for (int i = 0; i < 64; ++i) {
    const RefKey probe = RandomKey(arity, rng);
    const double* p = map.Lookup(ToTupleKey(probe));
    EXPECT_EQ(p != nullptr, model.count(probe) > 0);
  }
  size_t visited = 0;
  map.ForEach([&](const TupleKey& k, const double* p) {
    ++visited;
    ASSERT_EQ(k.size(), arity);
    RefKey key(static_cast<size_t>(arity));
    for (int c = 0; c < arity; ++c) key[static_cast<size_t>(c)] = k[c];
    auto it = model.find(key);
    ASSERT_NE(it, model.end());
    for (int j = 0; j < width; ++j) {
      expect_close(p[j], it->second[static_cast<size_t>(j)]);
    }
  });
  EXPECT_EQ(visited, model.size());
}

/// Checks the frozen form against the model: entries in exactly the
/// model's (lexicographic) order, matching payloads, LowerBound agreeing
/// with the reference ordering, and columnar/accessor consistency.
void ExpectSortViewEquals(const SortView& view, const RefModel& model,
                          int arity, int width, Rng* rng) {
  ASSERT_EQ(view.size(), model.size());
  ASSERT_EQ(view.key_arity(), arity);
  size_t i = 0;
  for (const auto& [key, payload] : model) {
    for (int c = 0; c < arity; ++c) {
      EXPECT_EQ(view.col(c)[i], key[static_cast<size_t>(c)]);
      EXPECT_EQ(view.key(i)[c], key[static_cast<size_t>(c)]);
    }
    for (int j = 0; j < width; ++j) {
      // Columnar payload: slot j of entry i via the contiguous column.
      EXPECT_DOUBLE_EQ(view.pcol(j)[i], payload[static_cast<size_t>(j)]);
      EXPECT_DOUBLE_EQ(view.payload_at(i, j),
                       payload[static_cast<size_t>(j)]);
    }
    EXPECT_EQ(view.Find(ToTupleKey(key)), i);
    ++i;
  }
  for (int probe = 0; probe < 64; ++probe) {
    const RefKey key = RandomKey(arity, rng);
    // Reference lower bound: position of the first model key >= key.
    const size_t expected = static_cast<size_t>(
        std::distance(model.begin(), model.lower_bound(key)));
    EXPECT_EQ(view.LowerBound(ToTupleKey(key)), expected);
    EXPECT_EQ(view.Find(ToTupleKey(key)) != SortView::kNotFound,
              model.count(key) > 0);
  }
}

class PackedLayoutTest : public ::testing::TestWithParam<int> {};

/// The packed hash map and its frozen sorted form agree with the reference
/// accumulation under a random upsert workload.
TEST_P(PackedLayoutTest, MatchesReferenceSemantics) {
  const int arity = GetParam();
  const int width = 3;
  Rng rng(1234 + static_cast<uint64_t>(arity));
  ViewMap map(arity, width);
  RefModel model;
  const int ops = arity == 0 ? 100 : 4000;
  for (int i = 0; i < ops; ++i) {
    const RefKey key = RandomKey(arity, &rng);
    auto& ref = model[key];
    ref.resize(static_cast<size_t>(width), 0.0);
    double* p = map.Upsert(ToTupleKey(key));
    for (int j = 0; j < width; ++j) {
      const double v = rng.UniformDouble();
      p[j] += v;
      ref[static_cast<size_t>(j)] += v;
    }
  }
  ExpectMapEquals(map, model, arity, width, &rng);
  const SortView view = SortView::FromMap(map);
  ExpectSortViewEquals(view, model, arity, width, &rng);
}

/// MergeAdd (the domain-parallel combine) agrees with merging the
/// reference models, and the pre-sizing keeps payload pointers stable
/// through the merge.
TEST_P(PackedLayoutTest, MergeAddMatchesReference) {
  const int arity = GetParam();
  const int width = 2;
  Rng rng(99 + static_cast<uint64_t>(arity));
  ViewMap a(arity, width);
  ViewMap b(arity, width);
  RefModel model;
  for (int i = 0; i < 2000; ++i) {
    ViewMap& target = (i % 2 == 0) ? a : b;
    const RefKey key = RandomKey(arity, &rng);
    auto& ref = model[key];
    ref.resize(static_cast<size_t>(width), 0.0);
    double* p = target.Upsert(ToTupleKey(key));
    for (int j = 0; j < width; ++j) {
      const double v = rng.UniformDouble();
      p[j] += v;
      ref[static_cast<size_t>(j)] += v;
    }
  }
  a.MergeAdd(b);
  ExpectMapEquals(a, model, arity, width, &rng, /*tolerance=*/1e-12);
}

INSTANTIATE_TEST_SUITE_P(Arities, PackedLayoutTest,
                         ::testing::Range(0, TupleKey::kMaxArity + 1));

/// Pins the packed byte accounting: a ViewMap slot costs
/// 8·arity (key) + 8 (cached hash) + 1 (occupancy) key-side bytes and
/// 8·width payload bytes; the frozen form costs exactly 8·arity + 8·width
/// per *entry* with zero slack.
TEST(PackedLayoutAccountingTest, ByteAccountingPinned) {
  ViewMap map(3, 2);
  for (int64_t i = 0; i < 5; ++i) {
    map.Upsert(TupleKey({i, -i, i * 7}))[0] = 1.0;
  }
  const size_t slots = map.num_slots();
  EXPECT_EQ(slots, 16u);  // 5 entries fit the initial capacity.
  // Per slot: the packed key, the cached hash and the 4-byte entry index;
  // payloads are dense, per entry.
  EXPECT_EQ(map.KeyBytes(), slots * (3 * sizeof(int64_t) +
                                     sizeof(uint64_t) + sizeof(uint32_t)));
  EXPECT_EQ(map.PayloadBytes(), 5u * 2 * sizeof(double));
  EXPECT_EQ(map.MemoryUsage(), map.KeyBytes() + map.PayloadBytes());

  const SortView view = SortView::FromMap(map);
  EXPECT_EQ(view.KeyBytes(), 5u * 3 * sizeof(int64_t));
  EXPECT_EQ(view.PayloadBytes(), 5u * 2 * sizeof(double));
  EXPECT_EQ(view.MemoryUsage(), view.KeyBytes() + view.PayloadBytes());
}

/// The payload gather (straight row copy or tiled transpose, depending on
/// the destination layout) reproduces the row-major reference exactly for
/// every width 0..16 (the executor-facing range: zero-width matrices are
/// legal even though views pin width >= 1), and the unit-stride SumRange
/// kernel agrees with a strided row-major reference sum over random
/// subranges — including negative and denormal values.
TEST(PayloadMatrixTest, GatherAndRangeSumMatchRowMajorReference) {
  Rng rng(7);
  for (int width = 0; width <= 16; ++width) {
    const size_t n = 137;
    std::vector<double> rows(n * static_cast<size_t>(width));
    for (size_t i = 0; i < rows.size(); ++i) {
      switch (rng.UniformInt(0, 9)) {
        case 0:
          rows[i] = 4.9e-324;  // Smallest denormal.
          break;
        case 1:
          rows[i] = -2.2250738585072014e-308;  // Negative boundary normal.
          break;
        default:
          rows[i] = rng.UniformDouble(-3.0, 3.0);
      }
    }
    for (PayloadLayout layout :
         {PayloadLayout::kRowMajor, PayloadLayout::kColumnar}) {
      PayloadMatrix m(width, n, layout);
      GatherRows(&m, [&rows, width](size_t i) {
        return rows.data() + i * static_cast<size_t>(width);
      });
      EXPECT_EQ(m.bytes(), n * static_cast<size_t>(width) * sizeof(double));
      for (size_t i = 0; i < n; ++i) {
        for (int s = 0; s < width; ++s) {
          EXPECT_EQ(m.at(i, s),
                    rows[i * static_cast<size_t>(width) +
                         static_cast<size_t>(s)]);
        }
      }
      if (layout != PayloadLayout::kColumnar) continue;
      for (int probe = 0; probe < 8 && width > 0; ++probe) {
        const size_t lo = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(n)));
        const size_t hi = lo + static_cast<size_t>(rng.UniformInt(
                                   0, static_cast<int64_t>(n - lo)));
        const int s = static_cast<int>(rng.UniformInt(0, width - 1));
        double reference = 0.0;
        for (size_t i = lo; i < hi; ++i) {
          reference += rows[i * static_cast<size_t>(width) +
                            static_cast<size_t>(s)];
        }
        EXPECT_NEAR(SumRange(m.col(s), lo, hi), reference,
                    1e-12 * (1.0 + std::fabs(reference)));
      }
    }
  }
}

}  // namespace
}  // namespace lmfao
