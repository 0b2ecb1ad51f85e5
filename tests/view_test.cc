/// \file view_test.cc
/// \brief Tests for ViewMap (hash and dense modes) and SortView storage.

#include "storage/view.h"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace lmfao {
namespace {

TEST(ViewMapTest, UpsertCreatesZeroedPayload) {
  ViewMap map(2, 3);
  double* p = map.Upsert(TupleKey({1, 2}));
  EXPECT_DOUBLE_EQ(p[0], 0.0);
  EXPECT_DOUBLE_EQ(p[2], 0.0);
  EXPECT_EQ(map.size(), 1u);
}

TEST(ViewMapTest, UpsertIsIdempotentOnKeys) {
  ViewMap map(1, 1);
  map.Upsert(TupleKey({5}))[0] += 1.0;
  map.Upsert(TupleKey({5}))[0] += 2.0;
  EXPECT_EQ(map.size(), 1u);
  EXPECT_DOUBLE_EQ(map.Lookup(TupleKey({5}))[0], 3.0);
}

TEST(ViewMapTest, LookupMissingReturnsNull) {
  ViewMap map(1, 1);
  EXPECT_EQ(map.Lookup(TupleKey({7})), nullptr);
}

TEST(ViewMapTest, EmptyKeySupported) {
  ViewMap map(0, 2);
  map.Upsert(TupleKey())[1] = 9.0;
  ASSERT_NE(map.Lookup(TupleKey()), nullptr);
  EXPECT_DOUBLE_EQ(map.Lookup(TupleKey())[1], 9.0);
}

TEST(ViewMapTest, GrowthPreservesEntries) {
  ViewMap map(2, 2);
  Rng rng(3);
  for (int64_t i = 0; i < 5000; ++i) {
    double* p = map.Upsert(TupleKey({i, i * 3}));
    p[0] = static_cast<double>(i);
    p[1] = static_cast<double>(-i);
  }
  EXPECT_EQ(map.size(), 5000u);
  for (int64_t i = 0; i < 5000; ++i) {
    const double* p = map.Lookup(TupleKey({i, i * 3}));
    ASSERT_NE(p, nullptr) << i;
    EXPECT_DOUBLE_EQ(p[0], static_cast<double>(i));
    EXPECT_DOUBLE_EQ(p[1], static_cast<double>(-i));
  }
}

TEST(ViewMapTest, ForEachVisitsAllOnce) {
  ViewMap map(1, 1);
  for (int64_t i = 0; i < 100; ++i) map.Upsert(TupleKey({i}))[0] = 1.0;
  int visits = 0;
  double total = 0.0;
  map.ForEach([&](const TupleKey&, const double* p) {
    ++visits;
    total += p[0];
  });
  EXPECT_EQ(visits, 100);
  EXPECT_DOUBLE_EQ(total, 100.0);
}

TEST(ViewMapTest, MergeAddSumsPayloads) {
  ViewMap a(1, 2);
  ViewMap b(1, 2);
  a.Upsert(TupleKey({1}))[0] = 1.0;
  a.Upsert(TupleKey({2}))[1] = 2.0;
  b.Upsert(TupleKey({2}))[1] = 5.0;
  b.Upsert(TupleKey({3}))[0] = 7.0;
  a.MergeAdd(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a.Lookup(TupleKey({2}))[1], 7.0);
  EXPECT_DOUBLE_EQ(a.Lookup(TupleKey({3}))[0], 7.0);
  EXPECT_DOUBLE_EQ(a.Lookup(TupleKey({1}))[0], 1.0);
}

TEST(ViewMapTest, ReserveEliminatesRehashes) {
  ViewMap map(1, 1);
  map.Reserve(5000);
  const size_t capacity = map.capacity();
  EXPECT_GE(capacity, 5000u);
  // Pointers returned by Upsert stay valid across the reserved inserts
  // (no rehash happens).
  double* first = map.Upsert(TupleKey({0}));
  for (int64_t i = 1; i < 5000; ++i) map.Upsert(TupleKey({i}))[0] = 1.0;
  EXPECT_EQ(map.capacity(), capacity);
  first[0] = 42.0;
  EXPECT_DOUBLE_EQ(map.Lookup(TupleKey({0}))[0], 42.0);
  EXPECT_EQ(map.size(), 5000u);
}

TEST(ViewMapTest, ReserveOnPopulatedMapKeepsEntries) {
  ViewMap map(1, 2);
  for (int64_t i = 0; i < 100; ++i) map.Upsert(TupleKey({i}))[1] = i;
  map.Reserve(10000);
  EXPECT_EQ(map.size(), 100u);
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_NE(map.Lookup(TupleKey({i})), nullptr);
    EXPECT_DOUBLE_EQ(map.Lookup(TupleKey({i}))[1], static_cast<double>(i));
  }
}

TEST(ViewMapTest, ReserveSmallerThanCapacityIsNoOp) {
  ViewMap map(1, 1);
  map.Reserve(4096);
  const size_t capacity = map.capacity();
  map.Reserve(10);
  EXPECT_EQ(map.capacity(), capacity);
}

TEST(ViewMapTest, NegativeKeysWork) {
  ViewMap map(2, 1);
  map.Upsert(TupleKey({-5, 3}))[0] = 1.0;
  EXPECT_NE(map.Lookup(TupleKey({-5, 3})), nullptr);
  EXPECT_EQ(map.Lookup(TupleKey({5, 3})), nullptr);
}

TEST(SortViewTest, FromMapSortsKeys) {
  ViewMap map(2, 1);
  map.Upsert(TupleKey({2, 1}))[0] = 21.0;
  map.Upsert(TupleKey({1, 9}))[0] = 19.0;
  map.Upsert(TupleKey({1, 2}))[0] = 12.0;
  SortView view = SortView::FromMap(map);
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view.key(0), TupleKey({1, 2}));
  EXPECT_EQ(view.key(1), TupleKey({1, 9}));
  EXPECT_EQ(view.key(2), TupleKey({2, 1}));
  EXPECT_DOUBLE_EQ(view.payload_at(0, 0), 12.0);
}

TEST(SortViewTest, FindBinarySearch) {
  ViewMap map(1, 1);
  for (int64_t i = 0; i < 100; i += 2) map.Upsert(TupleKey({i}))[0] = i;
  SortView view = SortView::FromMap(map);
  const size_t hit = view.Find(TupleKey({42}));
  ASSERT_NE(hit, SortView::kNotFound);
  EXPECT_DOUBLE_EQ(view.payload_at(hit, 0), 42.0);
  EXPECT_EQ(view.Find(TupleKey({43})), SortView::kNotFound);
}

TEST(SortViewTest, RawColumnsMatchAccessors) {
  ViewMap map(2, 2);
  map.Upsert(TupleKey({3, 7}))[0] = 1.0;
  map.Upsert(TupleKey({1, 9}))[1] = 2.0;
  SortView view = SortView::FromMap(map);
  ASSERT_EQ(view.size(), 2u);
  ASSERT_EQ(view.key_columns().size(), 2u);
  // Each component is one contiguous sorted column.
  EXPECT_EQ(view.col(0)[0], 1);
  EXPECT_EQ(view.col(0)[1], 3);
  EXPECT_EQ(view.col(1)[0], 9);
  EXPECT_EQ(view.col(1)[1], 7);
  EXPECT_EQ(view.col(0)[0], view.key(0)[0]);
  EXPECT_EQ(view.col(1)[0], view.key(0)[1]);
  // Default freeze layout is columnar: slot s is one contiguous column of
  // size() doubles. Key {1,9} sorts first (its slot-1 value was 2.0).
  EXPECT_EQ(view.payload_matrix().layout(), PayloadLayout::kColumnar);
  EXPECT_EQ(view.pcol(0), view.payload_matrix().data());
  EXPECT_EQ(view.pcol(1), view.payload_matrix().data() + view.size());
  EXPECT_DOUBLE_EQ(view.pcol(1)[0], 2.0);
  EXPECT_DOUBLE_EQ(view.pcol(0)[1], 1.0);
  EXPECT_DOUBLE_EQ(view.pcol(0)[0], 0.0);
  EXPECT_DOUBLE_EQ(view.pcol(1)[1], 0.0);
  // Packed accounting: 2 entries x 2 components x 8 bytes of keys, and
  // 2 entries x 2 slots x 8 bytes of payloads.
  EXPECT_EQ(view.KeyBytes(), 2u * 2u * sizeof(int64_t));
  EXPECT_EQ(view.PayloadBytes(), 2u * 2u * sizeof(double));
  EXPECT_EQ(view.MemoryUsage(), view.KeyBytes() + view.PayloadBytes());
}

TEST(SortViewTest, RowMajorFreezeMatchesColumnar) {
  ViewMap map(1, 3);
  for (int64_t i = 0; i < 20; ++i) {
    double* p = map.Upsert(TupleKey({19 - i}));
    for (int s = 0; s < 3; ++s) p[s] = static_cast<double>(i * 10 + s);
  }
  const SortView columnar = SortView::FromMap(map, PayloadLayout::kColumnar);
  const SortView row_major = SortView::FromMap(map, PayloadLayout::kRowMajor);
  ASSERT_EQ(columnar.size(), row_major.size());
  EXPECT_EQ(row_major.payload_matrix().layout(), PayloadLayout::kRowMajor);
  // Same logical matrix through payload_at; row-major rows are contiguous.
  for (size_t i = 0; i < columnar.size(); ++i) {
    EXPECT_EQ(columnar.key(i), row_major.key(i));
    const double* row = row_major.payload_matrix().row(i);
    for (int s = 0; s < 3; ++s) {
      EXPECT_DOUBLE_EQ(columnar.payload_at(i, s), row_major.payload_at(i, s));
      EXPECT_DOUBLE_EQ(row[s], row_major.payload_at(i, s));
    }
  }
  EXPECT_EQ(columnar.PayloadBytes(), row_major.PayloadBytes());
}

TEST(SortViewTest, LowerBound) {
  ViewMap map(1, 1);
  map.Upsert(TupleKey({10}));
  map.Upsert(TupleKey({20}));
  SortView view = SortView::FromMap(map);
  EXPECT_EQ(view.LowerBound(TupleKey({5})), 0u);
  EXPECT_EQ(view.LowerBound(TupleKey({15})), 1u);
  EXPECT_EQ(view.LowerBound(TupleKey({25})), 2u);
}

/// The copy a group reads when its trie order differs from the view's
/// canonical key order: component c is canonical component perm[c], sorted
/// in that order, payloads in the requested layout. Keys (2-3 components
/// over small domains, so the leading permuted component ties often) and
/// payloads come from a seeded generator; every source layout and copy
/// layout is checked against a std::map of the permuted keys.
TEST(SortViewTest, Permuted) {
  // The two-entry case spelled out: canonical (x, y) read as (y, x).
  ViewMap pair(2, 1);
  pair.Upsert(TupleKey({1, 20}))[0] = 1.0;
  pair.Upsert(TupleKey({2, 10}))[0] = 2.0;
  const SortView swapped =
      SortView::FromMap(pair).Permuted({1, 0}, PayloadLayout::kColumnar);
  ASSERT_EQ(swapped.size(), 2u);
  ASSERT_EQ(swapped.key_arity(), 2);
  EXPECT_EQ(swapped.col(0)[0], 10);
  EXPECT_EQ(swapped.col(0)[1], 20);
  EXPECT_EQ(swapped.col(1)[0], 2);
  EXPECT_EQ(swapped.col(1)[1], 1);
  EXPECT_DOUBLE_EQ(swapped.pcol(0)[0], 2.0);
  EXPECT_DOUBLE_EQ(swapped.pcol(0)[1], 1.0);

  const std::vector<std::vector<int>> perms = {
      {1, 0}, {0, 1}, {2, 0, 1}, {1, 2, 0}, {2, 1, 0}, {0, 2, 1}};
  const PayloadLayout layouts[] = {PayloadLayout::kRowMajor,
                                   PayloadLayout::kColumnar};
  Rng rng(23);
  for (const std::vector<int>& perm : perms) {
    const int arity = static_cast<int>(perm.size());
    const int width = 3;
    ViewMap map(arity, width);
    for (int i = 0; i < 200; ++i) {
      TupleKey key(arity);
      // Component perm[0] leads the copy; a domain of 4 makes it tie.
      for (int c = 0; c < arity; ++c) {
        const bool lead = c == perm[0];
        key.set(c, rng.UniformInt(lead ? 0 : -3, lead ? 3 : 9));
      }
      double* p = map.Upsert(key);
      for (int s = 0; s < width; ++s) p[s] += rng.UniformInt(-50, 50);
    }
    std::map<std::vector<int64_t>, std::vector<double>> model;
    map.ForEach([&](const TupleKey& key, const double* p) {
      std::vector<int64_t> permuted;
      for (int c = 0; c < arity; ++c) permuted.push_back(key[perm[c]]);
      model[permuted] = std::vector<double>(p, p + width);
    });
    for (PayloadLayout from : layouts) {
      const SortView stored = SortView::FromMap(map, from);
      for (PayloadLayout to : layouts) {
        SCOPED_TRACE(::testing::Message()
                     << "arity " << arity << " perm[0] " << perm[0]
                     << " from " << static_cast<int>(from) << " to "
                     << static_cast<int>(to));
        const SortView copy = stored.Permuted(perm, to);
        EXPECT_EQ(copy.payload_matrix().layout(), to);
        EXPECT_EQ(copy.key_arity(), arity);
        EXPECT_EQ(copy.width(), width);
        ASSERT_EQ(copy.size(), model.size());
        size_t i = 0;
        for (const auto& [key, payload] : model) {
          for (int c = 0; c < arity; ++c) {
            EXPECT_EQ(copy.col(c)[i], key[static_cast<size_t>(c)]);
          }
          for (int s = 0; s < width; ++s) {
            EXPECT_EQ(copy.payload_at(i, s), payload[static_cast<size_t>(s)]);
          }
          ++i;
        }
      }
    }
  }
}

/// Property: ViewMap agrees with a reference std::map accumulation under a
/// random workload.
TEST(ViewMapPropertyTest, MatchesReferenceAccumulation) {
  ViewMap map(2, 1);
  std::map<std::pair<int64_t, int64_t>, double> reference;
  Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    const int64_t a = rng.UniformInt(0, 50);
    const int64_t b = rng.UniformInt(0, 50);
    const double v = rng.UniformDouble();
    map.Upsert(TupleKey({a, b}))[0] += v;
    reference[{a, b}] += v;
  }
  EXPECT_EQ(map.size(), reference.size());
  for (const auto& [key, value] : reference) {
    const double* p = map.Lookup(TupleKey({key.first, key.second}));
    ASSERT_NE(p, nullptr);
    EXPECT_NEAR(p[0], value, 1e-9);
  }
}

/// Reference model of a ViewMap: key components → payload.
using RefView = std::map<std::vector<int64_t>, std::vector<double>>;

TupleKey ToTupleKey(const std::vector<int64_t>& vals) {
  TupleKey key(static_cast<int>(vals.size()));
  for (size_t c = 0; c < vals.size(); ++c) {
    key.set(static_cast<int>(c), vals[c]);
  }
  return key;
}

/// Checks `map` against `ref` through both read paths: Lookup per reference
/// key, and slot_key/slot_payload per occupied slot.
void ExpectMapMatches(const ViewMap& map, const RefView& ref,
                      const std::string& where) {
  ASSERT_EQ(map.size(), ref.size()) << where;
  const size_t width = static_cast<size_t>(map.width());
  for (const auto& [key, payload] : ref) {
    const double* p = map.Lookup(ToTupleKey(key));
    ASSERT_NE(p, nullptr) << where;
    for (size_t j = 0; j < width; ++j) ASSERT_EQ(p[j], payload[j]) << where;
  }
  size_t occupied = 0;
  for (size_t slot = 0; slot < map.num_slots(); ++slot) {
    if (!map.slot_occupied(slot)) continue;
    ++occupied;
    const std::vector<int64_t> key(map.slot_key(slot),
                                   map.slot_key(slot) + map.key_arity());
    const auto it = ref.find(key);
    ASSERT_NE(it, ref.end()) << where;
    EXPECT_EQ(map.slot_hash(slot),
              HashKeySpan(key.data(), map.key_arity()))
        << where;
    const double* p = map.slot_payload(slot);
    EXPECT_EQ(p, map.Lookup(ToTupleKey(key))) << where;
    for (size_t j = 0; j < width; ++j) ASSERT_EQ(p[j], it->second[j]) << where;
  }
  EXPECT_EQ(occupied, ref.size()) << where;
  // Dense payloads: exactly entries x width doubles are accounted.
  EXPECT_EQ(map.PayloadBytes(), ref.size() * width * sizeof(double)) << where;
}

/// Freezing must give the reference's key order and payloads exactly, in
/// both payload layouts, whether the freeze copies the map or consumes it
/// (a consumed dense map hands its permuted payload buffer over).
void ExpectFrozenMatches(const ViewMap& map, const RefView& ref,
                         const std::string& where) {
  for (PayloadLayout layout :
       {PayloadLayout::kColumnar, PayloadLayout::kRowMajor}) {
    ViewMap consumed = map;
    for (const SortView& view :
         {SortView::FromMap(map, layout),
          SortView::FromMap(std::move(consumed), layout)}) {
      ASSERT_EQ(view.size(), ref.size()) << where;
      EXPECT_EQ(view.payload_matrix().layout(), layout) << where;
      size_t i = 0;
      for (const auto& [key, payload] : ref) {
        EXPECT_EQ(view.key(i), ToTupleKey(key)) << where << " entry " << i;
        for (int j = 0; j < map.width(); ++j) {
          EXPECT_EQ(view.payload_at(i, j), payload[static_cast<size_t>(j)])
              << where << " entry " << i;
        }
        ++i;
      }
    }
    EXPECT_TRUE(consumed.empty()) << where;
  }
}

/// ForEach visits every entry once with its payload; a dense map visits
/// them in key order.
void ExpectForEachMatches(const ViewMap& map, const RefView& ref,
                          const std::string& where) {
  std::vector<std::vector<int64_t>> seen;
  map.ForEach([&](const TupleKey& key, const double* payload) {
    const std::vector<int64_t> k(key.data(), key.data() + key.size());
    const auto it = ref.find(k);
    ASSERT_NE(it, ref.end()) << where;
    for (int j = 0; j < map.width(); ++j) {
      EXPECT_EQ(payload[j], it->second[static_cast<size_t>(j)]) << where;
    }
    seen.push_back(k);
  });
  EXPECT_EQ(seen.size(), ref.size()) << where;
  if (map.dense()) {
    EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end())) << where;
  }
}

/// Differential: random Upsert / Reserve / ShrinkToFit / MergeAdd sequences
/// on a ViewMap against a std::map reference, checked after every rehash
/// (slot-count change) and at the end, plus the Reserve pointer-stability
/// contract. Payload values are small integers, so sums compare exactly.
TEST(ViewMapDifferentialTest, RandomSequencesMatchStdMap) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    const int arity = static_cast<int>(rng.UniformInt(0, 3));
    const int width = static_cast<int>(rng.UniformInt(1, 5));
    const int64_t domain = rng.UniformInt(2, 40);
    ViewMap map(arity, width);
    RefView ref;
    auto random_key = [&] {
      std::vector<int64_t> key(static_cast<size_t>(arity));
      for (int64_t& v : key) v = rng.UniformInt(-domain, domain);
      return key;
    };
    auto upsert = [&](ViewMap* m, RefView* r) {
      const std::vector<int64_t> key = random_key();
      const int j = static_cast<int>(rng.UniformInt(0, width - 1));
      const double v = static_cast<double>(rng.UniformInt(-9, 9));
      m->Upsert(ToTupleKey(key))[j] += v;
      std::vector<double>& payload = (*r)[key];
      payload.resize(static_cast<size_t>(width), 0.0);
      payload[static_cast<size_t>(j)] += v;
    };
    for (int step = 0; step < 400; ++step) {
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      const size_t slots_before = map.num_slots();
      const int op = static_cast<int>(rng.UniformInt(0, 19));
      if (op < 14) {
        upsert(&map, &ref);
      } else if (op < 16) {
        map.Reserve(map.size() + rng.Uniform(300));
      } else if (op < 18) {
        map.ShrinkToFit();
      } else {
        // MergeAdd of a second random map.
        ViewMap other(arity, width);
        RefView other_ref;
        const int n = static_cast<int>(rng.UniformInt(0, 60));
        for (int i = 0; i < n; ++i) upsert(&other, &other_ref);
        map.MergeAdd(other);
        for (const auto& [key, payload] : other_ref) {
          std::vector<double>& dst = ref[key];
          dst.resize(static_cast<size_t>(width), 0.0);
          for (size_t j = 0; j < payload.size(); ++j) dst[j] += payload[j];
        }
      }
      if (map.num_slots() != slots_before) {
        ASSERT_NO_FATAL_FAILURE(ExpectMapMatches(map, ref, where));
      }
    }
    const std::string where = "seed " + std::to_string(seed);
    ASSERT_NO_FATAL_FAILURE(ExpectMapMatches(map, ref, where));
    ASSERT_NO_FATAL_FAILURE(ExpectFrozenMatches(map, ref, where));
    map.ShrinkToFit();
    ASSERT_NO_FATAL_FAILURE(ExpectMapMatches(map, ref, where + " shrunk"));
    ASSERT_NO_FATAL_FAILURE(ExpectFrozenMatches(map, ref, where + " shrunk"));

    // Reserve(size + n) keeps every payload pointer stable across n
    // upserts, new keys included.
    const size_t n = 200;
    map.Reserve(map.size() + n);
    const size_t slots = map.num_slots();
    std::vector<std::pair<std::vector<int64_t>, const double*>> pinned;
    for (size_t i = 0; i < n; ++i) {
      std::vector<int64_t> key = random_key();
      if (arity > 0) key[0] = domain + 1 + static_cast<int64_t>(i);
      const double* p = map.Upsert(ToTupleKey(key));
      pinned.emplace_back(key, p);
      for (const auto& [k, q] : pinned) {
        ASSERT_EQ(map.Lookup(ToTupleKey(k)), q) << where << " upsert " << i;
      }
      if (arity == 0) break;  // Only one key exists.
    }
    EXPECT_EQ(map.num_slots(), slots) << where;
  }
}

/// Differential of the dense (direct-addressed) mode: random upsert,
/// Reserve, MergeAdd and ShrinkToFit sequences over a box with a negative
/// lower corner, through all three upsert entries, against a std::map
/// reference. A few keys land outside the box, so most seeds convert to
/// hash mode in the middle of the sequence, and merges run dense into
/// hash and hash into dense.
TEST(ViewMapDifferentialTest, DenseModeMatchesStdMap) {
  int converted = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed * 7919);
    const int arity = static_cast<int>(rng.UniformInt(0, 3));
    const int width = static_cast<int>(rng.UniformInt(1, 5));
    std::vector<ValueRange> box(static_cast<size_t>(arity));
    for (ValueRange& r : box) {
      r.min = rng.UniformInt(-20, 5);
      r.max = r.min + rng.UniformInt(0, 7);
    }
    ViewMap map(arity, width);
    map.ReserveDense(box, rng.Uniform(40));
    ASSERT_TRUE(map.dense());
    RefView ref;
    // Inside the box, except with probability `outside`.
    auto random_key = [&](double outside) {
      std::vector<int64_t> key(static_cast<size_t>(arity));
      const bool out = rng.UniformDouble() < outside;
      for (size_t c = 0; c < key.size(); ++c) {
        key[c] = rng.UniformInt(box[c].min, box[c].max);
      }
      if (out && arity > 0) {
        const size_t c = rng.Uniform(static_cast<uint64_t>(arity));
        key[c] = rng.Bernoulli(0.5) ? box[c].min - 1 - rng.UniformInt(0, 3)
                                    : box[c].max + 1 + rng.UniformInt(0, 3);
      }
      return key;
    };
    auto upsert = [&](ViewMap* m, RefView* r, double outside) {
      const std::vector<int64_t> key = random_key(outside);
      const int j = static_cast<int>(rng.UniformInt(0, width - 1));
      const double v = static_cast<double>(rng.UniformInt(-9, 9));
      double* p = nullptr;
      switch (rng.Uniform(3)) {
        case 0: p = m->Upsert(ToTupleKey(key)); break;
        case 1: p = m->Upsert(key.data()); break;
        default:
          p = m->UpsertHashed(key.data(), HashKeySpan(key.data(), arity));
      }
      p[j] += v;
      std::vector<double>& payload = (*r)[key];
      payload.resize(static_cast<size_t>(width), 0.0);
      payload[static_cast<size_t>(j)] += v;
    };
    for (int step = 0; step < 400; ++step) {
      const std::string where = "seed " + std::to_string(seed) + " step " +
                                std::to_string(step) +
                                (map.dense() ? " dense" : " hash");
      const bool was_dense = map.dense();
      const int op = static_cast<int>(rng.UniformInt(0, 19));
      if (op < 15) {
        upsert(&map, &ref, 0.005);
      } else if (op < 16) {
        map.Reserve(map.size() + rng.Uniform(100));
      } else if (op < 17) {
        // Hash into this map (dense while every merged key is in the box).
        ViewMap other(arity, width);
        RefView other_ref;
        const int n = static_cast<int>(rng.UniformInt(0, 30));
        for (int i = 0; i < n; ++i) upsert(&other, &other_ref, 0.01);
        ASSERT_FALSE(other.dense());
        map.MergeAdd(other);
        for (const auto& [key, payload] : other_ref) {
          std::vector<double>& dst = ref[key];
          dst.resize(static_cast<size_t>(width), 0.0);
          for (size_t j = 0; j < payload.size(); ++j) dst[j] += payload[j];
        }
      } else if (op < 18) {
        // This map into a hash map holding some keys of its own.
        ViewMap other(arity, width);
        RefView other_ref;
        const int n = static_cast<int>(rng.UniformInt(0, 30));
        for (int i = 0; i < n; ++i) upsert(&other, &other_ref, 0.2);
        other.MergeAdd(map);
        for (const auto& [key, payload] : ref) {
          std::vector<double>& dst = other_ref[key];
          dst.resize(static_cast<size_t>(width), 0.0);
          for (size_t j = 0; j < payload.size(); ++j) dst[j] += payload[j];
        }
        ASSERT_NO_FATAL_FAILURE(
            ExpectMapMatches(other, other_ref, where + " merged into hash"));
      } else {
        ASSERT_NO_FATAL_FAILURE(ExpectMapMatches(map, ref, where));
        ASSERT_NO_FATAL_FAILURE(ExpectForEachMatches(map, ref, where));
      }
      if (was_dense && !map.dense()) {
        ++converted;
        ASSERT_NO_FATAL_FAILURE(
            ExpectMapMatches(map, ref, where + " converted"));
      }
    }
    const std::string where = "seed " + std::to_string(seed);
    ASSERT_NO_FATAL_FAILURE(ExpectMapMatches(map, ref, where));
    ASSERT_NO_FATAL_FAILURE(ExpectForEachMatches(map, ref, where));
    ASSERT_NO_FATAL_FAILURE(ExpectFrozenMatches(map, ref, where));
    map.ShrinkToFit();
    ASSERT_NO_FATAL_FAILURE(ExpectMapMatches(map, ref, where + " shrunk"));
    ASSERT_NO_FATAL_FAILURE(ExpectFrozenMatches(map, ref, where + " shrunk"));
  }
  EXPECT_GT(converted, 6) << "too few seeds left the box";
}

/// A dense map stays dense while every key is in its box, iterates and
/// freezes in key order, and a sparse dense map shrinks into hash mode.
TEST(ViewMapTest, DenseModeAddressesTheBox) {
  ViewMap map(2, 2);
  map.ReserveDense({ValueRange{-3, 1}, ValueRange{10, 12}}, 15);
  ASSERT_TRUE(map.dense());
  EXPECT_EQ(map.num_slots(), 15u);
  const std::vector<std::vector<int64_t>> keys = {
      {1, 12}, {-3, 10}, {0, 11}, {-3, 12}, {1, 10}};
  for (size_t i = 0; i < keys.size(); ++i) {
    map.Upsert(keys[i].data())[1] += static_cast<double>(i + 1);
  }
  EXPECT_TRUE(map.dense());
  EXPECT_EQ(map.size(), keys.size());
  EXPECT_EQ(map.Lookup(TupleKey({2, 10})), nullptr);
  EXPECT_EQ(map.Lookup(TupleKey({0, 9})), nullptr);
  const SortView view = SortView::FromMap(map, PayloadLayout::kRowMajor);
  ASSERT_EQ(view.size(), keys.size());
  EXPECT_EQ(view.key(0), TupleKey({-3, 10}));
  EXPECT_EQ(view.payload_at(0, 1), 2.0);
  EXPECT_EQ(view.key(4), TupleKey({1, 12}));
  EXPECT_EQ(view.payload_at(4, 1), 1.0);
  // ShrinkToFit keeps a box no larger than the hash table the entries
  // would need (15 cells < 16 slots); a one-entry map in a 1000-cell box
  // shrinks into hash mode.
  map.ShrinkToFit();
  EXPECT_TRUE(map.dense());
  ViewMap sparse(1, 1);
  sparse.ReserveDense({ValueRange{0, 999}}, 4);
  sparse.Upsert(TupleKey({500}))[0] = 7.0;
  sparse.ShrinkToFit();
  EXPECT_FALSE(sparse.dense());
  EXPECT_EQ(sparse.num_slots(), 16u);
  ASSERT_NE(sparse.Lookup(TupleKey({500})), nullptr);
  EXPECT_EQ(sparse.Lookup(TupleKey({500}))[0], 7.0);
}

}  // namespace
}  // namespace lmfao
