/// \file hash.h
/// \brief Hash utilities and the fixed-arity integer key used by views.
///
/// View keys are tuples of categorical (int64) attribute values. Keys are
/// short (group-by arity rarely exceeds a handful of attributes), so they are
/// stored inline to keep hash-map probing cache-friendly.

#ifndef LMFAO_UTIL_HASH_H_
#define LMFAO_UTIL_HASH_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "util/logging.h"

namespace lmfao {

/// \brief 64-bit finalizer from MurmurHash3; a strong integer mixer.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// \brief Combines a hash with a new value (boost::hash_combine style, 64-bit).
inline uint64_t HashCombine(uint64_t seed, uint64_t value) {
  return seed ^ (Mix64(value) + 0x9e3779b97f4a7c15ULL + (seed << 6) +
                 (seed >> 2));
}

/// \brief Hash of a span of `arity` int64 key components.
///
/// The shared key-hash of the view layer: TupleKey::Hash() and the packed
/// columnar ViewMap (which stores keys as raw arity-sized spans and hashes
/// only the active components) must agree, so both delegate here.
inline uint64_t HashKeySpan(const int64_t* vals, int arity) {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ static_cast<uint64_t>(arity);
  for (int i = 0; i < arity; ++i) {
    h = HashCombine(h, static_cast<uint64_t>(vals[i]));
  }
  return h;
}

/// \brief Inline tuple of up to kMaxArity int64 components.
///
/// Used as the key type of views (group-by values) and of join hash tables.
class TupleKey {
 public:
  static constexpr int kMaxArity = 12;

  TupleKey() : size_(0) { vals_.fill(0); }

  /// Constructs a key of the given arity; components must then be set via
  /// set().
  explicit TupleKey(int size) : size_(size) {
    LMFAO_CHECK_LE(size, kMaxArity);
    vals_.fill(0);
  }

  TupleKey(std::initializer_list<int64_t> vals) : size_(0) {
    vals_.fill(0);
    for (int64_t v : vals) push_back(v);
  }

  int size() const { return size_; }
  bool empty() const { return size_ == 0; }

  int64_t operator[](int i) const { return vals_[i]; }

  /// Raw component span (size() live values).
  const int64_t* data() const { return vals_.data(); }

  void set(int i, int64_t v) { vals_[i] = v; }

  void push_back(int64_t v) {
    LMFAO_CHECK_LT(size_, kMaxArity);
    vals_[size_++] = v;
  }

  void clear() { size_ = 0; }

  bool operator==(const TupleKey& o) const {
    if (size_ != o.size_) return false;
    for (int i = 0; i < size_; ++i) {
      if (vals_[i] != o.vals_[i]) return false;
    }
    return true;
  }
  bool operator!=(const TupleKey& o) const { return !(*this == o); }

  /// Lexicographic order; keys of different arity compare by prefix then
  /// size.
  bool operator<(const TupleKey& o) const {
    const int n = size_ < o.size_ ? size_ : o.size_;
    for (int i = 0; i < n; ++i) {
      if (vals_[i] != o.vals_[i]) return vals_[i] < o.vals_[i];
    }
    return size_ < o.size_;
  }

  uint64_t Hash() const { return HashKeySpan(vals_.data(), size_); }

  /// Renders "(v0,v1,...)" for debugging.
  std::string ToString() const {
    std::string out = "(";
    for (int i = 0; i < size_; ++i) {
      if (i > 0) out += ",";
      out += std::to_string(vals_[i]);
    }
    out += ")";
    return out;
  }

 private:
  std::array<int64_t, kMaxArity> vals_;
  int size_;
};

struct TupleKeyHash {
  size_t operator()(const TupleKey& k) const {
    return static_cast<size_t>(k.Hash());
  }
};

/// \brief The deduplication idiom of the compile-time registries (view
/// aggregate slots, alpha/beta registers, leaf sums): a 64-bit structural
/// signature buckets the candidate ids, and exact structural equality
/// confirms a hit, so two different entries whose signatures collide get
/// two ids instead of silently sharing one. The entries themselves live
/// with the caller; the index holds only their ids.
class SignatureIndex {
 public:
  /// The id added under `sig` for which `same(id)` holds, or -1.
  template <typename Same>
  int Find(uint64_t sig, Same&& same) const {
    auto [it, end] = ids_.equal_range(sig);
    for (; it != end; ++it) {
      if (same(it->second)) return it->second;
    }
    return -1;
  }

  void Add(uint64_t sig, int id) { ids_.emplace(sig, id); }

 private:
  std::unordered_multimap<uint64_t, int> ids_;
};

}  // namespace lmfao

namespace std {
template <>
struct hash<lmfao::TupleKey> {
  size_t operator()(const lmfao::TupleKey& k) const {
    return static_cast<size_t>(k.Hash());
  }
};
}  // namespace std

#endif  // LMFAO_UTIL_HASH_H_
