//===- support/FlatMap.h - Sorted-vector map and set ------------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// FlatMap and FlatSet: ordered associative containers stored as one
/// sorted std::vector. They provide the subset of std::map / std::set that
/// the typing contexts and the liveness oracle use. Iteration is in key
/// order, exactly as with the tree containers, so everything printed or
/// compared from them is unchanged.
///
/// The containers are small (a handful of regions, variables or fields),
/// are copied wholesale into every derivation snapshot and compared
/// element-wise, so one contiguous allocation beats a node per entry.
///
/// Unlike std::map, an insert or erase shifts elements: it invalidates
/// every iterator, pointer and reference into the container. Re-look-up
/// an entry after mutating the container that holds it.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_SUPPORT_FLATMAP_H
#define FEARLESS_SUPPORT_FLATMAP_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <iterator>
#include <tuple>
#include <utility>
#include <vector>

namespace fearless {

/// An ordered map from K to V kept as a vector of pairs sorted by key.
template <typename K, typename V> class FlatMap {
public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  iterator begin() { return Elems.begin(); }
  iterator end() { return Elems.end(); }
  const_iterator begin() const { return Elems.begin(); }
  const_iterator end() const { return Elems.end(); }
  bool empty() const { return Elems.empty(); }
  size_t size() const { return Elems.size(); }

  /// The first entry whose key is not less than \p Key.
  iterator lower_bound(const K &Key) {
    return std::lower_bound(Elems.begin(), Elems.end(), Key, KeyLess());
  }
  const_iterator lower_bound(const K &Key) const {
    return std::lower_bound(Elems.begin(), Elems.end(), Key, KeyLess());
  }

  iterator find(const K &Key) {
    iterator It = lower_bound(Key);
    return It != end() && It->first == Key ? It : end();
  }
  const_iterator find(const K &Key) const {
    const_iterator It = lower_bound(Key);
    return It != end() && It->first == Key ? It : end();
  }
  size_t count(const K &Key) const { return find(Key) != end() ? 1 : 0; }

  /// The value at \p Key. Precondition: the key is present.
  V &at(const K &Key) {
    iterator It = find(Key);
    assert(It != end() && "FlatMap::at on a missing key");
    return It->second;
  }
  const V &at(const K &Key) const {
    const_iterator It = find(Key);
    assert(It != end() && "FlatMap::at on a missing key");
    return It->second;
  }

  /// The value at \p Key, value-initialized first if absent.
  V &operator[](const K &Key) { return emplace(Key).first->second; }

  /// Inserts (\p Key, V(Args...)) unless \p Key is present; returns the
  /// entry for \p Key and whether it was inserted. Like try_emplace, the
  /// arguments are left untouched when the key is already present.
  template <typename... Args>
  std::pair<iterator, bool> emplace(const K &Key, Args &&...A) {
    iterator It = lower_bound(Key);
    if (It != end() && It->first == Key)
      return {It, false};
    It = Elems.emplace(It, std::piecewise_construct,
                       std::forward_as_tuple(Key),
                       std::forward_as_tuple(std::forward<Args>(A)...));
    return {It, true};
  }

  /// Removes \p Key; returns the number of entries removed (0 or 1).
  size_t erase(const K &Key) {
    iterator It = find(Key);
    if (It == end())
      return 0;
    Elems.erase(It);
    return 1;
  }

  bool operator==(const FlatMap &) const = default;

private:
  struct KeyLess {
    bool operator()(const value_type &Elem, const K &Key) const {
      return Elem.first < Key;
    }
  };

  std::vector<value_type> Elems;
};

/// An ordered set of K kept as a sorted vector.
template <typename K> class FlatSet {
public:
  using const_iterator = typename std::vector<K>::const_iterator;

  const_iterator begin() const { return Elems.begin(); }
  const_iterator end() const { return Elems.end(); }
  bool empty() const { return Elems.empty(); }
  size_t size() const { return Elems.size(); }

  const_iterator lower_bound(const K &Key) const {
    return std::lower_bound(Elems.begin(), Elems.end(), Key);
  }
  const_iterator find(const K &Key) const {
    const_iterator It = lower_bound(Key);
    return It != end() && *It == Key ? It : end();
  }
  size_t count(const K &Key) const { return find(Key) != end() ? 1 : 0; }

  /// Inserts \p Key; returns its position and whether it was new.
  std::pair<const_iterator, bool> insert(const K &Key) {
    auto It = std::lower_bound(Elems.begin(), Elems.end(), Key);
    if (It != Elems.end() && *It == Key)
      return {It, false};
    return {Elems.insert(It, Key), true};
  }

  /// Removes \p Key; returns the number of elements removed (0 or 1).
  size_t erase(const K &Key) {
    auto It = std::lower_bound(Elems.begin(), Elems.end(), Key);
    if (It == Elems.end() || !(*It == Key))
      return 0;
    Elems.erase(It);
    return 1;
  }

  /// Adds every element of \p Other (set union, one linear merge).
  void merge(const FlatSet &Other) {
    if (Other.Elems.empty())
      return;
    if (Elems.empty()) {
      Elems = Other.Elems;
      return;
    }
    std::vector<K> Union;
    Union.reserve(Elems.size() + Other.Elems.size());
    std::set_union(Elems.begin(), Elems.end(), Other.Elems.begin(),
                   Other.Elems.end(), std::back_inserter(Union));
    Elems = std::move(Union);
  }

  bool operator==(const FlatSet &) const = default;

private:
  std::vector<K> Elems;
};

} // namespace fearless

#endif // FEARLESS_SUPPORT_FLATMAP_H
