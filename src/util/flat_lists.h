#ifndef FIREHOSE_UTIL_FLAT_LISTS_H_
#define FIREHOSE_UTIL_FLAT_LISTS_H_

#include <cstddef>
#include <span>
#include <vector>

namespace firehose {

/// Lists 0..size()-1 stored back to back in one array: list i is
/// items[offsets[i] .. offsets[i + 1]). Two blocks hold every list, where
/// a vector of vectors takes a header and a block per list.
template <typename T>
class FlatLists {
 public:
  /// Builds `num_lists` lists by counting, then placing. `each(emit)`
  /// must call emit(list, value), list < num_lists, for every value of
  /// every list, in the same order both times it runs: each list keeps
  /// its values in emission order.
  template <typename Each>
  static FlatLists ByCounting(size_t num_lists, Each&& each) {
    FlatLists lists;
    std::vector<size_t>& offsets = lists.offsets_;
    offsets.assign(num_lists + 1, 0);
    each([&](size_t list, const T&) { ++offsets[list + 1]; });
    for (size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
    lists.items_.resize(offsets.back());
    each([&](size_t list, const T& value) {
      lists.items_[offsets[list]++] = value;
    });
    // Each cursor stopped at its list's end, the next list's start.
    for (size_t i = num_lists; i > 0; --i) offsets[i] = offsets[i - 1];
    offsets[0] = 0;
    return lists;
  }

  /// Number of lists.
  size_t size() const { return offsets_.size() - 1; }

  /// List `i`. Precondition: i < size().
  std::span<const T> operator[](size_t i) const {
    return std::span<const T>(items_).subspan(offsets_[i],
                                              offsets_[i + 1] - offsets_[i]);
  }

 private:
  std::vector<size_t> offsets_ = {0};  // size() + 1 entries
  std::vector<T> items_;
};

}  // namespace firehose

#endif  // FIREHOSE_UTIL_FLAT_LISTS_H_
