// The obs plane's one bounded ring: when full, a push overwrites the oldest
// record, so memory is O(capacity) however long a run is. It stores the
// span and flow records (SpanTracer) and the attribution profiles
// (AttributionStore). Not synchronized: each owner guards it with its own
// mutex and keeps its own drop count.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace stf::obs {

template <typename T>
class BoundedRing {
 public:
  explicit BoundedRing(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Appends `item`; true when it overwrote the oldest record.
  bool push(T item) {
    if (items_.size() < capacity_) {
      items_.push_back(std::move(item));
      return false;
    }
    items_[next_] = std::move(item);
    next_ = (next_ + 1) % capacity_;
    return true;
  }

  /// Oldest-to-newest copy.
  [[nodiscard]] std::vector<T> snapshot() const {
    std::vector<T> out;
    out.reserve(items_.size());
    // Once the ring has wrapped, `next_` points at the oldest record.
    for (std::size_t i = 0; i < items_.size(); ++i) {
      out.push_back(items_[(next_ + i) % items_.size()]);
    }
    return out;
  }

  void clear() {
    items_.clear();
    next_ = 0;
  }

 private:
  const std::size_t capacity_;
  std::vector<T> items_;
  std::size_t next_ = 0;  ///< write cursor once full
};

}  // namespace stf::obs
