#ifndef GAMMA_OBS_BOUNDED_RING_H_
#define GAMMA_OBS_BOUNDED_RING_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace gammadb::obs {

/// \brief Fixed-capacity circular buffer, oldest element first.
///
/// Push is O(1): the slots fill up to `capacity`, then each push overwrites
/// the oldest element in place, so eviction order is arrival order. A ring
/// of capacity 0 keeps nothing. Index 0 is the oldest element.
/// Not thread-safe; each ring has one writer (see obs::Journal).
template <typename T>
class BoundedRing {
 public:
  explicit BoundedRing(size_t capacity = 0) : capacity_(capacity) {}

  size_t size() const { return slots_.size(); }
  bool empty() const { return slots_.empty(); }

  /// Appends `value`, evicting the oldest element once the ring is full.
  void Push(T value) {
    if (capacity_ == 0) return;
    if (slots_.size() < capacity_) {
      slots_.push_back(std::move(value));
      return;
    }
    slots_[oldest_] = std::move(value);
    oldest_ = (oldest_ + 1) % capacity_;
  }

  /// The `i`-th oldest element.
  const T& operator[](size_t i) const {
    return slots_[(oldest_ + i) % slots_.size()];
  }

  /// Drops every element; the capacity stays.
  void Clear() {
    slots_.clear();
    oldest_ = 0;
  }

 private:
  size_t capacity_;
  std::vector<T> slots_;
  /// Slot of the oldest element (nonzero only once the ring has wrapped).
  size_t oldest_ = 0;
};

}  // namespace gammadb::obs

#endif  // GAMMA_OBS_BOUNDED_RING_H_
