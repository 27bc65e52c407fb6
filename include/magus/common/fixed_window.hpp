#pragma once
// FixedWindow<T>: a fixed-capacity FIFO sliding window.
//
// This is the data structure behind the paper's `mem_throughput_ls` and
// `uncore_tune_ls` queues (Algorithm 3): pushing into a full window evicts
// the oldest element, so the window always holds the most recent N samples
// once warmed up.

#include <cassert>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace magus::common {

/// Storage is a ring: `data_` grows to `capacity` and then each push
/// overwrites the oldest slot, so eviction moves no elements. Logical index 0
/// (the oldest sample) lives at `head_`; iteration and sum() walk oldest to
/// newest, so sums accumulate in arrival order whatever the ring offset.
template <typename T>
class FixedWindow {
 public:
  /// Range-for cursor over the logical order, oldest first.
  class Cursor {
   public:
    Cursor(const FixedWindow& w, std::size_t i) noexcept : w_(&w), i_(i) {}

    const T& operator*() const { return (*w_)[i_]; }
    Cursor& operator++() noexcept {
      ++i_;
      return *this;
    }
    bool operator==(const Cursor& o) const noexcept { return i_ == o.i_; }

   private:
    const FixedWindow* w_;
    std::size_t i_;
  };

  explicit FixedWindow(std::size_t capacity) : capacity_(capacity) {
    if (capacity_ == 0) throw std::invalid_argument("FixedWindow capacity must be > 0");
    data_.reserve(capacity_);
  }

  /// Construct pre-filled with `capacity` copies of `fill` (the paper seeds
  /// `uncore_tune_ls` with 10 zeros before MDFS engages).
  FixedWindow(std::size_t capacity, const T& fill) : FixedWindow(capacity) {
    data_.assign(capacity_, fill);
  }

  /// Append a sample; evicts the oldest sample when full.
  void push(const T& v) {
    if (data_.size() < capacity_) {
      data_.push_back(v);
      return;
    }
    data_[head_] = v;
    if (++head_ == capacity_) head_ = 0;
  }

  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool full() const noexcept { return data_.size() == capacity_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] const T& oldest() const {
    if (data_.empty()) throw std::out_of_range("FixedWindow::oldest on empty window");
    return data_[head_];
  }
  [[nodiscard]] const T& newest() const {
    if (data_.empty()) throw std::out_of_range("FixedWindow::newest on empty window");
    return (*this)[data_.size() - 1];
  }

  /// Element access, index 0 == oldest.
  [[nodiscard]] const T& operator[](std::size_t i) const {
    assert(i < data_.size());
    const std::size_t j = head_ + i;
    return data_[j < capacity_ ? j : j - capacity_];
  }

  [[nodiscard]] T sum() const {
    T total{};
    for (const T& v : *this) total = total + v;
    return total;
  }

  [[nodiscard]] double mean() const {
    if (data_.empty()) return 0.0;
    return static_cast<double>(sum()) / static_cast<double>(data_.size());
  }

  void clear() noexcept {
    data_.clear();
    head_ = 0;
  }

  /// Reset to `capacity` copies of `fill`.
  void fill(const T& v) {
    data_.assign(capacity_, v);
    head_ = 0;
  }

  [[nodiscard]] Cursor begin() const noexcept { return {*this, 0}; }
  [[nodiscard]] Cursor end() const noexcept { return {*this, data_.size()}; }

 private:
  std::size_t capacity_;
  std::vector<T> data_;   ///< ring storage, at most capacity_ elements
  std::size_t head_ = 0;  ///< slot of the oldest element once full
};

}  // namespace magus::common
