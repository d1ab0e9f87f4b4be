// tmcsim -- flat FIFO for hot scheduler queues.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace tmc::sim {

/// Drop-in FIFO replacement for std::deque on hot paths: a power-of-two
/// ring over one contiguous allocation. std::deque allocates a fresh block
/// every few dozen pushes no matter how steady the queue's depth is; a ring
/// only allocates when the high-water mark grows, so a scheduler queue that
/// warms up once stops touching the allocator for the rest of the run.
///
/// Elements must be default-constructible and movable: pop_front() resets
/// the vacated slot to T{} so resources held by the element (buffers,
/// callbacks) are released at pop time, as they would be with a deque.
template <typename T>
class RingQueue {
 public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  void push_back(T value) {
    if (size_ == buf_.size()) grow();
    buf_[wrap(head_ + size_)] = std::move(value);
    ++size_;
  }

  [[nodiscard]] T& front() {
    assert(size_ > 0);
    return buf_[head_];
  }
  [[nodiscard]] const T& front() const {
    assert(size_ > 0);
    return buf_[head_];
  }

  [[nodiscard]] const T& back() const {
    assert(size_ > 0);
    return buf_[wrap(head_ + size_ - 1)];
  }

  void pop_front() {
    assert(size_ > 0);
    buf_[head_] = T{};
    head_ = wrap(head_ + 1);
    --size_;
  }

  /// Queue-order access: index 0 is the front.
  [[nodiscard]] T& operator[](std::size_t i) {
    assert(i < size_);
    return buf_[wrap(head_ + i)];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    assert(i < size_);
    return buf_[wrap(head_ + i)];
  }

  /// Removes every element equal to `value`, preserving the order of the
  /// rest. O(n); for the rare removal of a parked entry, not the hot path.
  std::size_t erase_value(const T& value) {
    std::size_t kept = 0;
    const std::size_t n = size_;
    for (std::size_t i = 0; i < n; ++i) {
      T& elem = buf_[wrap(head_ + i)];
      if (elem == value) continue;
      if (kept != i) buf_[wrap(head_ + kept)] = std::move(elem);
      ++kept;
    }
    for (std::size_t i = kept; i < n; ++i) buf_[wrap(head_ + i)] = T{};
    const std::size_t removed = n - kept;
    size_ = kept;
    return removed;
  }

 private:
  [[nodiscard]] std::size_t wrap(std::size_t i) const {
    return i & (buf_.size() - 1);
  }

  void grow() {
    const std::size_t cap = buf_.empty() ? 16 : buf_.size() * 2;
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(buf_[wrap(head_ + i)]);
    }
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace tmc::sim
