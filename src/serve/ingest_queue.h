// Bounded lock-free ingest ring for the multi-tenant localization service
// (DESIGN.md §5f). Dmitry Vyukov's bounded queue: every cell carries a
// sequence number that producers and the consumer advance in acquire/release
// pairs, so TryPush is safe from any number of producer threads while
// TryPop runs on the service's single assembler. The ring never allocates
// after construction — a full ring refuses the push (the service's
// backpressure signal) instead of growing.
//
// Ordering guarantees: slots are claimed with one fetch-less CAS race on
// `enqueue_pos_`, so the queue is globally FIFO in claim order and therefore
// FIFO per producer — the property the service relies on for per-tag
// in-order round assembly (one producer per tag).
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <utility>

namespace bloc::serve {

/// Smallest power of two >= n (and >= 2), for the ring index mask.
constexpr std::size_t RingCapacityFor(std::size_t n) noexcept {
  std::size_t cap = 2;
  while (cap < n) cap <<= 1;
  return cap;
}

template <typename T>
class BoundedMpscQueue {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit BoundedMpscQueue(std::size_t min_capacity)
      : mask_(RingCapacityFor(min_capacity) - 1),
        cells_(std::make_unique<Cell[]>(mask_ + 1)) {
    for (std::size_t i = 0; i <= mask_; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  BoundedMpscQueue(const BoundedMpscQueue&) = delete;
  BoundedMpscQueue& operator=(const BoundedMpscQueue&) = delete;

  /// Multi-producer push. Returns false (leaving `value` untouched) when the
  /// ring is full — the caller decides whether that is a refusal or a retry.
  bool TryPush(T&& value) {
    Cell* cell;
    std::size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->seq.load(std::memory_order_acquire);
      const std::ptrdiff_t dif = static_cast<std::ptrdiff_t>(seq) -
                                 static_cast<std::ptrdiff_t>(pos);
      if (dif == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          break;
        }
      } else if (dif < 0) {
        return false;  // the cell still holds an unconsumed older entry
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
    cell->value = std::move(value);
    cell->seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// Consumer pop (also safe multi-consumer, though the service never needs
  /// that). Returns false when the ring is empty.
  bool TryPop(T& out) {
    Cell* cell;
    std::size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->seq.load(std::memory_order_acquire);
      const std::ptrdiff_t dif = static_cast<std::ptrdiff_t>(seq) -
                                 static_cast<std::ptrdiff_t>(pos + 1);
      if (dif == 0) {
        if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          break;
        }
      } else if (dif < 0) {
        return false;  // empty
      } else {
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
    out = std::move(cell->value);
    cell->value = T{};  // release payload-owned memory while the slot idles
    cell->seq.store(pos + mask_ + 1, std::memory_order_release);
    return true;
  }

  std::size_t capacity() const noexcept { return mask_ + 1; }

 private:
  struct alignas(64) Cell {
    std::atomic<std::size_t> seq{0};
    T value{};
  };

  const std::size_t mask_;
  std::unique_ptr<Cell[]> cells_;
  alignas(64) std::atomic<std::size_t> enqueue_pos_{0};
  alignas(64) std::atomic<std::size_t> dequeue_pos_{0};
};

}  // namespace bloc::serve
