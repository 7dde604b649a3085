#ifndef FIREHOSE_RUNTIME_SPSC_QUEUE_H_
#define FIREHOSE_RUNTIME_SPSC_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <vector>

namespace firehose {

/// Bounded lock-free single-producer/single-consumer ring queue. The
/// serve dispatcher uses it to hand each shard worker its posts without
/// locks on the hot path.
///
/// Exactly one thread may call TryPush and one thread TryPop. The
/// protocol: `head_` (next write index) is stored by the producer with
/// release order and read by the consumer with acquire order, which
/// publishes the slot write; symmetrically `tail_` (next read index)
/// release-published by the consumer licenses the producer to reuse a
/// slot. Indices grow without bound and wrap modulo 2^64; all
/// comparisons use the difference `head - tail`, which is correct
/// across the wrap because unsigned subtraction is modular.
template <typename T>
class SpscQueue {
 public:
  /// `capacity` is rounded up to a power of two (minimum 2, clamped to
  /// 2^63 so the rounding loop cannot overflow to zero).
  explicit SpscQueue(size_t capacity) {
    constexpr size_t kMaxCapacity = size_t{1} << 63;
    if (capacity > kMaxCapacity) capacity = kMaxCapacity;
    size_t rounded = 2;
    while (rounded < capacity) rounded *= 2;
    slots_.resize(rounded);
    mask_ = rounded - 1;
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  /// False when the queue is full (producer should back off or drop).
  [[nodiscard]] bool TryPush(const T& item) {
    const size_t head = head_.load(std::memory_order_relaxed);
    const size_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail > mask_) return false;
    slots_[head & mask_] = item;
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// False when the queue is empty.
  [[nodiscard]] bool TryPop(T* item) {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    const size_t head = head_.load(std::memory_order_acquire);
    if (tail == head) return false;
    *item = slots_[tail & mask_];
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Racy size estimate (monitoring only). Loads `tail_` before `head_`
  /// and clamps: with the opposite order the consumer can advance the
  /// tail between the two loads and `head - tail` underflows to a value
  /// near SIZE_MAX. The estimate can still run slightly stale, but it is
  /// always in [0, capacity] when called from the producer or consumer
  /// thread.
  size_t ApproxSize() const {
    const size_t tail = tail_.load(std::memory_order_acquire);
    const size_t head = head_.load(std::memory_order_acquire);
    const size_t delta = head - tail;
    return delta > mask_ + 1 ? 0 : delta;
  }

  size_t capacity() const { return mask_ + 1; }

  /// Starts both indices at `index` with the queue empty. Test-only:
  /// exercises index wraparound across SIZE_MAX without 2^64 pushes.
  /// Must be called before any concurrent use.
  void TESTONLY_SetStartIndex(size_t index) {
    head_.store(index, std::memory_order_relaxed);
    tail_.store(index, std::memory_order_relaxed);
  }

 private:
  std::vector<T> slots_;
  size_t mask_ = 0;
  // On separate cache lines: the producer spins on head_ and the consumer
  // on tail_; sharing a line would ping-pong it on every operation.
  alignas(64) std::atomic<size_t> head_{0};  // producer-owned write index
  alignas(64) std::atomic<size_t> tail_{0};  // consumer-owned read index
};

}  // namespace firehose

#endif  // FIREHOSE_RUNTIME_SPSC_QUEUE_H_
