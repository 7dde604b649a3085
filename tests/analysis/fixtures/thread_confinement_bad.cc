// Deliberately broken fixture for the thread-confinement pass.
// Presented with an src/net/ path. `Dispatch` and `Loop` are the two
// role roots; the violations are:
//   - worker-owned `timeline_` touched from two dispatcher-reachable
//     functions (NearTouch directly, Far via Mid) — the analyzer must
//     collapse both to ONE finding carrying the SHORTER chain,
//   - the consumer-only queue popped from the dispatcher walk,
//   - the producer-only queue pushed from the worker walk (the
//     cross-thread TryPush).

#include <vector>

#include "src/util/thread_annotations.h"

namespace firehose {

// A bounded single-producer/single-consumer queue; the pass reads only
// the names of its two ends.
template <typename T>
class BoundedQueue {
 public:
  bool TryPush(const T& item);  // false when full
  bool TryPop(T* item);         // false when empty
};

class Worker {
 public:
  void Dispatch() FIREHOSE_RUNS_ON(dispatcher) {
    Enqueue(7);  // fine: dispatcher is the annotated producer
    NearTouch();
    Mid();
    StealPop();
  }

  void Loop() FIREHOSE_RUNS_ON(shard_worker) { Drain(); }

 private:
  void Enqueue(int v) { (void)queue_.TryPush(v); }

  void Drain() {
    int v = 0;
    if (queue_.TryPop(&v)) timeline_.push_back(v);
    (void)queue_.TryPush(v);  // BAD: producer-only, pushed by the worker
  }

  void NearTouch() { timeline_.clear(); }  // BAD via Dispatch -> NearTouch

  void Mid() { Far(); }

  void Far() { timeline_.clear(); }  // BAD, but the longer chain loses

  void StealPop() {
    int v = 0;
    (void)queue_.TryPop(&v);  // BAD: consumer-only queue from dispatcher
  }

  std::vector<int> timeline_ FIREHOSE_THREAD_OWNED(shard_worker);
  BoundedQueue<int> queue_ FIREHOSE_PRODUCER_ONLY(dispatcher)
      FIREHOSE_CONSUMER_ONLY(shard_worker);
};

}  // namespace firehose
