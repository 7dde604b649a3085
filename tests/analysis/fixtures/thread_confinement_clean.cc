// Clean twin of thread_confinement_bad.cc: every annotated member is
// touched only from its owning role, the queue's ends stay on their
// annotated sides, and the setup function asserts the reserved
// `exclusive` role — a single-threaded phase the pass trusts rather
// than re-deriving, so its owned-member writes are not findings.

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
  void Build(int capacity) FIREHOSE_RUNS_ON(exclusive) {
    timeline_.reserve(static_cast<size_t>(capacity));
    timeline_.clear();  // fine: exclusive phase, no worker exists yet
  }

  void Dispatch() FIREHOSE_RUNS_ON(dispatcher) { Enqueue(7); }

  void Loop() FIREHOSE_RUNS_ON(shard_worker) { Drain(); }

 private:
  void Enqueue(int v) { (void)queue_.TryPush(v); }

  void Drain() {
    int v = 0;
    if (queue_.TryPop(&v)) timeline_.push_back(v);
  }

  std::vector<int> timeline_ FIREHOSE_THREAD_OWNED(shard_worker);
  BoundedQueue<int> queue_ FIREHOSE_PRODUCER_ONLY(dispatcher)
      FIREHOSE_CONSUMER_ONLY(shard_worker);
};

}  // namespace firehose
