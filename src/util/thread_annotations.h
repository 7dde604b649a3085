#ifndef FIREHOSE_UTIL_THREAD_ANNOTATIONS_H_
#define FIREHOSE_UTIL_THREAD_ANNOTATIONS_H_

/// Ownership, locking and taint annotations, statically enforced by
/// firehose_analyze (src/analysis/sema). All of them expand to nothing:
/// the compiler never sees them, the analyzer reads them straight from
/// the token stream, so they work on every toolchain (unlike clang's
/// -Wthread-safety attributes, which we cannot require).
///
/// Annotation guide
/// ----------------
///
/// Lock discipline (`lock-discipline` pass):
///
///   class TraceRecorder {
///     void AppendLocked(TraceEvent e) FIREHOSE_REQUIRES(mu_);
///     std::mutex mu_;
///     std::vector<TraceEvent> events_ FIREHOSE_GUARDED_BY(mu_);
///   };
///
/// The pass checks, by dataflow over lock_guard/scoped_lock/unique_lock
/// scopes, that every use of `events_` and every call to `AppendLocked`
/// happens with `mu_` held.
///
/// Thread confinement (`thread-confinement` pass):
///
///   class Worker {
///     void Loop() FIREHOSE_RUNS_ON(shard_worker);
///     Bins bins_ FIREHOSE_THREAD_OWNED(shard_worker);
///     Ring<Cmd> queue_ FIREHOSE_PRODUCER_ONLY(dispatcher)
///         FIREHOSE_CONSUMER_ONLY(shard_worker);
///   };
///
/// Roles are free-form identifiers (dispatcher, shard_worker, ...). A
/// FIREHOSE_RUNS_ON(role) function and everything reachable from it over
/// the call table executes on that role's thread; the pass flags any
/// reachable function that touches a member owned by a *different* role,
/// pushes (`Push`/`TryPush`) into a queue whose producer role does not
/// match, or pops (`Pop`/`TryPop`) from a queue whose consumer role does
/// not match. A callee carrying its own
/// FIREHOSE_RUNS_ON assertion cuts the walk — the assertion is trusted
/// there, not re-derived. The reserved role `exclusive` marks
/// single-threaded phases (setup, recovery): it constrains nothing and
/// is never used as a reachability root, but still cuts walks from
/// other roles.
///
/// Untrusted input (`untrusted-input` pass):
///
///   /// Bytes come straight off the wire.
///   Result Next(NetMessage* out) FIREHOSE_TAINT_SOURCE;
///
/// Values produced by a FIREHOSE_TAINT_SOURCE function (its return value
/// and out-parameters) are tainted; the pass flags tainted values used
/// as an allocation size, `resize`/`reserve` argument, or index before a
/// sanctioning bound comparison (`if (n > kMax) ...`, `std::min`, ...).
/// Taint flows interprocedurally through per-function summaries.

/// Member `m` may only be read or written while the named mutex is held.
#define FIREHOSE_GUARDED_BY(mutex)

/// The annotated function may only be called while the named mutex is
/// held (it touches guarded state without taking the lock itself).
#define FIREHOSE_REQUIRES(mutex)

/// The member is confined to the named logical thread (dispatcher,
/// shard_worker, ...) and needs no lock. Enforced interprocedurally by
/// the `thread-confinement` pass: functions reachable from a
/// FIREHOSE_RUNS_ON root of a different role must not touch it.
#define FIREHOSE_THREAD_OWNED(role)

/// Only the named role may call Push/TryPush on the annotated queue
/// member. Pairs with FIREHOSE_CONSUMER_ONLY on the same member.
#define FIREHOSE_PRODUCER_ONLY(role)

/// Only the named role may call Pop/TryPop on the annotated queue
/// member.
#define FIREHOSE_CONSUMER_ONLY(role)

/// The annotated function (and everything reachable from it) executes on
/// the named role's thread. Acts as a reachability root for the
/// `thread-confinement` pass, and as a trusted assertion that cuts walks
/// arriving from other roles.
#define FIREHOSE_RUNS_ON(role)

/// The function's outputs carry bytes from an untrusted boundary (socket
/// reads, WAL/frame payloads). Seeds the `untrusted-input` taint pass.
#define FIREHOSE_TAINT_SOURCE

#endif  // FIREHOSE_UTIL_THREAD_ANNOTATIONS_H_
