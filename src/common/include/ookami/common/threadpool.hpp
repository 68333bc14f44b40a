#pragma once
// Minimal OpenMP-style fork/join thread pool.
//
// The NPB, LULESH and HPCC kernels in this kit are threaded the way the
// paper's OpenMP codes are: a static, contiguous partition of the
// iteration space per thread (OpenMP `schedule(static)`).  Static
// partitioning is load-bearing for the NUMA experiments — the simulated
// first-touch policy maps thread -> CMG exactly as SLURM core binding
// does on Ookami, so the same thread must own the same slice in the
// initialization and compute phases.
//
// Fork/join is one protocol on two futex words.  The submitter
// publishes the region and bumps the generation word (the fork); each
// worker counts the pending word down when its chunk is done, and the
// submitter waits for it to reach zero (the join).  Workers do not wait
// for each other: a worker that finished its chunk has nothing to wait
// for, so it goes straight back to waiting for the next generation.
// Every wait spins briefly, then parks on the futex — unless the pool
// has more threads than the CPUs the affinity mask grants, in which
// case the waiter parks at once: spinning would only steal the core
// from the thread it waits for.
//
// ## Concurrency contract
//
//  * One region at a time.  The pool accepts exactly one parallel region
//    at any moment.  The check-and-claim is a single atomic operation,
//    so any number of threads may call parallel_for/parallel_reduce
//    concurrently: exactly one submission wins the pool; every loser —
//    including nested calls from inside a worker — runs its whole range
//    serially on the calling thread (OpenMP's nested-parallelism-off
//    rule).  Losers do not wait for the pool.
//  * A region is fully joined before parallel_for returns: every chunk
//    has finished and its effects are visible to the caller.
//  * Worker exceptions are captured and the first one is rethrown on the
//    submitting thread after the join; the remaining chunks still run.
//  * The destructor wakes parked workers and joins them.  It must not
//    race a live region (standard lifetime rule: join your submitters
//    before destroying the pool).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

namespace ookami {

/// CPUs the calling thread may run on (its sched_getaffinity mask), at
/// least 1.  Unlike std::thread::hardware_concurrency() this honours
/// taskset, cgroup cpusets and SLURM core binding.
unsigned usable_cpus();

namespace detail {
/// Busy-phase bounds before the futex park.
struct SpinPolicy {
  unsigned spin_iters;
  unsigned yield_iters;
};
/// {0, 0} when `participants` exceed usable_cpus(): every cycle spent
/// spinning or yield-bouncing is stolen from the thread being waited
/// for.  Otherwise a few thousand pause iterations cover the fast
/// all-cores-running arrival window before conceding the core.
SpinPolicy auto_spin_policy(unsigned participants);

/// 32-bit wait/wake word.  On Linux this parks on the raw futex (no
/// library-side spin: std::atomic::wait front-loads its own spin/yield
/// phase, which is exactly the cycle theft auto_spin_policy avoids when
/// the machine is oversubscribed); elsewhere it falls back to
/// std::atomic::wait.  A waiter count makes wakes free when nobody is
/// parked, the same trick glibc's condvar uses — minus the mutex.
struct FutexWord {
  std::atomic<std::uint32_t> value{0};
  std::atomic<std::uint32_t> waiters{0};
  /// Spin/yield per `policy`, then park until `value != old`.
  void wait_while(std::uint32_t old, SpinPolicy policy);
  /// Wake every parked waiter.  Call after a seq_cst write of `value`.
  void wake();
};
}  // namespace detail

/// Fork/join pool with `num_threads` persistent workers (worker 0 is the
/// calling thread).  Not reentrant: nested parallel_for from inside a
/// worker runs sequentially, mirroring OpenMP's default nested-off; the
/// same degrade-to-serial rule applies to a concurrent second submitter
/// (see the concurrency contract above).
class ThreadPool {
public:
  /// `num_threads` 0 = usable_cpus().
  explicit ThreadPool(unsigned num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const { return num_threads_; }

  /// Run `body(begin, end, thread_id)` over [first, last) split into one
  /// contiguous chunk per thread (OpenMP schedule(static)).  If any
  /// chunk throws, the first exception is rethrown on the calling
  /// thread after all workers have joined (the remaining chunks still
  /// run to completion, mirroring OpenMP's region-completes semantics).
  /// When tracing is enabled the fork/join ("pool/parallel_for") and
  /// each worker chunk ("pool/worker") are recorded as trace regions.
  void parallel_for(std::size_t first, std::size_t last,
                    const std::function<void(std::size_t, std::size_t, unsigned)>& body);

  /// parallel_for + per-thread partial results combined with `combine`.
  /// Worker exceptions propagate like parallel_for's.
  double parallel_reduce(
      std::size_t first, std::size_t last, double init,
      const std::function<double(std::size_t, std::size_t, unsigned)>& body,
      const std::function<double(double, double)>& combine);

  /// Static chunk [begin, end) owned by `tid` of `nthreads` over n items.
  static std::pair<std::size_t, std::size_t> static_chunk(std::size_t n, unsigned tid,
                                                          unsigned nthreads);

  /// Process-wide default pool sized to usable_cpus().
  static ThreadPool& global();

private:
  void worker_loop(unsigned tid);
  void run_region(const std::function<void(unsigned)>& task);

  unsigned num_threads_;
  // How long a waiter (worker or submitter) busy-waits before parking.
  detail::SpinPolicy policy_;
  std::vector<std::thread> workers_;

  // Fork signal.  `generation_` is bumped after `task_` and `pending_`
  // are published; workers acquire-load it, so the task pointer — which
  // may dangle between regions but is never dereferenced then — is
  // always re-read fresh.  A 32-bit futex word on purpose: a parked
  // worker cannot see the same value again short of 2^32 regions
  // submitted while it never runs.
  detail::FutexWord generation_;
  // Join countdown: workers still running the current region.
  detail::FutexWord pending_;
  std::atomic<const std::function<void(unsigned)>*> task_{nullptr};
  std::atomic<bool> stop_{false};

  // Single-submitter claim: compare-exchanged false->true by the one
  // submission that wins the pool, cleared after its join.
  std::atomic<bool> active_{false};
};

}  // namespace ookami
