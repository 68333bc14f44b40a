#include "ookami/common/threadpool.hpp"

#include <algorithm>
#include <exception>
#include <mutex>

#include "ookami/trace/trace.hpp"

#if defined(__linux__)
#include <climits>
#include <linux/futex.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace ookami {

unsigned usable_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

namespace detail {

namespace {

/// One polite busy-wait iteration (x86 pause / arm yield).
void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

}  // namespace

SpinPolicy auto_spin_policy(unsigned participants) {
  return participants > usable_cpus() ? SpinPolicy{0u, 0u} : SpinPolicy{4096u, 64u};
}

void FutexWord::wait_while(std::uint32_t old, SpinPolicy policy) {
  for (unsigned i = 0; i < policy.spin_iters; ++i) {
    if (value.load(std::memory_order_acquire) != old) return;
    cpu_relax();
  }
  for (unsigned i = 0; i < policy.yield_iters; ++i) {
    if (value.load(std::memory_order_acquire) != old) return;
    std::this_thread::yield();
  }
  while (value.load(std::memory_order_acquire) == old) {
    // Publish the waiter count before the final check-and-park; the
    // seq_cst RMW and load order against the waker's seq_cst write of
    // `value` and load of `waiters`, so either the waker sees our count
    // or we see its new value.  The kernel re-checks `value == old`
    // under its own lock, so a wake landing between that check and the
    // syscall cannot be lost.
    waiters.fetch_add(1, std::memory_order_seq_cst);
    if (value.load(std::memory_order_seq_cst) == old) {
#if defined(__linux__)
      syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&value), FUTEX_WAIT_PRIVATE, old,
              nullptr, nullptr, 0);
#else
      value.wait(old, std::memory_order_acquire);
#endif
    }
    waiters.fetch_sub(1, std::memory_order_release);
  }
}

void FutexWord::wake() {
  if (waiters.load(std::memory_order_seq_cst) == 0) return;
#if defined(__linux__)
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&value), FUTEX_WAKE_PRIVATE, INT_MAX,
          nullptr, nullptr, 0);
#else
  value.notify_all();
#endif
}

}  // namespace detail

ThreadPool::ThreadPool(unsigned num_threads)
    : num_threads_(num_threads ? num_threads : usable_cpus()),
      policy_(detail::auto_spin_policy(num_threads_)) {
  workers_.reserve(num_threads_ - 1);
  for (unsigned tid = 1; tid < num_threads_; ++tid) {
    workers_.emplace_back([this, tid] { worker_loop(tid); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_relaxed);
  // The bump publishes the stop flag to workers spinning or parked on
  // the generation word.
  generation_.value.fetch_add(1, std::memory_order_seq_cst);
  generation_.wake();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(unsigned tid) {
  std::uint32_t seen = 0;
  for (;;) {
    generation_.wait_while(seen, policy_);
    seen = generation_.value.load(std::memory_order_acquire);
    if (stop_.load(std::memory_order_acquire)) return;
    (*task_.load(std::memory_order_relaxed))(tid);
    // The last worker out wakes the submitter; the rest just leave.
    if (pending_.value.fetch_sub(1, std::memory_order_seq_cst) == 1) pending_.wake();
  }
}

void ThreadPool::run_region(const std::function<void(unsigned)>& task) {
  // Publish the task and the countdown, then bump the generation: a
  // worker's acquire read of the new generation makes both (and
  // everything the submitter wrote before them) visible.
  task_.store(&task, std::memory_order_relaxed);
  pending_.value.store(num_threads_ - 1, std::memory_order_relaxed);
  generation_.value.fetch_add(1, std::memory_order_seq_cst);
  generation_.wake();
  task(0);
  // Join: each decrement is a release RMW, so the acquire load that
  // reads zero sees every worker's writes.
  for (std::uint32_t left; (left = pending_.value.load(std::memory_order_acquire)) != 0;) {
    pending_.wait_while(left, policy_);
  }
}

std::pair<std::size_t, std::size_t> ThreadPool::static_chunk(std::size_t n, unsigned tid,
                                                             unsigned nthreads) {
  const std::size_t base = n / nthreads;
  const std::size_t rem = n % nthreads;
  const std::size_t begin = static_cast<std::size_t>(tid) * base + std::min<std::size_t>(tid, rem);
  const std::size_t len = base + (tid < rem ? 1 : 0);
  return {begin, begin + len};
}

void ThreadPool::parallel_for(
    std::size_t first, std::size_t last,
    const std::function<void(std::size_t, std::size_t, unsigned)>& body) {
  const std::size_t n = last > first ? last - first : 0;
  if (n == 0) return;

  bool run_serial = num_threads_ == 1;
  if (!run_serial) {
    // Atomic check-and-claim: of any number of concurrent submitters
    // (outside threads or nested calls from a worker) exactly one wins
    // the pool; the rest run their range serially, the same rule as
    // nested regions.
    bool expected = false;
    if (!active_.compare_exchange_strong(expected, true, std::memory_order_acquire)) {
      run_serial = true;
    }
  }
  if (run_serial) {
    body(first, last, 0);
    return;
  }

  trace::Scope fork_scope("pool/parallel_for");

  // A worker exception must not unwind through worker_loop (std::thread
  // would terminate the process) and must not be swallowed: capture the
  // first one here and rethrow it on the calling thread after the join,
  // so traced kernels fail as cleanly as serial code.
  std::exception_ptr first_error;
  std::mutex error_mu;

  const unsigned nthreads = static_cast<unsigned>(std::min<std::size_t>(num_threads_, n));
  std::function<void(unsigned)> task = [&, nthreads](unsigned tid) {
    if (tid >= nthreads) return;
    auto [b, e] = static_chunk(n, tid, nthreads);
    if (b >= e) return;
    trace::Scope worker_scope("pool/worker");
    try {
      body(first + b, first + e, tid);
    } catch (...) {
      std::lock_guard lk(error_mu);
      if (!first_error) first_error = std::current_exception();
    }
  };

  run_region(task);
  active_.store(false, std::memory_order_release);
  if (first_error) std::rethrow_exception(first_error);
}

double ThreadPool::parallel_reduce(
    std::size_t first, std::size_t last, double init,
    const std::function<double(std::size_t, std::size_t, unsigned)>& body,
    const std::function<double(double, double)>& combine) {
  // `init` must be folded exactly once no matter how many threads run,
  // or a non-identity seed (nonzero sum offset, 2.0 for a product, ...)
  // would be incorporated once per participating thread plus once in
  // the final fold.  Partials therefore start "empty" and only chunks
  // that actually executed contribute.
  std::vector<double> partial(num_threads_, 0.0);
  std::vector<unsigned char> touched(num_threads_, 0);
  parallel_for(first, last, [&](std::size_t b, std::size_t e, unsigned tid) {
    const double v = body(b, e, tid);
    partial[tid] = touched[tid] ? combine(partial[tid], v) : v;
    touched[tid] = 1;
  });
  double acc = init;
  for (unsigned t = 0; t < num_threads_; ++t) {
    if (touched[t]) acc = combine(acc, partial[t]);
  }
  return acc;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace ookami
