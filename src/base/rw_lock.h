// A reader-writer lock that spins briefly before it sleeps.
//
// glibc's pthread_rwlock (behind std::shared_mutex) parks a thread in the
// futex on the first conflict. Parking and waking cost tens of microseconds,
// while the critical sections this lock guards (a VFS path walk, a socket
// table lookup, a policy pointer copy) last a few hundred nanoseconds, so
// under contention the sleeps, not the work, set the throughput.
//
// The whole lock is one 32-bit word: a writer bit and a reader count.
// A conflicting thread first spins on the word for a bounded pause loop
// (kSpinPauses), then sleeps in C++20 atomic::wait (futex-backed). Unlock
// notifies only when it can unblock somebody: when the last reader leaves,
// and when a writer releases; with nobody asleep a notify is one load.
// (The simpler shape, a bounded try_lock spin in front of std::shared_mutex,
// was measured too: on perfbench apps-parallel, 4-vCPU x86 VM, it gained
// +75% ops/s against this lock's +83% and raised the median op latency 11%
// against 8%, because its waiters still park in glibc's futex.)
//
// Reader-preferring, like glibc's default rwlock: a reader is admitted
// whenever no writer HOLDS the lock, even if one is waiting. A thread that
// already holds the lock shared may therefore take it shared again without
// deadlocking behind a queued writer. Writers can starve under a reader
// stream that never drains; the workloads this guards drain constantly.
//
// Satisfies Lockable and SharedLockable, so std::unique_lock, std::lock_guard
// and std::shared_lock work unchanged. Not recursive for writers.

#ifndef SRC_BASE_RW_LOCK_H_
#define SRC_BASE_RW_LOCK_H_

#include <atomic>
#include <cstdint>

namespace protego {

class RwLock {
 public:
  RwLock() = default;
  RwLock(const RwLock&) = delete;
  RwLock& operator=(const RwLock&) = delete;

  void lock() {
    uint32_t seen = 0;
    while (!state_.compare_exchange_weak(seen, kWriter, std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
      if (seen != 0) {
        AwaitChange(seen);
        seen = 0;
      }
    }
  }

  bool try_lock() {
    uint32_t expected = 0;
    return state_.compare_exchange_strong(expected, kWriter, std::memory_order_acquire,
                                          std::memory_order_relaxed);
  }

  void unlock() {
    state_.store(0, std::memory_order_release);
    state_.notify_all();
  }

  void lock_shared() {
    uint32_t seen = state_.load(std::memory_order_relaxed);
    for (;;) {
      if ((seen & kWriter) != 0) {
        seen = AwaitChange(seen);
      } else if (state_.compare_exchange_weak(seen, seen + 1, std::memory_order_acquire,
                                              std::memory_order_relaxed)) {
        return;
      }
    }
  }

  bool try_lock_shared() {
    uint32_t seen = state_.load(std::memory_order_relaxed);
    while ((seen & kWriter) == 0) {
      if (state_.compare_exchange_weak(seen, seen + 1, std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  void unlock_shared() {
    // Only the last reader out can unblock anyone (a waiting writer).
    if (state_.fetch_sub(1, std::memory_order_release) == 1) {
      state_.notify_all();
    }
  }

 private:
  static constexpr uint32_t kWriter = 1u << 31;
  // Pause-loop iterations before a waiter falls back to atomic::wait: about
  // 5 us at the ~20 ns a pause takes on the 4-vCPU x86 VM this was tuned
  // on, several times the longest critical section it guards. It matters
  // because libstdc++ registers a thread as a sleeper for the whole of
  // atomic::wait, spin phase included, and every unlock that sees a
  // registered sleeper pays a futex-wake syscall.
  static constexpr int kSpinPauses = 256;

  // Returns the lock word once it differs from `seen`.
  uint32_t AwaitChange(uint32_t seen) {
    for (int i = 0; i < kSpinPauses; ++i) {
      uint32_t now = state_.load(std::memory_order_relaxed);
      if (now != seen) {
        return now;
      }
      CpuRelax();
    }
    state_.wait(seen, std::memory_order_relaxed);
    return state_.load(std::memory_order_relaxed);
  }

  static void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  std::atomic<uint32_t> state_{0};
};

}  // namespace protego

#endif  // SRC_BASE_RW_LOCK_H_
