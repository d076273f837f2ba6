// Per-thread shards: one single-writer shard per emitting thread.
//
// The Tracer's event rings and open-span stacks, the LayerProfiler's frame
// stacks and the syscall gate's tail-exemplar reservoirs all keep state that
// only the owning thread writes on the hot path and that readers merge
// across threads. This is the one place that finds the calling thread's
// shard:
//
//   - every ThreadShards instance takes a process-unique id, NOT its address
//     (fleet runs create and destroy thousands of kernels, and a recycled
//     address must not hit a stale cache entry);
//   - a thread_local single-entry cache {id, shard} makes the common case two
//     loads and a compare, inlined into the caller;
//   - the miss path is out of line: it takes the mutex, searches by
//     std::thread::id and creates the shard on the thread's first use.
//
// Readers visit the shards under the same mutex through ForEach. Shards are
// heap-allocated and never move, so a cached pointer stays valid for the
// container's lifetime.

#ifndef SRC_BASE_THREAD_SHARDS_H_
#define SRC_BASE_THREAD_SHARDS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace protego {

template <typename Shard>
class ThreadShards {
 public:
  ThreadShards() {
    static std::atomic<uint64_t> next_id{1};
    id_ = next_id.fetch_add(1, std::memory_order_relaxed);
  }
  ThreadShards(const ThreadShards&) = delete;
  ThreadShards& operator=(const ThreadShards&) = delete;

  // The calling thread's shard. `args` construct it on the thread's first
  // call and are ignored afterwards.
  template <typename... Args>
  Shard& Mine(Args&&... args) {
    Cache& cache = LocalCache();
    if (cache.id != id_) [[unlikely]] {
      cache = {id_, &Register(std::forward<Args>(args)...)};
    }
    return *cache.shard;
  }

  // Visits every shard under the growth mutex. Exact totals expect the
  // owning threads to be quiescent; relaxed-atomic fields read cleanly
  // either way.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    std::lock_guard<std::mutex> lk(mu_);
    for (const Entry& e : shards_) {
      fn(static_cast<const Shard&>(*e.shard));
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) {
    std::lock_guard<std::mutex> lk(mu_);
    for (const Entry& e : shards_) {
      fn(*e.shard);
    }
  }

 private:
  struct Cache {
    uint64_t id = 0;
    Shard* shard = nullptr;
  };
  struct Entry {
    std::thread::id owner;
    std::unique_ptr<Shard> shard;
  };

  static Cache& LocalCache() {
    thread_local Cache cache;
    return cache;
  }

  // Mine's miss path: finds or creates this thread's shard. Out of line so
  // the cached hit inlines without the lock-and-search prologue.
  template <typename... Args>
  [[gnu::noinline]] Shard& Register(Args&&... args) {
    std::lock_guard<std::mutex> lk(mu_);
    std::thread::id me = std::this_thread::get_id();
    for (const Entry& e : shards_) {
      if (e.owner == me) {
        return *e.shard;
      }
    }
    shards_.push_back({me, std::make_unique<Shard>(std::forward<Args>(args)...)});
    return *shards_.back().shard;
  }

  uint64_t id_;
  mutable std::mutex mu_;  // guards shards_ growth and reads
  std::vector<Entry> shards_;
};

}  // namespace protego

#endif  // SRC_BASE_THREAD_SHARDS_H_
