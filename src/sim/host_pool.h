#ifndef GAMMA_SIM_HOST_POOL_H_
#define GAMMA_SIM_HOST_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace gammadb::sim {

/// \brief Fixed pool of host worker threads that runs one batch of
/// independent tasks per call — the substrate the Gamma machine uses to run
/// its simulated nodes' per-phase work on real cores.
///
/// The pool is a process-wide singleton sized from GAMMA_HOST_THREADS
/// (default: hardware_concurrency). With 1 thread every batch runs inline on
/// the calling thread, in task order, with no worker handoff — the
/// sequential reference schedule. With N threads the same tasks run
/// concurrently; the caller is responsible for making tasks independent
/// (the machine layer gives each task exclusive ownership of one node's
/// storage and a private cost shard, merging shards in canonical order at
/// the barrier RunAll provides).
///
/// RunAll is a full barrier: it returns only after every task has finished.
/// The calling thread participates in the work, so a pool of size N uses
/// N-1 workers. Nested RunAll from inside a task degrades to inline
/// execution (no deadlock, same results).
class HostPool {
 public:
  static HostPool& Instance();

  HostPool(const HostPool&) = delete;
  HostPool& operator=(const HostPool&) = delete;

  /// Threads the pool schedules over (>= 1).
  int num_threads() const { return num_threads_; }

  /// Resizes the pool (test / bench hook; also how --threads is applied).
  /// Must not be called while a RunAll is in flight.
  void set_num_threads(int n);

  /// Runs every task to completion. Tasks may run in any order on any
  /// thread; the call itself is the barrier.
  void RunAll(const std::vector<std::function<void()>>& tasks);

  /// One RunAll task per chunk: `fn(chunk, begin, end)` for the `chunks`
  /// contiguous ranges [n * c / chunks, n * (c + 1) / chunks) of [0, n).
  void RunChunks(size_t n, size_t chunks,
                 const std::function<void(size_t, size_t, size_t)>& fn);

  /// GAMMA_HOST_THREADS when set and valid, else hardware_concurrency.
  static int DefaultThreads();

 private:
  HostPool();
  ~HostPool();

  void StartWorkers(int count);
  void StopWorkers();
  void WorkerLoop();
  void DrainTasks();

  std::vector<std::thread> workers_;
  int num_threads_ = 1;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::vector<std::function<void()>>* tasks_ = nullptr;
  size_t next_task_ = 0;
  size_t tasks_done_ = 0;
  uint64_t generation_ = 0;
  bool shutdown_ = false;
};

/// \brief Builds per-destination lists of `Entry`s from the inputs [0, n)
/// on every host thread, each list in input order.
///
/// `classify(i)` reads input i and returns its key, or std::nullopt to
/// reject it; `scatter(i, key, emit)` then calls `emit(dest, entry)` for
/// each entry input i sends, from its key alone. [0, n) splits into one
/// contiguous chunk per pool thread, and the chunks are routed twice: the
/// first pass classifies every input, keeping its key, and counts what
/// each chunk sends each destination; the lists are then sized exactly on
/// the calling thread, and the second pass writes each chunk's entries at
/// its offset in each list. Returns false, before the second pass, if any
/// input was rejected. The lists do not depend on the pool width.
template <typename Entry, typename Classify, typename Scatter>
bool RouteInChunks(size_t n, std::vector<std::vector<Entry>>& lists,
                   Classify&& classify, Scatter&& scatter) {
  using Key = typename std::invoke_result_t<Classify&, size_t>::value_type;
  HostPool& pool = HostPool::Instance();
  const auto chunks = static_cast<size_t>(pool.num_threads());
  const size_t dests = lists.size();
  std::vector<Key> keys(n);
  std::vector<size_t> at(chunks * dests);  // counts, then offsets
  std::vector<uint8_t> rejected(chunks);
  pool.RunChunks(n, chunks, [&](size_t c, size_t begin, size_t end) {
    size_t* count = &at[c * dests];
    for (size_t i = begin; i < end; ++i) {
      const std::optional<Key> key = classify(i);
      if (!key.has_value()) {
        rejected[c] = 1;
        return;
      }
      keys[i] = *key;
      scatter(i, *key, [count](size_t dest, const Entry&) { ++count[dest]; });
    }
  });
  for (const uint8_t r : rejected) {
    if (r != 0) return false;
  }
  for (size_t dest = 0; dest < dests; ++dest) {
    size_t total = 0;
    for (size_t c = 0; c < chunks; ++c) {
      total += std::exchange(at[c * dests + dest], total);
    }
    lists[dest].resize(total);
  }
  pool.RunChunks(n, chunks, [&](size_t c, size_t begin, size_t end) {
    size_t* next = &at[c * dests];
    for (size_t i = begin; i < end; ++i) {
      scatter(i, keys[i], [&](size_t dest, const Entry& entry) {
        lists[dest][next[dest]++] = entry;
      });
    }
  });
  return true;
}

}  // namespace gammadb::sim

#endif  // GAMMA_SIM_HOST_POOL_H_
