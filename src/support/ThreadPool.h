//===- support/ThreadPool.h - Index-space thread pool ----------*- C++ -*-===//
//
// Part of egglog-cpp. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small persistent thread pool for the engine's parallel match phase
/// (DESIGN.md "Parallel matching"). parallelFor(N, Fn) runs Fn(I) for
/// every I in [0, N): the calling thread and every worker claim the next
/// unclaimed index from one shared atomic counter until it passes N.
/// Items are coarse (one whole semi-naïve delta variant of one rule), so
/// a single counter is all the load balancing they need.
///
/// The calling thread participates: a pool of size 1 spawns no threads at
/// all and parallelFor degenerates to a plain loop, and worker threads
/// park on a condition variable between jobs rather than spinning.
///
//===----------------------------------------------------------------------===//

#ifndef EGGLOG_SUPPORT_THREADPOOL_H
#define EGGLOG_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace egglog {

/// Fixed-size pool executing index-space loops. Not reentrant: only one
/// parallelFor may be active at a time (the engine runs exactly one match
/// phase at a time).
class ThreadPool {
public:
  /// \p Threads is the total concurrency including the calling thread, so
  /// the pool spawns Threads - 1 workers.
  explicit ThreadPool(unsigned Threads) {
    for (unsigned W = 1; W < Threads; ++W)
      Workers.emplace_back([this] { workerLoop(); });
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> Lock(JobMutex);
      Shutdown = true;
    }
    JobStart.notify_all();
    for (std::thread &T : Workers)
      T.join();
  }

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Total concurrency (workers plus the calling thread).
  unsigned threads() const { return static_cast<unsigned>(Workers.size()) + 1; }

  /// Runs Fn(I) for every I in [0, NumItems), distributed over the pool
  /// and the calling thread; returns once every item has finished and
  /// every worker has left the job. Item order is unspecified — callers
  /// must not depend on it — except on the inline path (one thread or one
  /// item), which runs in index order. If items throw, the first
  /// exception is rethrown here after all items have run.
  void parallelFor(size_t NumItems, const std::function<void(size_t)> &Fn) {
    if (NumItems == 0)
      return;
    if (Workers.empty() || NumItems == 1) {
      for (size_t I = 0; I < NumItems; ++I)
        Fn(I);
      return;
    }
    {
      std::lock_guard<std::mutex> Lock(JobMutex);
      JobFn = &Fn;
      JobItems = NumItems;
      Next.store(0, std::memory_order_relaxed);
      Busy = Workers.size();
      ++JobGeneration;
    }
    JobStart.notify_all();
    drain(Fn, NumItems);
    std::unique_lock<std::mutex> Lock(JobMutex);
    // Every worker, not just every item: a worker still inside drain()
    // would otherwise claim from the next job's reset counter with this
    // job's function.
    JobDone.wait(Lock, [this] { return Busy == 0; });
    JobFn = nullptr;
    if (FirstError) {
      std::exception_ptr Error = FirstError;
      FirstError = nullptr;
      Lock.unlock();
      std::rethrow_exception(Error);
    }
  }

private:
  /// Claims and runs items of the active job until none is left.
  void drain(const std::function<void(size_t)> &Fn, size_t NumItems) {
    for (;;) {
      size_t Item = Next.fetch_add(1, std::memory_order_relaxed);
      if (Item >= NumItems)
        return;
      try {
        Fn(Item);
      } catch (...) {
        // A task must never unwind a worker (std::terminate) or the
        // caller before the job is finished (workers would race a
        // destroyed Fn): record the first exception and keep going;
        // parallelFor rethrows it at the end.
        std::lock_guard<std::mutex> Lock(JobMutex);
        if (!FirstError)
          FirstError = std::current_exception();
      }
    }
  }

  void workerLoop() {
    uint64_t Seen = 0;
    for (;;) {
      const std::function<void(size_t)> *Fn;
      size_t NumItems;
      {
        std::unique_lock<std::mutex> Lock(JobMutex);
        JobStart.wait(Lock,
                      [&] { return Shutdown || JobGeneration != Seen; });
        if (Shutdown)
          return;
        Seen = JobGeneration;
        Fn = JobFn;
        NumItems = JobItems;
      }
      drain(*Fn, NumItems);
      // Leaving under the mutex publishes this worker's writes to the
      // caller, which reads Busy under the same mutex.
      std::lock_guard<std::mutex> Lock(JobMutex);
      if (--Busy == 0)
        JobDone.notify_all();
    }
  }

  std::vector<std::thread> Workers;

  std::mutex JobMutex;
  std::condition_variable JobStart;
  std::condition_variable JobDone;
  /// The active job and its size; guarded by JobMutex.
  const std::function<void(size_t)> *JobFn = nullptr;
  size_t JobItems = 0;
  /// Bumped per job so parked workers know they have work to look for.
  uint64_t JobGeneration = 0;
  /// Workers that have not yet left the active job; guarded by JobMutex.
  size_t Busy = 0;
  /// The next unclaimed item of the active job.
  std::atomic<size_t> Next{0};
  /// First exception a task of the active job threw; guarded by JobMutex,
  /// rethrown by parallelFor after the job finishes.
  std::exception_ptr FirstError;
  bool Shutdown = false;
};

} // namespace egglog

#endif // EGGLOG_SUPPORT_THREADPOOL_H
