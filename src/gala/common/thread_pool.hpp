// A small blocking thread pool with one primitive: parallel_for_chunked.
//
// This is the host-side parallelism substrate: the gpusim block scheduler,
// the phase-1 engines, the CPU baselines and the query executor all run on
// top of it. parallel_for_chunked partitions an index range into contiguous
// chunks (grain-size controlled) and returns when all of them are done.
//
// Contract:
//  - Completion is per call. Each call owns its chunk cursor, its done count
//    and its exception slot, so a caller returns as soon as its own chunks
//    are done and never sees another call's exception. The first exception
//    a call's chunks throw is rethrown on its caller.
//  - The caller blocks (never spins) until its chunks are done. A pool of
//    size N > 1 runs them on its N worker threads; a caller on another
//    thread does not run chunks, so its own CPU time holds only its serial
//    work.
//  - A size-1 pool has no worker threads and runs every call inline, on the
//    calling thread, as the single chunk [begin, end).
//  - Chunks run under their caller's run scope (common/scope_handle.hpp),
//    on whichever thread claims them, so observers see one run per caller.
//  - Nesting is allowed: a body may call the pool again. A worker that does
//    claims the nested chunks alongside the other workers, so the nested
//    call completes even when every other worker is busy.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace gala {

class ThreadPool {
 public:
  /// A pool of `num_threads` worker threads; 0 means hardware_concurrency(),
  /// and 1 means none: every call runs inline on its caller.
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Threads that run a call's chunks.
  std::size_t size() const { return std::max<std::size_t>(workers_.size(), 1); }

  /// Runs body(chunk_begin, chunk_end) over contiguous chunks of at least
  /// `grain` indices covering [begin, end), across the pool. Blocks until
  /// done; rethrows a body's exception.
  void parallel_for_chunked(std::size_t begin, std::size_t end,
                            const std::function<void(std::size_t, std::size_t)>& body,
                            std::size_t grain = 256);

  /// Process-wide default pool (lazily constructed, sized to the machine).
  static ThreadPool& global();

 private:
  struct Call;

  void worker_loop();
  /// Claims and runs `call`'s chunks until none is left, then takes the
  /// call off the queue.
  void run_chunks(Call& call);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_work_;
  std::vector<std::shared_ptr<Call>> calls_;  // calls that may have unclaimed chunks
  bool stop_ = false;
};

}  // namespace gala
