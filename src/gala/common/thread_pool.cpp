#include "gala/common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#include "gala/common/scope_handle.hpp"

namespace gala {
namespace {

/// The pool whose worker loop runs on this thread, if any.
thread_local const ThreadPool* worker_of = nullptr;

}  // namespace

/// One parallel_for_chunked call: its chunks, cursor, done count and
/// exception slot. Shared by the caller and every worker that picked it up,
/// so it outlives the last of them.
struct ThreadPool::Call {
  Call(const std::function<void(std::size_t, std::size_t)>& body, std::size_t begin,
       std::size_t end, std::size_t chunk)
      : body(&body), scope(EnterScope::installed()), begin(begin), end(end), chunk(chunk),
        num_chunks((end - begin + chunk - 1) / chunk), pending(num_chunks) {}

  // Read only after claiming a chunk: the caller keeps it alive until every
  // claimed chunk is done.
  const std::function<void(std::size_t, std::size_t)>* body;
  RunScope* const scope;  // the caller's run scope; every chunk runs under it
  const std::size_t begin;
  const std::size_t end;
  const std::size_t chunk;
  const std::size_t num_chunks;
  std::atomic<std::size_t> next{0};  // next chunk to claim
  std::mutex mutex;
  std::condition_variable cv_done;
  std::size_t pending;       // chunks not yet done; guarded by mutex
  std::exception_ptr error;  // first exception; guarded by mutex
};

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  if (num_threads == 1) return;
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  worker_of = this;
  for (;;) {
    std::shared_ptr<Call> call;
    {
      std::unique_lock lock(mutex_);
      cv_work_.wait(lock, [this] { return stop_ || !calls_.empty(); });
      if (calls_.empty()) return;  // stop_ and drained
      call = calls_.front();
    }
    run_chunks(*call);
  }
}

void ThreadPool::run_chunks(Call& call) {
  const EnterScope enter(call.scope);
  for (;;) {
    const std::size_t i = call.next.fetch_add(1);
    if (i >= call.num_chunks) break;
    const std::size_t lo = call.begin + i * call.chunk;
    std::exception_ptr error;
    try {
      (*call.body)(lo, std::min(call.end, lo + call.chunk));
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard lock(call.mutex);
    if (error && !call.error) call.error = error;
    if (--call.pending == 0) call.cv_done.notify_all();
  }
  std::lock_guard lock(mutex_);
  const auto it = std::find_if(calls_.begin(), calls_.end(),
                               [&call](const auto& queued) { return queued.get() == &call; });
  if (it != calls_.end()) calls_.erase(it);
}

void ThreadPool::parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body, std::size_t grain) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  grain = std::max<std::size_t>(1, grain);
  // Aim for a few chunks per thread to smooth load imbalance.
  const std::size_t target_chunks = size() * 4;
  const std::size_t chunk = std::max(grain, (n + target_chunks - 1) / target_chunks);
  if (n <= chunk || size() == 1) {
    body(begin, end);
    return;
  }
  const auto call = std::make_shared<Call>(body, begin, end, chunk);
  {
    std::lock_guard lock(mutex_);
    calls_.push_back(call);
  }
  // Wake one worker per chunk.
  const std::size_t helpers = std::min(workers_.size(), call->num_chunks);
  if (helpers == workers_.size()) {
    cv_work_.notify_all();
  } else {
    for (std::size_t i = 0; i < helpers; ++i) cv_work_.notify_one();
  }
  // A worker's nested call: the caller claims chunks too, so the call
  // completes even when every other worker is blocked in a call of its own.
  if (worker_of == this) run_chunks(*call);
  std::unique_lock lock(call->mutex);
  call->cv_done.wait(lock, [&call] { return call->pending == 0; });
  if (call->error) std::rethrow_exception(call->error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace gala
