#include "parallel/thread_pool.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace m2td::parallel {

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  workers_.reserve(static_cast<std::size_t>(num_threads_ - 1));
  for (int w = 0; w < num_threads_ - 1; ++w) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::ExecuteChunks(internal::Region& region) {
  static obs::Counter& busy_us = obs::GetCounter("parallel.busy_us");
  for (;;) {
    const std::uint64_t index =
        region.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (index >= region.num_chunks) return;
    // A fired CancelToken cancels the region exactly like a chunk
    // exception: remaining chunks are claimed-but-skipped and the
    // initiator rethrows CancelledError once.
    if (!region.cancelled.load(std::memory_order_relaxed) &&
        region.cancel.IsCancelled()) {
      region.cancelled.store(true, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(region.mu);
      if (!region.error) {
        region.error = std::make_exception_ptr(
            robust::CancelledError(region.cancel.cause()));
      }
    }
    const bool measure = obs::MetricsEnabled();
    const double start_us = measure ? obs::Tracer::NowMicros() : 0.0;
    if (!region.cancelled.load(std::memory_order_relaxed)) {
      try {
        // Chunk bodies run with the initiator's token ambient, so
        // nested kernels (and nested regions) on pool workers observe
        // the same cancellation the initiating thread would.
        robust::CancelScope scope(region.cancel);
        region.run_chunk(index);
      } catch (...) {
        region.cancelled.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(region.mu);
        if (!region.error) region.error = std::current_exception();
      }
    }
    if (measure) {
      busy_us.Add(static_cast<std::uint64_t>(
          std::max(0.0, obs::Tracer::NowMicros() - start_us)));
    }
    bool all_done = false;
    {
      std::lock_guard<std::mutex> lock(region.mu);
      all_done = ++region.completed == region.num_chunks;
    }
    if (all_done) region.done_cv.notify_all();
  }
}

void ThreadPool::RunRegion(const std::shared_ptr<internal::Region>& region) {
  if (region->num_chunks == 0) return;
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(region);
      obs::GetGauge("parallel.queue_depth")
          .Set(static_cast<double>(queue_.size()));
    }
    work_cv_.notify_all();
  }
  // The initiator always helps drain its own region: with zero workers
  // this is the serial path, and from inside a pool worker it is what
  // makes nested regions deadlock-free.
  ExecuteChunks(*region);
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(region->mu);
    region->done_cv.wait(
        lock, [&] { return region->completed == region->num_chunks; });
    // Take the exception out of the region: a worker may drop the last
    // reference to the region after this thread has caught the rethrown
    // exception, and the exception object must not be freed there.
    error = std::move(region->error);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::shared_ptr<internal::Region> region;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      region = queue_.front();
      if (region->next_chunk.load(std::memory_order_relaxed) >=
          region->num_chunks) {
        // Fully claimed already; executors hold their own references.
        queue_.pop_front();
        obs::GetGauge("parallel.queue_depth")
            .Set(static_cast<double>(queue_.size()));
        continue;
      }
    }
    obs::GetCounter("parallel.worker_chunk_batches").Increment();
    ExecuteChunks(*region);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!queue_.empty() && queue_.front() == region) {
        queue_.pop_front();
        obs::GetGauge("parallel.queue_depth")
            .Set(static_cast<double>(queue_.size()));
      }
    }
  }
}

std::size_t ThreadPool::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

int HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

namespace {

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;          // guarded by g_pool_mu
int g_requested_threads = 0;                 // 0 = HardwareThreads()

}  // namespace

ThreadPool& GlobalPool() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (!g_pool) {
    const int n =
        g_requested_threads > 0 ? g_requested_threads : HardwareThreads();
    g_pool = std::make_unique<ThreadPool>(n);
  }
  return *g_pool;
}

void SetGlobalThreads(int num_threads) {
  const int clamped = std::clamp(num_threads, 1, 512);
  std::lock_guard<std::mutex> lock(g_pool_mu);
  g_requested_threads = clamped;
  if (g_pool && g_pool->num_threads() == clamped) return;
  g_pool.reset();  // joins the old workers before the new pool spawns
  g_pool = std::make_unique<ThreadPool>(clamped);
}

int GlobalThreads() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_pool) return g_pool->num_threads();
  return g_requested_threads > 0 ? g_requested_threads : HardwareThreads();
}

}  // namespace m2td::parallel
