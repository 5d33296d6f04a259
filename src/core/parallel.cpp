#include "core/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace vn2::core {

namespace {

using Task = std::function<void(std::size_t)>;

// The process-wide worker pool. It runs one fork-join region at a time: the
// thread that sets `busy_` (the submitter) publishes the region, claims
// chunks alongside the workers that join it, and then waits only for those
// workers. Chunks are claimed by atomic increment, so a fast thread takes
// more of them than a slow one without any rebalancing logic.
class Pool {
 public:
  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;
  ~Pool() { respawn(0); }

  // Runs fn(i) for every i in [begin, end), in chunks of `chunk` indices, on
  // the calling thread and `workers` pool threads. Returns false, having run
  // nothing, when another region holds the pool.
  bool try_run(std::size_t workers, std::size_t begin, std::size_t end,
               std::size_t chunk, const Task& fn);

 private:
  void respawn(std::size_t workers);
  void worker_loop(std::uint64_t seen);
  void work();

  std::atomic<bool> busy_{false};
  // Guards generation_ through error_, and publishes the region below.
  std::mutex mutex_;
  std::condition_variable wake_;  // Workers: generation_ moved, or stop_.
  std::condition_variable left_;  // Submitter: joined_ fell to 0.
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::size_t joined_ = 0;  // Workers inside the region.
  std::exception_ptr error_;
  // The region, published under mutex_ before generation_ moves; it stays
  // fixed until every worker that joined has left.
  std::size_t begin_ = 0, end_ = 0, chunk_ = 1, chunks_ = 0;
  const Task* fn_ = nullptr;
  std::string span_path_;
  // The next chunk to claim, on its own cache line: every claim writes it,
  // while the region fields above are read per index. The first exception
  // moves it past the end.
  alignas(64) std::atomic<std::size_t> next_{0};
  std::vector<std::thread> threads_;  // Last: the threads use every member.
};

bool Pool::try_run(std::size_t workers, std::size_t begin, std::size_t end,
                   std::size_t chunk, const Task& fn) {
  if (busy_.exchange(true, std::memory_order_acquire)) return false;
  struct Release {
    std::atomic<bool>& busy;
    ~Release() { busy.store(false, std::memory_order_release); }
  } release{busy_};
  if (threads_.size() != workers) respawn(workers);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    begin_ = begin;
    end_ = end;
    chunk_ = chunk;
    chunks_ = (end - begin + chunk - 1) / chunk;
    fn_ = &fn;
    // Workers adopt the submitter's span path, so spans opened inside fn()
    // attribute to the enclosing call tree instead of showing up as roots.
    span_path_ = telemetry::current_span_path();
    next_.store(0, std::memory_order_relaxed);
    ++generation_;
  }
  VN2_COUNT("parallel.regions");
  VN2_COUNT_N("parallel.tasks", chunks_);
  wake_.notify_all();
  work();  // The submitter is a full participant.

  std::unique_lock<std::mutex> lock(mutex_);
  left_.wait(lock, [this] { return joined_ == 0; });
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
  return true;
}

// Replaces the worker threads with `workers` new ones. Runs only while no
// region is open: under the busy_ claim, or from the destructor.
void Pool::respawn(std::size_t workers) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& thread : threads_) thread.join();
  threads_.clear();
  stop_ = false;
  // A thread that starts late still sees the next region as new.
  for (std::size_t i = 0; i < workers; ++i)
    threads_.emplace_back([this, seen = generation_] { worker_loop(seen); });
}

void Pool::worker_loop(std::uint64_t seen) {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      // Join only while chunks are left: a worker that joined later would
      // have nothing to do, yet the submitter would wait for it.
      if (next_.load(std::memory_order_relaxed) >= chunks_) continue;
      ++joined_;
    }
    work();
    std::lock_guard<std::mutex> lock(mutex_);
    if (--joined_ == 0) left_.notify_one();
  }
}

// One participant's share of the region: claims chunks until none are
// left. One busy-time sample per participant per region, so the spread of
// parallel.worker_busy_ns is the imbalance signal.
void Pool::work() {
  const std::uint64_t busy_start = VN2_CLOCK_NOW();
  try {
    // A no-op on the submitter, whose own open spans carry the path.
    telemetry::SpanPathScope scope(span_path_);
    for (;;) {
      const std::size_t c = next_.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks_) break;
      const std::size_t lo = begin_ + c * chunk_;
      const std::size_t hi = std::min(end_, lo + chunk_);
      for (std::size_t i = lo; i < hi; ++i) (*fn_)(i);
    }
  } catch (...) {
    next_.store(chunks_, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mutex_);
    if (!error_) error_ = std::current_exception();
  }
  if (busy_start != 0) {
    VN2_COUNT("parallel.participants");
    VN2_HISTOGRAM("parallel.worker_busy_ns",
                  telemetry::monotonic_ns() - busy_start);
  }
}

// Read on every potentially-parallel call site (e.g. each matmul), hence an
// atomic. 0 = the hardware default.
std::atomic<std::size_t> g_num_threads{0};

}  // namespace

void set_num_threads(std::size_t n) {
  g_num_threads.store(n, std::memory_order_relaxed);
}

std::size_t num_threads() noexcept {
  static const std::size_t hardware =
      std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  const std::size_t budget = g_num_threads.load(std::memory_order_relaxed);
  return budget == 0 ? hardware : budget;
}

void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t)>& fn) {
  if (end <= begin) return;
  const std::size_t chunk = std::max<std::size_t>(grain, 1);
  const std::size_t threads = num_threads();
  static Pool pool;  // Its destructor joins the workers at exit.
  if (end - begin > chunk && threads > 1 &&
      pool.try_run(threads - 1, begin, end, chunk, fn))
    return;
  VN2_COUNT("parallel.regions_inline");
  VN2_COUNT_N("parallel.tasks", 1);
  for (std::size_t i = begin; i < end; ++i) fn(i);
}

}  // namespace vn2::core
