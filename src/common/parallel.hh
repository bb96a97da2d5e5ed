/**
 * @file
 * Host-side threading primitives for fanning out independent
 * simulations (benchmark grid cells, fuzz campaign cases).
 *
 * Each System owns a private set of event queues and every piece of
 * mutable state it touches, so whole runs are distributed across a
 * ThreadPool with no synchronization beyond job handoff (see
 * bench_util.hh runGrid and fuzz::runCampaign). One simulation always
 * runs on one thread; results are byte-identical for any thread count.
 */

#ifndef THYNVM_COMMON_PARALLEL_HH
#define THYNVM_COMMON_PARALLEL_HH

#include <algorithm>
#include <charconv>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/logging.hh"

namespace thynvm {

/**
 * Fixed-size pool of worker threads draining a FIFO job queue.
 *
 * Jobs submitted before destruction are all executed; the destructor
 * blocks until the queue drains and every worker has joined. Jobs must
 * not throw (wrap user code and capture exceptions at the call site).
 */
class ThreadPool
{
  public:
    /** @param threads worker count; clamped to at least one. */
    explicit ThreadPool(unsigned threads)
    {
        if (threads == 0)
            threads = 1;
        workers_.reserve(threads);
        for (unsigned i = 0; i < threads; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    }

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    ~ThreadPool()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
        }
        cv_.notify_all();
        for (auto& w : workers_)
            w.join();
    }

    /** Enqueue a job for execution on some worker. */
    void
    submit(std::function<void()> job)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            jobs_.push_back(std::move(job));
        }
        cv_.notify_one();
    }

    /** Number of worker threads. */
    unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  private:
    void
    workerLoop()
    {
        for (;;) {
            std::function<void()> job;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                cv_.wait(lock,
                         [this] { return stopping_ || !jobs_.empty(); });
                if (jobs_.empty())
                    return; // stopping and drained
                job = std::move(jobs_.front());
                jobs_.pop_front();
            }
            job();
        }
    }

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> jobs_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stopping_ = false;
};

/**
 * One-shot countdown: arrive() decrements, wait() blocks until zero.
 *
 * The wait() return provides a happens-before edge from every arrive()
 * — parallelForOn relies on this to read the jobs' results race-free.
 */
class CountdownLatch
{
  public:
    explicit CountdownLatch(std::size_t count) : count_(count) {}

    CountdownLatch(const CountdownLatch&) = delete;
    CountdownLatch& operator=(const CountdownLatch&) = delete;

    /** Signal one arrival. */
    void
    arrive()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        panic_if(count_ == 0, "latch arrive() past zero");
        if (--count_ == 0)
            cv_.notify_all();
    }

    /** Block until the count reaches zero. */
    void
    wait()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return count_ == 0; });
    }

  private:
    std::size_t count_;
    std::mutex mutex_;
    std::condition_variable cv_;
};

/** Host hardware concurrency, clamped to at least one. */
inline unsigned
hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

/**
 * Count spelled by @p s: its whole value must be a decimal integer in
 * [1, UINT_MAX]. @return 0 when it holds anything else (a sign,
 * trailing characters, an out-of-range value).
 */
inline unsigned
parseCount(const char* s)
{
    const char* end = s + std::strlen(s);
    unsigned v = 0;
    const auto [ptr, ec] = std::from_chars(s, end, v);
    return ec == std::errc() && ptr == end ? v : 0;
}

/**
 * Count from environment variable @p name (see parseCount()), or 0
 * when it is unset or invalid; callers treat 0 as "not set".
 */
inline unsigned
countFromEnv(const char* name)
{
    const char* env = std::getenv(name);
    return env != nullptr ? parseCount(env) : 0;
}

/**
 * Case fan-out worker count for the thynvm_fuzz campaign:
 * THYNVM_SIM_THREADS, or 0 (callers treat 0 as one worker).
 */
inline unsigned
simThreadsFromEnv()
{
    return countFromEnv("THYNVM_SIM_THREADS");
}

/**
 * Memory-channel count from THYNVM_CHANNELS, or 0 (callers treat 0 as
 * "one channel"). Consulted by SystemConfig when channels is left at
 * its deferred default; CI uses it to route whole test labels through
 * the multi-channel topology.
 */
inline unsigned
channelsFromEnv()
{
    return countFromEnv("THYNVM_CHANNELS");
}

/**
 * Run @p fn(i) for every i in [0, n) on @p pool, blocking until all
 * indices finish. The first exception thrown by any call is rethrown
 * to the caller after all indices finish.
 */
template <typename Fn>
void
parallelForOn(ThreadPool& pool, std::size_t n, Fn&& fn)
{
    if (n == 0)
        return;
    std::vector<std::exception_ptr> errors(n);
    CountdownLatch latch(n);
    for (std::size_t i = 0; i < n; ++i) {
        pool.submit([&fn, &errors, &latch, i] {
            try {
                fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
            latch.arrive();
        });
    }
    latch.wait();
    for (auto& e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
}

/**
 * Run @p fn(i) for every i in [0, n), fanning across @p threads
 * workers. With threads <= 1 the calls run inline on the caller's
 * thread in index order (bit-identical control flow to a plain loop).
 * The first exception thrown by any call is rethrown to the caller
 * after all indices finish.
 */
template <typename Fn>
void
parallelFor(std::size_t n, Fn&& fn, unsigned threads)
{
    if (threads <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    ThreadPool pool(
        static_cast<unsigned>(std::min<std::size_t>(threads, n)));
    parallelForOn(pool, n, std::forward<Fn>(fn));
}

} // namespace thynvm

#endif // THYNVM_COMMON_PARALLEL_HH
