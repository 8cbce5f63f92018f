//===- support/ThreadPool.cpp - Small fixed-size worker pool --------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <algorithm>
#include <cstdlib>
#include <memory>

namespace ev {

ThreadPool::ThreadPool(unsigned Threads) {
  if (Threads <= 1)
    return; // Sequential fallback: no workers, loops run inline.
  Workers.reserve(Threads - 1);
  for (unsigned I = 0; I + 1 < Threads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ShuttingDown = true;
  }
  WakeWorkers.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::runChunks(size_t ChunkSize) {
  for (;;) {
    if (JobCancelled.load(std::memory_order_relaxed))
      return;
    size_t Begin = JobNext.fetch_add(ChunkSize, std::memory_order_relaxed);
    if (Begin >= JobEnd)
      return;
    size_t End = std::min(Begin + ChunkSize, JobEnd);
    try {
      (*JobBody)(Begin, End);
    } catch (...) {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (!JobError)
        JobError = std::current_exception();
      JobCancelled.store(true, std::memory_order_relaxed);
      return;
    }
  }
}

void ThreadPool::workerLoop() {
  uint64_t SeenGeneration = 0;
  for (;;) {
    size_t Chunk;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WakeWorkers.wait(Lock, [&] {
        return ShuttingDown || JobGeneration != SeenGeneration;
      });
      if (ShuttingDown)
        return;
      SeenGeneration = JobGeneration;
      // A worker that wakes after the caller retired the job must not join
      // it: the caller no longer waits for it and may already be writing
      // the next job's JobEnd/JobBody, which runChunks reads unlocked.
      if (!JobBody)
        continue;
      ++JobActiveWorkers;
      Chunk = JobChunk;
    }
    runChunks(Chunk);
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      --JobActiveWorkers;
    }
    JobDone.notify_all();
  }
}

void ThreadPool::parallelForChunks(
    size_t N, const std::function<void(size_t, size_t)> &Body) {
  if (N == 0)
    return;
  // Inline when sequential, when the range is trivial, or when another
  // loop is already in flight (the pool is non-reentrant by design; this
  // also covers a DIFFERENT thread racing for the pool, e.g. two PVP
  // sessions dispatching concurrently — the loser runs inline). Only the
  // acquiring caller may clear the flag: a non-acquiring caller restoring
  // `true` after the owner already released would wedge the pool into
  // inline mode permanently.
  bool Nested = InLoop.exchange(true);
  if (Workers.empty() || N == 1 || Nested) {
    struct Restore {
      std::atomic<bool> &Flag;
      bool Acquired;
      ~Restore() {
        if (Acquired)
          Flag.store(false);
      }
    } R{InLoop, !Nested};
    Body(0, N);
    return;
  }

  // Chunks sized so each thread claims a handful of them: dynamic enough to
  // balance skew, coarse enough that the atomic claim is cheap.
  size_t Threads = Workers.size() + 1;
  size_t Chunk = std::max<size_t>(1, N / (Threads * 4));
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    JobBody = &Body;
    JobEnd = N;
    JobChunk = Chunk;
    JobNext.store(0, std::memory_order_relaxed);
    JobCancelled.store(false, std::memory_order_relaxed);
    JobError = nullptr;
    ++JobGeneration;
  }
  WakeWorkers.notify_all();

  runChunks(Chunk); // The caller participates.

  std::unique_lock<std::mutex> Lock(Mutex);
  JobDone.wait(Lock, [&] {
    return JobActiveWorkers == 0 &&
           (JobNext.load(std::memory_order_relaxed) >= JobEnd ||
            JobCancelled.load(std::memory_order_relaxed));
  });
  JobBody = nullptr;
  std::exception_ptr Error = JobError;
  JobError = nullptr;
  Lock.unlock();
  InLoop.store(false);
  if (Error)
    std::rethrow_exception(Error);
}

//===----------------------------------------------------------------------===
// TaskQueue
//===----------------------------------------------------------------------===

TaskQueue::TaskQueue(unsigned Threads) {
  unsigned N = Threads == 0 ? 1 : Threads;
  Workers.reserve(N);
  for (unsigned I = 0; I < N; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

TaskQueue::~TaskQueue() {
  // Drain: wait until the queue is empty AND no task is mid-flight (a
  // running task may still post follow-ups), then signal shutdown.
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    Idle.wait(Lock, [&] { return Queue.empty() && Busy == 0; });
    ShuttingDown = true;
  }
  WakeWorkers.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void TaskQueue::post(std::function<void()> Task) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Queue.push_back(std::move(Task));
  }
  WakeWorkers.notify_one();
}

void TaskQueue::workerLoop() {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WakeWorkers.wait(Lock, [&] { return ShuttingDown || !Queue.empty(); });
      if (Queue.empty())
        return; // Shutting down with nothing left to run.
      Task = std::move(Queue.front());
      Queue.pop_front();
      ++Busy;
    }
    Task();
    Executed.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      --Busy;
    }
    Idle.notify_all();
  }
}

unsigned ThreadPool::configuredThreads() {
  if (const char *Env = std::getenv("EV_THREADS")) {
    char *End = nullptr;
    unsigned long V = std::strtoul(Env, &End, 10);
    if (End != Env && *End == '\0' && V <= 1024)
      return static_cast<unsigned>(V);
  }
  unsigned HW = std::thread::hardware_concurrency();
  return std::min(HW == 0 ? 1u : HW, 8u);
}

namespace {
std::unique_ptr<ThreadPool> &sharedSlot() {
  static std::unique_ptr<ThreadPool> Slot;
  return Slot;
}
std::mutex &sharedMutex() {
  static std::mutex M;
  return M;
}
} // namespace

ThreadPool &ThreadPool::shared() {
  std::lock_guard<std::mutex> Lock(sharedMutex());
  if (!sharedSlot())
    sharedSlot() = std::make_unique<ThreadPool>(configuredThreads());
  return *sharedSlot();
}

void ThreadPool::setSharedThreadCount(unsigned Threads) {
  std::lock_guard<std::mutex> Lock(sharedMutex());
  sharedSlot() = std::make_unique<ThreadPool>(Threads);
}

} // namespace ev
