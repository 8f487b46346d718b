// The one worker pool: a fixed set of threads draining one FIFO task
// queue. The BatchRunner runs its cells on it, and so does the serving
// daemon (src/serve/daemon.cc).
//
// Destruction runs every task still queued, then joins the threads, so
// an owner declares its pool after the state the tasks touch: members
// are destroyed in reverse order, and the pool goes first. A task must
// not throw. An exception that escapes one ends the process through
// std::terminate, as one escaping any other thread of this program does.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dsa::sim {

class WorkerPool {
 public:
  // Starts max(1, threads) threads.
  explicit WorkerPool(int threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Queues one task behind every task submitted before it.
  void Submit(std::function<void()> task);

 private:
  void WorkerMain();
  // Lets the threads run the queue dry, then joins them.
  void StopAndJoin();

  std::mutex mu_;
  std::condition_variable work_cv_;  // queue non-empty or stopping
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace dsa::sim
