#include "sim/pool.h"

#include <algorithm>
#include <utility>

namespace dsa::sim {

WorkerPool::WorkerPool(int threads) {
  const int n = std::max(1, threads);
  threads_.reserve(static_cast<std::size_t>(n));
  try {
    for (int i = 0; i < n; ++i) {
      threads_.emplace_back([this] { WorkerMain(); });
    }
  } catch (...) {
    StopAndJoin();  // the threads already started must not outlive *this
    throw;
  }
}

WorkerPool::~WorkerPool() { StopAndJoin(); }

void WorkerPool::StopAndJoin() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void WorkerPool::WorkerMain() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, and every task has run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace dsa::sim
