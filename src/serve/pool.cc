#include "serve/pool.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace dsa::serve {

WorkerPool::WorkerPool(const PoolOptions& opts) : opts_(opts) {
  opts_.workers = std::max(1, opts_.workers);
  opts_.backoff_base_ms = std::max(1, opts_.backoff_base_ms);
  opts_.backoff_cap_ms = std::max(opts_.backoff_base_ms, opts_.backoff_cap_ms);
  opts_.max_strikes = std::max(1, opts_.max_strikes);
  slots_.resize(static_cast<std::size_t>(opts_.workers));
  for (int i = 0; i < opts_.workers; ++i) {
    slots_[static_cast<std::size_t>(i)].thread =
        std::thread(&WorkerPool::WorkerMain, this, i);
  }
  supervisor_ = std::thread(&WorkerPool::SupervisorMain, this);
}

WorkerPool::~WorkerPool() { Shutdown(); }

int WorkerPool::live_workers_locked() const {
  int live = 0;
  for (const Slot& s : slots_) {
    if (!s.dead && !s.retired) ++live;
  }
  return live;
}

bool WorkerPool::Submit(std::function<void()> task) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) return false;
  bool any_usable = false;
  for (const Slot& s : slots_) {
    // A dead slot at its strike limit retires as soon as the supervisor
    // reaps it; a task queued in between would only be discarded.
    const bool retiring = s.dead && s.strikes >= opts_.max_strikes;
    any_usable = any_usable || !(s.retired || retiring);
  }
  if (!any_usable) return false;
  queue_.push_back(std::move(task));
  work_cv_.notify_one();
  return true;
}

void WorkerPool::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void WorkerPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shut_down_) return;
    shut_down_ = true;
    stopping_ = true;
    work_cv_.notify_all();
    reap_cv_.notify_all();
    idle_cv_.notify_all();
  }
  if (supervisor_.joinable()) supervisor_.join();
  for (Slot& s : slots_) {
    if (s.thread.joinable()) s.thread.join();
  }
}

PoolStats WorkerPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PoolStats out = stats_;
  out.live_workers = live_workers_locked();
  return out;
}

void WorkerPool::WorkerMain(int slot) {
  Slot& self = slots_[static_cast<std::size_t>(slot)];
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    bool escaped = false;
    try {
      task();
    } catch (...) {
      // The task poisoned this worker. Die visibly: the supervisor
      // joins the corpse and respawns the slot with backoff, so one bad
      // task never silently shrinks the pool.
      escaped = true;
    }
    std::lock_guard<std::mutex> lock(mu_);
    --in_flight_;
    if (escaped) {
      ++stats_.escaped;
      self.dead = true;
      ++self.strikes;
      reap_cv_.notify_all();
      if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
      return;
    }
    ++stats_.executed;
    self.strikes = 0;  // strikes count *consecutive* escapes
    if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
  }
}

void WorkerPool::SupervisorMain() {
  for (;;) {
    int dead_slot = -1;
    int strikes = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      reap_cv_.wait(lock, [this, &dead_slot] {
        dead_slot = -1;
        for (std::size_t i = 0; i < slots_.size(); ++i) {
          if (slots_[i].dead && !slots_[i].retired) {
            dead_slot = static_cast<int>(i);
            break;
          }
        }
        return stopping_ || dead_slot >= 0;
      });
      if (dead_slot < 0) return;  // stopping, nothing to reap
      strikes = slots_[static_cast<std::size_t>(dead_slot)].strikes;
    }
    Slot& slot = slots_[static_cast<std::size_t>(dead_slot)];
    if (slot.thread.joinable()) slot.thread.join();

    if (strikes >= opts_.max_strikes) {
      std::lock_guard<std::mutex> lock(mu_);
      slot.retired = true;
      slot.dead = false;
      if (live_workers_locked() == 0) {
        // Every slot is gone: nobody will ever run the queue. Discard
        // it so Drain()/Shutdown() terminate instead of hanging.
        stats_.discarded += queue_.size();
        queue_.clear();
        idle_cv_.notify_all();
      }
      continue;
    }

    // Bounded exponential backoff before the respawn, woken early by
    // Shutdown so a stopping pool never waits out the delay.
    const int shift = std::min(strikes - 1, 20);
    const int delay_ms = std::min(opts_.backoff_cap_ms,
                                  opts_.backoff_base_ms << shift);
    {
      std::unique_lock<std::mutex> lock(mu_);
      reap_cv_.wait_for(lock, std::chrono::milliseconds(delay_ms),
                        [this] { return stopping_; });
      if (stopping_) {
        slot.dead = false;  // stopping: no respawn, and don't re-reap
        continue;
      }
      slot.dead = false;
      ++stats_.respawns;
      slot.thread = std::thread(&WorkerPool::WorkerMain, this, dead_slot);
    }
  }
}

}  // namespace dsa::serve
