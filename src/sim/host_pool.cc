#include "sim/host_pool.h"

#include <cstdlib>

#include "common/macros.h"

namespace gammadb::sim {

namespace {

/// True on a thread currently executing a pool task: a nested RunAll from
/// operator code must not wait on workers that are busy running *it*.
thread_local bool t_inside_pool_task = false;

}  // namespace

HostPool& HostPool::Instance() {
  static HostPool* pool = new HostPool();  // leaked: workers outlive main
  return *pool;
}

int HostPool::DefaultThreads() {
  if (const char* env = std::getenv("GAMMA_HOST_THREADS");
      env != nullptr && *env != '\0') {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed >= 1) return static_cast<int>(parsed);
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

HostPool::HostPool() { set_num_threads(DefaultThreads()); }

HostPool::~HostPool() { StopWorkers(); }

void HostPool::set_num_threads(int n) {
  GAMMA_CHECK_MSG(n >= 1, "host pool needs at least one thread");
  if (n == num_threads_) return;
  StopWorkers();
  num_threads_ = n;
  StartWorkers(n - 1);  // the RunAll caller is the remaining thread
}

void HostPool::StartWorkers(int count) {
  shutdown_ = false;
  for (int i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void HostPool::StopWorkers() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

void HostPool::WorkerLoop() {
  uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || (tasks_ != nullptr && generation_ != seen_generation);
      });
      if (shutdown_) return;
      seen_generation = generation_;
    }
    DrainTasks();
  }
}

void HostPool::DrainTasks() {
  for (;;) {
    const std::vector<std::function<void()>>* batch;
    size_t index;
    {
      std::lock_guard<std::mutex> lock(mu_);
      batch = tasks_;
      if (batch == nullptr || next_task_ >= batch->size()) return;
      index = next_task_++;
    }
    t_inside_pool_task = true;
    (*batch)[index]();
    t_inside_pool_task = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++tasks_done_;
      if (tasks_done_ == batch->size()) done_cv_.notify_all();
    }
  }
}

void HostPool::RunAll(const std::vector<std::function<void()>>& tasks) {
  if (tasks.empty()) return;
  if (num_threads_ == 1 || tasks.size() == 1 || t_inside_pool_task) {
    // Sequential reference schedule: tasks run inline, in order.
    for (const auto& task : tasks) task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_ = &tasks;
    next_task_ = 0;
    tasks_done_ = 0;
    ++generation_;
  }
  work_cv_.notify_all();
  DrainTasks();  // the caller works too
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return tasks_done_ == tasks.size(); });
    tasks_ = nullptr;
  }
}

void HostPool::RunChunks(
    size_t n, size_t chunks,
    const std::function<void(size_t, size_t, size_t)>& fn) {
  std::vector<std::function<void()>> tasks;
  tasks.reserve(chunks);
  for (size_t c = 0; c < chunks; ++c) {
    tasks.push_back([&fn, c, begin = n * c / chunks,
                     end = n * (c + 1) / chunks] { fn(c, begin, end); });
  }
  RunAll(tasks);
}

}  // namespace gammadb::sim
