#include "common/serial_worker.h"

#include <utility>

namespace eon {

namespace {

std::shared_future<Status> Ready(Status s) {
  std::promise<Status> p;
  p.set_value(std::move(s));
  return p.get_future().share();
}

}  // namespace

SerialWorker::SerialWorker() : thread_([this] { Loop(); }) {}

SerialWorker::~SerialWorker() { Stop(); }

std::shared_future<Status> SerialWorker::Post(const std::string& key,
                                              std::function<Status()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopped_) return Ready(Status::Aborted("background worker stopped"));
  for (const Job& job : queue_) {
    if (job.key == key) return job.result;
  }
  Job job;
  job.key = key;
  job.fn = std::move(fn);
  job.done = std::make_shared<std::promise<Status>>();
  job.result = job.done->get_future().share();
  std::shared_future<Status> result = job.result;
  queue_.push_back(std::move(job));
  work_cv_.notify_one();
  return result;
}

void SerialWorker::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && !running_; });
}

void SerialWorker::Stop() {
  std::deque<Job> dropped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
    dropped.swap(queue_);
  }
  work_cv_.notify_all();
  idle_cv_.notify_all();
  for (Job& job : dropped) {
    job.done->set_value(Status::Aborted("background worker stopped"));
  }
  if (thread_.joinable()) thread_.join();
}

void SerialWorker::Loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stopped_ || !queue_.empty(); });
      if (stopped_) return;
      job = std::move(queue_.front());
      queue_.pop_front();
      running_ = true;
    }
    job.done->set_value(job.fn());
    {
      std::lock_guard<std::mutex> lock(mu_);
      running_ = false;
    }
    idle_cv_.notify_all();
  }
}

}  // namespace eon
