#ifndef EON_COMMON_SERIAL_WORKER_H_
#define EON_COMMON_SERIAL_WORKER_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"

namespace eon {

/// One background thread that runs posted jobs one at a time, in post
/// order — the cluster's Tuple Mover service thread.
///
/// Jobs carry a key. A post whose key matches a job that is queued and
/// not yet started joins that job instead of queueing a second one, so a
/// burst of triggers for one table costs one run. A started job absorbs
/// nothing (it has already taken its snapshot): a post during the run
/// queues the next one.
///
/// Stop() drops every queued job (its result reads Aborted), waits for
/// the running one and joins the thread; later posts are refused the
/// same way. The destructor calls Stop().
class SerialWorker {
 public:
  SerialWorker();
  ~SerialWorker();

  SerialWorker(const SerialWorker&) = delete;
  SerialWorker& operator=(const SerialWorker&) = delete;

  /// Queue `fn` under `key`, or join the queued job with that key. The
  /// future reads the status of the job that will run (or Aborted if it
  /// is dropped).
  std::shared_future<Status> Post(const std::string& key,
                                  std::function<Status()> fn);

  /// Block until nothing is queued or running.
  void Drain();

  /// Idempotent; call from one thread (the owner's destructor).
  void Stop();

 private:
  struct Job {
    std::string key;
    std::function<Status()> fn;
    std::shared_ptr<std::promise<Status>> done;
    std::shared_future<Status> result;
  };

  void Loop();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<Job> queue_;
  bool running_ = false;
  bool stopped_ = false;
  std::thread thread_;
};

}  // namespace eon

#endif  // EON_COMMON_SERIAL_WORKER_H_
