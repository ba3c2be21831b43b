#ifndef GAMMA_SIM_EVENT_SIM_H_
#define GAMMA_SIM_EVENT_SIM_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace gammadb::sim {

/// \brief Deterministic discrete-event queue for the multi-user scheduler.
///
/// Events fire in (time, insertion order) — ties resolve by the order the
/// events were scheduled, so a run is a pure function of the schedule. The
/// event loop itself is single-threaded; any real query execution an event
/// triggers goes through the (already deterministic) host pool.
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  double now() const { return now_; }

  /// Schedules `fn` at absolute simulated time `t` (clamped to now()).
  void At(double t, std::function<void()> fn);
  void After(double dt, std::function<void()> fn) { At(now_ + dt, std::move(fn)); }

  /// Pops and runs the next event. Returns false when the queue is empty.
  bool RunOne();

  size_t pending() const { return events_.size(); }

 private:
  struct Event {
    double t;
    uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> events_;
  double now_ = 0;
  uint64_t seq_ = 0;
};

/// \brief FIFO single server for one simulated resource (a node's disk, CPU
/// or NIC, or the shared token ring).
///
/// Demands queue in arrival order: a job arriving at `now` starts at
/// max(now, previous completion) and completes `service_sec` later, when
/// `done` fires. Tracks busy seconds for utilization reporting.
class ResourceServer {
 public:
  explicit ResourceServer(EventQueue* queue) : queue_(queue) {}
  ResourceServer(const ResourceServer&) = delete;
  ResourceServer& operator=(const ResourceServer&) = delete;

  void Demand(double service_sec, std::function<void()> done);

  double busy_sec() const { return busy_sec_; }
  uint64_t jobs() const { return jobs_; }
  double Utilization(double elapsed_sec) const {
    return elapsed_sec > 0 ? busy_sec_ / elapsed_sec : 0;
  }

 private:
  EventQueue* queue_;
  double free_at_ = 0;
  double busy_sec_ = 0;
  uint64_t jobs_ = 0;
};

}  // namespace gammadb::sim

#endif  // GAMMA_SIM_EVENT_SIM_H_
