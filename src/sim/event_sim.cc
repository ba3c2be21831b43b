#include "sim/event_sim.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"

namespace gammadb::sim {

void EventQueue::At(double t, std::function<void()> fn) {
  events_.push(Event{std::max(t, now_), seq_++, std::move(fn)});
}

bool EventQueue::RunOne() {
  if (events_.empty()) return false;
  // priority_queue::top() is const; the handler is moved out via the pop.
  Event event = std::move(const_cast<Event&>(events_.top()));
  events_.pop();
  GAMMA_CHECK(event.t >= now_);
  now_ = event.t;
  event.fn();
  return true;
}

void ResourceServer::Demand(double service_sec, std::function<void()> done) {
  GAMMA_CHECK(service_sec >= 0);
  const double start = std::max(queue_->now(), free_at_);
  free_at_ = start + service_sec;
  busy_sec_ += service_sec;
  ++jobs_;
  queue_->At(free_at_, std::move(done));
}

}  // namespace gammadb::sim
