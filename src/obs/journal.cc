#include "obs/journal.h"

#include <algorithm>
#include <cstdio>

#include "common/macros.h"

namespace gammadb::obs {

const char* JournalEventKindName(JournalEventKind kind) {
  switch (kind) {
    case JournalEventKind::kStatementBegin: return "statement_begin";
    case JournalEventKind::kStatementEnd: return "statement_end";
    case JournalEventKind::kPhase: return "phase";
    case JournalEventKind::kLockWait: return "lock_wait";
    case JournalEventKind::kDeadlockVictim: return "deadlock_victim";
    case JournalEventKind::kTxnAbort: return "txn_abort";
    case JournalEventKind::kWalForce: return "wal_force";
    case JournalEventKind::kCheckpoint: return "checkpoint";
    case JournalEventKind::kFaultTransientRead: return "fault_transient_read";
    case JournalEventKind::kFaultTransientWrite:
      return "fault_transient_write";
    case JournalEventKind::kFaultCorruptRead: return "fault_corrupt_read";
    case JournalEventKind::kFaultPacketDrop: return "fault_packet_drop";
    case JournalEventKind::kFaultNodeDeath: return "fault_node_death";
    case JournalEventKind::kFailoverRetry: return "failover_retry";
    case JournalEventKind::kFatalError: return "fatal_error";
    case JournalEventKind::kCrash: return "crash";
    case JournalEventKind::kRecoverBegin: return "recover_begin";
    case JournalEventKind::kRecoverEnd: return "recover_end";
    case JournalEventKind::kMigrationBegin: return "migration_begin";
    case JournalEventKind::kMigrationEnd: return "migration_end";
    case JournalEventKind::kNodeAdded: return "node_added";
  }
  return "unknown";
}

Journal::Journal(int num_rings, size_t capacity) : capacity_(capacity) {
  GAMMA_CHECK(num_rings > 0);
  rings_.assign(static_cast<size_t>(num_rings),
                Ring{BoundedRing<JournalEvent>(capacity), 0});
}

void Journal::Push(int ring, double sim_sec, JournalEventKind kind, int64_t a,
                   int64_t b, std::string detail) {
  if (capacity_ == 0) return;
  GAMMA_CHECK(ring >= 0 && static_cast<size_t>(ring) < rings_.size());
  Ring& r = rings_[static_cast<size_t>(ring)];
  JournalEvent event;
  event.sim_sec = sim_sec;
  event.seq = r.next_seq++;
  event.kind = kind;
  event.a = a;
  event.b = b;
  event.detail = std::move(detail);
  r.events.Push(std::move(event));  // evicts the oldest once full
}

void Journal::Emit(int ring, JournalEventKind kind, int64_t a, int64_t b,
                   std::string detail) {
  Push(ring, now_, kind, a, b, std::move(detail));
}

void Journal::EmitAt(int ring, double sim_sec, JournalEventKind kind,
                     int64_t a, int64_t b, std::string detail) {
  Push(ring, sim_sec, kind, a, b, std::move(detail));
}

void Journal::Grow(int index) {
  GAMMA_CHECK(index >= 0 && static_cast<size_t>(index) <= rings_.size());
  rings_.insert(rings_.begin() + index,
                Ring{BoundedRing<JournalEvent>(capacity_), 0});
}

const BoundedRing<JournalEvent>& Journal::ring(int i) const {
  GAMMA_CHECK(i >= 0 && static_cast<size_t>(i) < rings_.size());
  return rings_[static_cast<size_t>(i)].events;
}

std::vector<Journal::MergedEvent> Journal::Merged() const {
  std::vector<MergedEvent> merged;
  size_t total = 0;
  for (const Ring& r : rings_) total += r.events.size();
  merged.reserve(total);
  for (size_t i = 0; i < rings_.size(); ++i) {
    const BoundedRing<JournalEvent>& events = rings_[i].events;
    for (size_t k = 0; k < events.size(); ++k) {
      merged.push_back(MergedEvent{static_cast<int>(i), &events[k]});
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const MergedEvent& x, const MergedEvent& y) {
              if (x.event->sim_sec != y.event->sim_sec) {
                return x.event->sim_sec < y.event->sim_sec;
              }
              if (x.ring != y.ring) return x.ring < y.ring;
              return x.event->seq < y.event->seq;
            });
  return merged;
}

uint64_t Journal::events_emitted() const {
  uint64_t total = 0;
  for (const Ring& r : rings_) total += r.next_seq;
  return total;
}

std::string Journal::RenderText(size_t max_events) const {
  const std::vector<MergedEvent> merged = Merged();
  const size_t begin =
      (max_events > 0 && merged.size() > max_events)
          ? merged.size() - max_events
          : 0;
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "journal: %llu events recorded, %zu retained%s\n",
                static_cast<unsigned long long>(events_emitted()),
                merged.size(),
                begin > 0 ? " (tail shown)" : "");
  out += line;
  std::snprintf(line, sizeof(line), "%12s %5s %6s  %-21s %12s %12s  %s\n",
                "sim_sec", "ring", "seq", "event", "a", "b", "detail");
  out += line;
  for (size_t i = begin; i < merged.size(); ++i) {
    const JournalEvent& e = *merged[i].event;
    std::snprintf(line, sizeof(line),
                  "%12.6f %5d %6llu  %-21s %12lld %12lld  %s\n", e.sim_sec,
                  merged[i].ring, static_cast<unsigned long long>(e.seq),
                  JournalEventKindName(e.kind), static_cast<long long>(e.a),
                  static_cast<long long>(e.b), e.detail.c_str());
    out += line;
  }
  return out;
}

void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x", c);
          *out += hex;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

std::string Journal::EventsJson() const {
  const std::vector<MergedEvent> merged = Merged();
  std::string out = "[";
  char buf[192];
  for (size_t i = 0; i < merged.size(); ++i) {
    const JournalEvent& e = *merged[i].event;
    std::snprintf(buf, sizeof(buf),
                  "%s\n  {\"sim_sec\": %.9f, \"ring\": %d, \"seq\": %llu, "
                  "\"kind\": \"%s\", \"a\": %lld, \"b\": %lld, \"detail\": ",
                  i == 0 ? "" : ",", e.sim_sec, merged[i].ring,
                  static_cast<unsigned long long>(e.seq),
                  JournalEventKindName(e.kind), static_cast<long long>(e.a),
                  static_cast<long long>(e.b));
    out += buf;
    AppendJsonString(e.detail, &out);
    out += "}";
  }
  out += "\n]";
  return out;
}

void Journal::Clear() {
  for (Ring& r : rings_) r.events.Clear();
}

}  // namespace gammadb::obs
