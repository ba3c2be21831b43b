#include "obs/chrome_trace.h"

#include <cstdio>
#include <map>
#include <utility>

#include "obs/journal.h"

namespace gammadb::obs {

namespace {

constexpr int kMachineTrack = 0;
constexpr int kRingTrack = 1;
constexpr int kNodeTrackBase = 2;
constexpr int kDevicesPerNode = 5;  // task + serial/disk/cpu/net lanes

/// Stable small tid per span: grouping spans share the machine track, the
/// ring has its own, and each (node, device) pair gets a dedicated lane so
/// a node's overlapping disk/cpu/net intervals render side by side.
int TrackFor(const Span& span) {
  if (span.device == Device::kRing) return kRingTrack;
  if (span.node < 0) return kMachineTrack;
  int lane = 0;  // the node's task span
  switch (span.device) {
    case Device::kSerial:
      lane = 1;
      break;
    case Device::kDisk:
      lane = 2;
      break;
    case Device::kCpu:
      lane = 3;
      break;
    case Device::kNet:
      lane = 4;
      break;
    case Device::kNone:
    case Device::kRing:
      lane = 0;
      break;
  }
  return kNodeTrackBase + span.node * kDevicesPerNode + lane;
}

std::string TrackName(const Span& span, int tid) {
  if (tid == kMachineTrack) return "machine";
  if (tid == kRingTrack) return "ring";
  std::string name = "node" + std::to_string(span.node);
  if (span.device != Device::kNone) {
    name += ".";
    name += DeviceName(span.device);
  } else {
    name += ".task";
  }
  return name;
}

/// Appends one profile's thread_name metadata and span events under `pid`
/// (the shared body of the single- and multi-statement renderings).
void AppendProfileEvents(std::string* out, const Profile& profile, int pid,
                         bool* first) {
  char buf[256];
  // thread_name metadata, emitted once per track in first-use order.
  std::map<int, std::string> tracks;
  for (const Span& span : profile.spans) {
    const int tid = TrackFor(span);
    tracks.emplace(tid, TrackName(span, tid));
  }
  for (const auto& [tid, name] : tracks) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,"
                  "\"tid\":%d,\"args\":{\"name\":",
                  *first ? "" : ",", pid, tid);
    *out += buf;
    AppendJsonString(name, out);
    *out += "}}";
    *first = false;
  }

  for (const Span& span : profile.spans) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":", *first ? "" : ",");
    *out += buf;
    AppendJsonString(span.name, out);
    // Simulated seconds -> microseconds; fixed precision keeps the bytes
    // identical whenever the profile is.
    std::snprintf(buf, sizeof(buf),
                  ",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f",
                  span.device == Device::kNone ? "span" : "device", pid,
                  TrackFor(span), span.begin_sec * 1e6, span.dur_sec * 1e6);
    *out += buf;
    if (span.phase >= 0) {
      std::snprintf(buf, sizeof(buf), ",\"args\":{\"phase\":%d}", span.phase);
      *out += buf;
    }
    *out += "}";
    *first = false;
  }
}

}  // namespace

std::string ChromeTraceJson(const Profile& profile) {
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  bool first = true;
  AppendProfileEvents(&out, profile, /*pid=*/1, &first);

  out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"machine\":";
  AppendJsonString(profile.machine, &out);
  out += ",\"label\":";
  AppendJsonString(profile.label, &out);
  std::snprintf(buf, sizeof(buf),
                ",\"total_sec\":%.6f,\"disk_busy_frac\":%.6f,"
                "\"cpu_busy_frac\":%.6f,\"net_busy_frac\":%.6f,"
                "\"ring_busy_frac\":%.6f,\"critical_resource\":\"%s\"}}",
                profile.total_sec, profile.util.disk_busy_frac,
                profile.util.cpu_busy_frac, profile.util.net_busy_frac,
                profile.util.ring_busy_frac,
                profile.util.critical_resource.c_str());
  out += buf;
  return out;
}

namespace {

bool WriteString(const std::string& json, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = written == json.size() && std::fclose(f) == 0;
  if (!ok && written != json.size()) std::fclose(f);
  return ok;
}

}  // namespace

bool WriteChromeTrace(const Profile& profile, const std::string& path) {
  return WriteString(ChromeTraceJson(profile), path);
}

std::string ChromeTraceJsonAll(
    const std::vector<std::shared_ptr<const Profile>>& profiles) {
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  bool first = true;
  int pid = 0;
  for (const std::shared_ptr<const Profile>& profile : profiles) {
    if (profile == nullptr) continue;
    ++pid;
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                  "\"args\":{\"name\":",
                  first ? "" : ",", pid);
    out += buf;
    AppendJsonString(std::to_string(pid - 1) + ":" + profile->label, &out);
    out += "}}";
    first = false;
    AppendProfileEvents(&out, *profile, pid, &first);
  }
  std::snprintf(buf, sizeof(buf),
                "],\"displayTimeUnit\":\"ms\",\"otherData\":{"
                "\"statements\":%d}}",
                pid);
  out += buf;
  return out;
}

bool WriteChromeTraceAll(
    const std::vector<std::shared_ptr<const Profile>>& profiles,
    const std::string& path) {
  return WriteString(ChromeTraceJsonAll(profiles), path);
}

}  // namespace gammadb::obs
