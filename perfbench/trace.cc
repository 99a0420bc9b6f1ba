#include "trace.h"

#include <sys/resource.h>

#include <chrono>
#include <fstream>

#include "util/json.h"

namespace perfbench {

namespace {

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

double ms_of(sim::Time t) { return sim::to_milliseconds(t); }

}  // namespace

HostDelta& HostDelta::operator+=(const HostDelta& other) noexcept {
  wall_s += other.wall_s;
  user_s += other.user_s;
  sys_s += other.sys_s;
  minflt += other.minflt;
  allocs += other.allocs;
  return *this;
}

double wall_now() noexcept {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

HostSample HostSample::now() {
  HostSample sample;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  sample.wall_s = wall_now();
  sample.user_s = seconds_of(usage.ru_utime);
  sample.sys_s = seconds_of(usage.ru_stime);
  sample.minflt = usage.ru_minflt;
  sample.allocs = allocation_count();
  return sample;
}

HostDelta operator-(const HostSample& end, const HostSample& start) noexcept {
  return HostDelta{end.wall_s - start.wall_s, end.user_s - start.user_s,
                   end.sys_s - start.sys_s, end.minflt - start.minflt,
                   end.allocs - start.allocs};
}

SpanLog::SpanLog(std::string workload)
    : workload_(std::move(workload)), origin_s_(wall_now()) {}

int SpanLog::open(std::string name, int parent, sim::Time sim_start) {
  HostSpan span;
  span.parent = parent;
  span.name = std::move(name);
  span.sim_start = sim_start;
  span.host_start_s = wall_now() - origin_s_;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int id, sim::Time sim_end, Attrs attrs) {
  HostSpan& span = spans_[static_cast<std::size_t>(id)];
  span.host_end_s = wall_now() - origin_s_;
  span.sim_end = sim_end;
  span.attrs = std::move(attrs);
}

void SpanLog::add_sim_span(const std::string& arm,
                           const obs::SpanRecord& span) {
  sim_spans_.push_back(SimSpan{arm, span});
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const HostSpan& span = spans_[i];
    meshnet::util::Json line = meshnet::util::Json::object();
    line.set("kind", "host");
    line.set("workload", workload_);
    line.set("id", static_cast<std::uint64_t>(i));
    line.set("parent", span.parent);
    line.set("name", span.name);
    line.set("host_start_ms", span.host_start_s * 1e3);
    line.set("host_end_ms", span.host_end_s * 1e3);
    line.set("sim_start_ms", ms_of(span.sim_start));
    line.set("sim_end_ms", ms_of(span.sim_end));
    meshnet::util::Json attrs = meshnet::util::Json::object();
    for (const auto& [key, value] : span.attrs) attrs.set(key, value);
    line.set("attrs", std::move(attrs));
    out << line.dump() << '\n';
  }
  for (const SimSpan& sim_span : sim_spans_) {
    const obs::SpanRecord& span = sim_span.record;
    meshnet::util::Json line = meshnet::util::Json::object();
    line.set("kind", "sim");
    line.set("workload", workload_);
    line.set("arm", sim_span.arm);
    line.set("trace_id", span.trace_id);
    line.set("span_id", span.span_id);
    line.set("parent_span_id", span.parent_span_id);
    line.set("service", span.service);
    line.set("operation", span.operation);
    line.set("sim_start_ms", ms_of(span.start));
    line.set("sim_end_ms", ms_of(span.end));
    line.set("error", span.error);
    out << line.dump() << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
