#include "obs/trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "support/atomic_file.hpp"

namespace tvnep::obs {

std::atomic<bool> Tracer::active_{false};

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  return buffer;
}

Tracer::Tracer() : epoch_(MonotonicClock::now()) {}

Tracer& Tracer::instance() {
  // Intentionally leaked: flushing sessions (bench ObsSession statics) and
  // exiting pool threads may touch the tracer during static destruction,
  // so the singleton must outlive every other static.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::start() { active_.store(true, std::memory_order_relaxed); }

void Tracer::stop() { active_.store(false, std::memory_order_relaxed); }

void Tracer::reset() {
  std::lock_guard<std::mutex> registry_lock(registry_mutex_);
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> shard_lock(shard->mutex);
    shard->events.clear();
  }
}

std::int64_t Tracer::now_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             MonotonicClock::now() - epoch_)
      .count();
}

Tracer::Shard& Tracer::local_shard() {
  // The pointer outlives the thread's use of it because shards are never
  // deallocated (reset() only clears their event vectors); threads created
  // later register fresh shards.
  thread_local Shard* shard = nullptr;
  if (shard == nullptr) {
    auto owned = std::make_unique<Shard>();
    std::lock_guard<std::mutex> lock(registry_mutex_);
    owned->tid = static_cast<std::uint32_t>(shards_.size() + 1);
    shard = owned.get();
    shards_.push_back(std::move(owned));
  }
  return *shard;
}

void Tracer::record_complete(const char* name, const char* cat,
                             std::int64_t ts_us, std::int64_t dur_us,
                             std::string args) {
  Shard& shard = local_shard();
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.events.push_back(
      {name, cat, 'X', shard.tid, ts_us, dur_us, std::move(args), {}});
}

void Tracer::record_instant(const char* name, const char* cat,
                            std::string args) {
  Shard& shard = local_shard();
  const std::int64_t ts = now_us();
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.events.push_back(
      {name, cat, 'i', shard.tid, ts, 0, std::move(args), {}});
}

void Tracer::record_async_begin(const char* name, const char* cat,
                                std::string id, std::string args) {
  Shard& shard = local_shard();
  const std::int64_t ts = now_us();
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.events.push_back(
      {name, cat, 'b', shard.tid, ts, 0, std::move(args), std::move(id)});
}

void Tracer::record_async_end(const char* name, const char* cat,
                              std::string id, std::string args) {
  Shard& shard = local_shard();
  const std::int64_t ts = now_us();
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.events.push_back(
      {name, cat, 'e', shard.tid, ts, 0, std::move(args), std::move(id)});
}

namespace {

void sort_events(std::vector<TraceEvent>& events) {
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              return a.dur_us > b.dur_us;  // enclosing span first
            });
}

}  // namespace

std::vector<TraceEvent> Tracer::snapshot() const {
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> registry_lock(registry_mutex_);
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> shard_lock(shard->mutex);
      out.insert(out.end(), shard->events.begin(), shard->events.end());
    }
  }
  sort_events(out);
  return out;
}

std::vector<TraceEvent> Tracer::drain() {
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> registry_lock(registry_mutex_);
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> shard_lock(shard->mutex);
      out.insert(out.end(),
                 std::make_move_iterator(shard->events.begin()),
                 std::make_move_iterator(shard->events.end()));
      shard->events.clear();
    }
  }
  sort_events(out);
  return out;
}

std::string render_trace_event(const TraceEvent& e) {
  std::string out = "{\"name\":\"" + json_escape(e.name) + "\",\"cat\":\"" +
                    json_escape(e.cat) + "\",\"ph\":\"";
  out += e.phase;
  out += "\",\"pid\":1,\"tid\":" + std::to_string(e.tid) +
         ",\"ts\":" + std::to_string(e.ts_us);
  if (e.phase == 'X') out += ",\"dur\":" + std::to_string(e.dur_us);
  if (e.phase == 'i') out += ",\"s\":\"t\"";
  if (e.phase == 'b' || e.phase == 'e')
    out += ",\"id\":\"" + json_escape(e.id) + "\"";
  if (!e.args.empty()) out += ",\"args\":{" + e.args + '}';
  out += '}';
  return out;
}

namespace {

void write_event_body(std::ostream& os, const TraceEvent& e) {
  os << render_trace_event(e);
}

}  // namespace

bool Tracer::write_chrome_trace(const std::string& path) const {
  AtomicFile file(path);
  std::ostream& os = file.stream();
  const std::vector<TraceEvent> events = snapshot();
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) os << ",";
    os << '\n';
    write_event_body(os, e);
    first = false;
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return file.commit();
}

bool Tracer::write_jsonl(const std::string& path) const {
  AtomicFile file(path);
  std::ostream& os = file.stream();
  for (const TraceEvent& e : snapshot()) {
    write_event_body(os, e);
    os << '\n';
  }
  return file.commit();
}

void SpanScope::begin(const char* name, const char* cat, std::string args) {
  name_ = name;
  cat_ = cat;
  args_ = std::move(args);
  start_us_ = Tracer::instance().now_us();
}

void SpanScope::end() {
  Tracer& tracer = Tracer::instance();
  tracer.record_complete(name_, cat_, start_us_,
                         tracer.now_us() - start_us_, std::move(args_));
}

}  // namespace tvnep::obs
