#include "obs/obs.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>

namespace raidx::obs {

const char* track_name(Track t) {
  switch (t) {
    case Track::kRequest: return "request";
    case Track::kDisk: return "disk";
    case Track::kBus: return "bus";
    case Track::kNetTx: return "link.tx";
    case Track::kNetRx: return "link.rx";
    case Track::kServer: return "server";
    case Track::kWan: return "wan";
  }
  return "unknown";
}

namespace {

// SplitMix64: the sampling coin.  Hashing (seed ^ trace id) keeps the
// decision deterministic per trace and independent of arrival order.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Trace id that is never minted (real ids start at 2^32 + 1): children of
// a discarded trace inherit it and stay discarded instead of minting
// fresh roots.
constexpr std::uint64_t kDiscardedTrace = 1;

}  // namespace

void Tracer::set_selective(const SampleConfig& cfg) {
  selective_ = true;
  sample_cfg_ = cfg;
  if (cfg.probability >= 1.0) {
    sample_threshold_ = ~0ull;
  } else if (cfg.probability <= 0.0) {
    sample_threshold_ = 0;
  } else {
    sample_threshold_ = static_cast<std::uint64_t>(
        cfg.probability * 18446744073709551616.0 /* 2^64 */);
  }
}

std::size_t Tracer::begin_span(const TraceContext& parent, const char* name,
                               Track track, int idx, sim::Time now,
                               const SpanArgs& args) {
  if (selective_) {
    return begin_span_selective(parent, name, track, idx, now, args);
  }
  SpanRecord rec;
  rec.id = ++next_span_;
  rec.trace = parent.active() ? parent.trace : ++next_trace_ + (1ull << 32);
  rec.parent = parent.active() ? parent.parent : 0;
  rec.begin = now;
  rec.name = name;
  rec.track = track;
  rec.idx = idx;
  rec.depth = parent.active() ? parent.depth : 0;
  rec.args = args;
  spans_.push_back(rec);
  return spans_.size() - 1;
}

std::size_t Tracer::begin_span_selective(const TraceContext& parent,
                                         const char* name, Track track,
                                         int idx, sim::Time now,
                                         const SpanArgs& args) {
  std::uint64_t trace;
  if (parent.active()) {
    trace = parent.trace;
    auto it = pending_.find(trace);
    if (it == pending_.end()) return kNullHandle;  // discarded trace
    if (it->second.resolved && !it->second.kept) return kNullHandle;
  } else {
    trace = ++next_trace_ + (1ull << 32);
    PendingTrace pt;
    if (sample_threshold_ != 0 &&
        (sample_threshold_ == ~0ull ||
         splitmix64(sample_cfg_.seed ^ trace) < sample_threshold_)) {
      pt.sampled = true;
      pt.kept = true;
      ++sampled_kept_;
    }
    pending_.emplace(trace, std::move(pt));
  }
  PendingTrace& pt = pending_[trace];
  SpanRecord rec;
  rec.id = ++next_span_;
  rec.trace = trace;
  rec.parent = parent.active() ? parent.parent : 0;
  rec.begin = now;
  rec.name = name;
  rec.track = track;
  rec.idx = idx;
  rec.depth = parent.active() ? parent.depth : 0;
  rec.args = args;
  open_.emplace(rec.id,
                std::make_pair(trace,
                               static_cast<std::uint32_t>(pt.spans.size())));
  pt.spans.push_back(rec);
  ++pt.open;
  return static_cast<std::size_t>(rec.id);
}

void Tracer::end_span(std::size_t handle, sim::Time now) {
  if (!selective_) {
    spans_[handle].end = now;
    return;
  }
  if (handle == kNullHandle) return;
  auto it = open_.find(static_cast<std::uint64_t>(handle));
  if (it == open_.end()) return;  // trace was dropped while the span ran
  const auto [trace, idx] = it->second;
  open_.erase(it);
  auto pit = pending_.find(trace);
  if (pit == pending_.end()) return;
  PendingTrace& pt = pit->second;
  SpanRecord& rec = pt.spans[idx];
  rec.end = now;
  --pt.open;
  // A root span (no parent, depth 0) completing resolves the trace: it
  // either holds a reservoir slot or -- unless sampled -- is discarded.
  if (rec.parent == 0 && rec.depth == 0 && !pt.resolved) {
    resolve_trace(trace, pt, now);
  }
  drop_if_dead(trace);
}

void Tracer::resolve_trace(std::uint64_t trace, PendingTrace& pt,
                           sim::Time /*now*/) {
  pt.resolved = true;
  pt.duration = pt.spans[0].end - pt.spans[0].begin;
  if (pt.sampled || sample_cfg_.reservoir == 0) return;
  if (reservoir_.size() < sample_cfg_.reservoir) {
    reservoir_.emplace(pt.duration, trace);
    pt.kept = true;
    return;
  }
  auto fastest = reservoir_.begin();  // current K-th slowest
  if (pt.duration <= fastest->first) return;  // ties keep the incumbent
  const std::uint64_t evicted = fastest->second;
  reservoir_.erase(fastest);
  reservoir_.emplace(pt.duration, trace);
  pt.kept = true;
  auto eit = pending_.find(evicted);
  if (eit != pending_.end() && !eit->second.sampled) {
    eit->second.kept = false;
    drop_if_dead(evicted);
  }
}

void Tracer::drop_if_dead(std::uint64_t trace) {
  auto it = pending_.find(trace);
  if (it == pending_.end()) return;
  const PendingTrace& pt = it->second;
  if (pt.resolved && !pt.kept && pt.open == 0) pending_.erase(it);
}

void Tracer::add_tag(std::size_t handle, const char* key,
                     std::int64_t value) {
  if (!selective_) {
    spans_[handle].args.tag(key, value);
    return;
  }
  if (handle == kNullHandle) return;
  auto it = open_.find(static_cast<std::uint64_t>(handle));
  if (it == open_.end()) return;
  auto pit = pending_.find(it->second.first);
  if (pit == pending_.end()) return;
  pit->second.spans[it->second.second].args.tag(key, value);
}

TraceContext Tracer::context_of(std::size_t handle) const {
  if (!selective_) {
    const SpanRecord& rec = spans_[handle];
    return TraceContext{rec.trace, rec.id, 0,
                        static_cast<std::uint16_t>(rec.depth + 1)};
  }
  if (handle != kNullHandle) {
    auto it = open_.find(static_cast<std::uint64_t>(handle));
    if (it != open_.end()) {
      auto pit = pending_.find(it->second.first);
      if (pit != pending_.end()) {
        const SpanRecord& rec = pit->second.spans[it->second.second];
        return TraceContext{rec.trace, rec.id, 0,
                            static_cast<std::uint16_t>(rec.depth + 1)};
      }
    }
  }
  return TraceContext{kDiscardedTrace, 0, 0, 1};
}

std::vector<std::pair<sim::Time, std::uint64_t>> Tracer::reservoir_entries()
    const {
  std::vector<std::pair<sim::Time, std::uint64_t>> out(reservoir_.rbegin(),
                                                       reservoir_.rend());
  return out;
}

std::vector<std::uint64_t> Tracer::kept_traces() const {
  std::vector<std::uint64_t> out;
  for (const auto& [trace, pt] : pending_) {
    if (pt.kept) out.push_back(trace);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<SpanRecord> Tracer::collect_selective(bool reservoir_only) const {
  std::vector<SpanRecord> out;
  for (const auto& [trace, pt] : pending_) {
    if (reservoir_only
            ? reservoir_.count({pt.duration, trace}) == 0 || !pt.resolved
            : !pt.kept) {
      continue;
    }
    out.insert(out.end(), pt.spans.begin(), pt.spans.end());
  }
  // Span ids are globally sequential, so sorting by id restores the exact
  // recording order regardless of hash-map iteration.
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.id < b.id; });
  return out;
}

namespace {

// Microsecond timestamps with nanosecond precision kept as a decimal.
void append_ts(std::string& out, sim::Time ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%" PRId64 ".%03d", ns / 1000,
                static_cast<int>(ns % 1000));
  out += buf;
}

void append_args(std::string& out, const SpanRecord& rec) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"args\":{\"span\":%" PRIu64
                                  ",\"parent\":%" PRIu64,
                rec.id, rec.parent);
  out += buf;
  for (std::uint8_t i = 0; i < rec.args.n; ++i) {
    std::snprintf(buf, sizeof(buf), ",\"%s\":%" PRId64,
                  rec.args.tags[i].key, rec.args.tags[i].value);
    out += buf;
  }
  out += "}";
}

struct ChromeEvent {
  sim::Time ts;
  // Same-timestamp ordering so viewers nest correctly: ends before
  // begins, deeper ends before shallower ends, shallower begins before
  // deeper begins.  X events last (they carry their own duration).
  int phase_rank;
  int depth_key;
  std::uint64_t seq;
  std::string json;
};

}  // namespace

bool Tracer::export_chrome(const std::string& path, sim::Time now,
                           std::string* err) const {
  if (selective_) {
    return write_chrome(path, collect_selective(/*reservoir_only=*/false),
                        now, err);
  }
  return write_chrome(path, spans_, now, err);
}

bool Tracer::export_chrome_reservoir(const std::string& path, sim::Time now,
                                     std::string* err) const {
  if (!selective_) {
    if (err != nullptr) {
      *err = "reservoir export requires selective tracing";
    }
    return false;
  }
  return write_chrome(path, collect_selective(/*reservoir_only=*/true), now,
                      err);
}

bool Tracer::write_chrome(const std::string& path,
                          const std::vector<SpanRecord>& spans,
                          sim::Time now, std::string* err) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    if (err != nullptr) *err = "cannot open trace output '" + path + "'";
    return false;
  }

  std::vector<ChromeEvent> events;
  events.reserve(spans.size() * 2 + 16);
  char buf[256];

  // Lane naming: pid 1 carries the async request-flow view; each resource
  // track gets its own pid with one tid per resource instance.
  auto pid_of = [](Track t) { return t == Track::kRequest ? 1 : 10 + static_cast<int>(t); };
  std::vector<std::pair<int, int>> lanes;  // (pid, tid) seen for X events

  std::uint64_t seq = 0;
  for (const SpanRecord& rec : spans) {
    const sim::Time end = rec.end >= 0 ? rec.end : now;
    if (rec.track == Track::kRequest) {
      std::string b = "{\"ph\":\"b\",\"cat\":\"req\",\"id\":\"0x";
      std::snprintf(buf, sizeof(buf), "%" PRIx64, rec.trace);
      b += buf;
      b += "\",\"pid\":1,\"tid\":0,\"name\":\"";
      b += rec.name;
      b += "\",\"ts\":";
      append_ts(b, rec.begin);
      b += ",";
      append_args(b, rec);
      b += "}";
      events.push_back({rec.begin, 1, rec.depth, seq++, std::move(b)});

      std::string e = "{\"ph\":\"e\",\"cat\":\"req\",\"id\":\"0x";
      std::snprintf(buf, sizeof(buf), "%" PRIx64, rec.trace);
      e += buf;
      e += "\",\"pid\":1,\"tid\":0,\"name\":\"";
      e += rec.name;
      e += "\",\"ts\":";
      append_ts(e, end);
      // The span id lets offline tools (tools/trace_report.py) pair each
      // "e" with its "b" without relying on nesting order.
      std::snprintf(buf, sizeof(buf), ",\"args\":{\"span\":%" PRIu64 "}",
                    rec.id);
      e += buf;
      e += "}";
      events.push_back({end, 0, -rec.depth, seq++, std::move(e)});
    } else {
      const int pid = pid_of(rec.track);
      const int tid = rec.idx;
      if (std::find(lanes.begin(), lanes.end(),
                    std::make_pair(pid, tid)) == lanes.end()) {
        lanes.emplace_back(pid, tid);
      }
      std::string x = "{\"ph\":\"X\",\"pid\":";
      x += std::to_string(pid);
      x += ",\"tid\":";
      x += std::to_string(tid);
      x += ",\"name\":\"";
      x += rec.name;
      x += "\",\"ts\":";
      append_ts(x, rec.begin);
      x += ",\"dur\":";
      append_ts(x, end - rec.begin);
      x += ",";
      append_args(x, rec);
      x += "}";
      events.push_back({rec.begin, 2, rec.depth, seq++, std::move(x)});
    }
  }

  std::sort(events.begin(), events.end(),
            [](const ChromeEvent& a, const ChromeEvent& b) {
              if (a.ts != b.ts) return a.ts < b.ts;
              if (a.phase_rank != b.phase_rank)
                return a.phase_rank < b.phase_rank;
              if (a.depth_key != b.depth_key) return a.depth_key < b.depth_key;
              return a.seq < b.seq;
            });

  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  bool first = true;
  // Metadata first: name the request lane and each resource row.
  auto meta = [&](const char* what, int pid, int tid, const std::string& name,
                  const char* arg_key) {
    if (!first) std::fputs(",\n", f);
    first = false;
    std::fprintf(f,
                 "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"%s\","
                 "\"args\":{\"%s\":\"%s\"}}",
                 pid, tid, what, arg_key, name.c_str());
  };
  meta("process_name", 1, 0, "requests", "name");
  std::sort(lanes.begin(), lanes.end());
  int last_pid = -1;
  for (const auto& [pid, tid] : lanes) {
    const Track t = static_cast<Track>(pid - 10);
    if (pid != last_pid) {
      meta("process_name", pid, 0, track_name(t), "name");
      last_pid = pid;
    }
    std::snprintf(buf, sizeof(buf), "%s.%03d", track_name(t), tid);
    meta("thread_name", pid, tid, buf, "name");
  }
  for (const ChromeEvent& ev : events) {
    if (!first) std::fputs(",\n", f);
    first = false;
    std::fputs(ev.json.c_str(), f);
  }
  std::fputs("\n]}\n", f);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok && err != nullptr) *err = "write error on '" + path + "'";
  return ok;
}

void Timeline::add_busy(sim::Time begin, sim::Time end) {
  if (end <= begin) return;
  // Busy intervals arrive in near time order, so most fall inside the
  // window the previous one ended in: add there with no division.  The
  // general path would add the same chunk to the same slot.
  if (begin >= last_begin_ && end <= last_end_) {
    busy_ns_[last_] += static_cast<double>(end - begin);
    return;
  }
  const std::size_t last = static_cast<std::size_t>((end - 1) / window_);
  if (last >= busy_ns_.size()) busy_ns_.resize(last + 1, 0.0);
  sim::Time t = begin;
  while (t < end) {
    const std::size_t w = static_cast<std::size_t>(t / window_);
    const sim::Time wend = static_cast<sim::Time>(w + 1) * window_;
    const sim::Time chunk = std::min(end, wend) - t;
    busy_ns_[w] += static_cast<double>(chunk);
    t += chunk;
  }
  last_ = last;
  last_begin_ = static_cast<sim::Time>(last) * window_;
  last_end_ = last_begin_ + window_;
}

std::vector<double> Timeline::utilization() const {
  std::vector<double> out(busy_ns_.size());
  for (std::size_t i = 0; i < busy_ns_.size(); ++i) {
    out[i] = busy_ns_[i] / static_cast<double>(window_);
  }
  return out;
}

void MaxTimeline::sample(sim::Time at, std::int64_t value) {
  const std::size_t w = static_cast<std::size_t>(at / window_);
  if (w >= max_.size()) max_.resize(w + 1, 0);
  if (value > max_[w]) max_[w] = value;
}

Timeline& Timelines::busy(Track track, int idx) {
  return busy_.try_emplace({static_cast<int>(track), idx}, window_)
      .first->second;
}

MaxTimeline& Timelines::depth(Track track, int idx) {
  return depth_.try_emplace({static_cast<int>(track), idx}, window_)
      .first->second;
}

std::string Timelines::json() const {
  char buf[64];
  std::string out = "{\"window_ms\":";
  std::snprintf(buf, sizeof(buf), "%.6g", sim::to_milliseconds(window_));
  out += buf;
  out += ",\"busy\":{";
  bool first = true;
  for (const auto& [key, tl] : busy_) {
    if (!first) out += ",";
    first = false;
    std::snprintf(buf, sizeof(buf), "\"%s.%03d\":[",
                  track_name(static_cast<Track>(key.first)), key.second);
    out += buf;
    bool vfirst = true;
    for (double v : tl.utilization()) {
      if (!vfirst) out += ",";
      vfirst = false;
      std::snprintf(buf, sizeof(buf), "%.4f", v);
      out += buf;
    }
    out += "]";
  }
  out += "},\"depth\":{";
  first = true;
  for (const auto& [key, tl] : depth_) {
    if (!first) out += ",";
    first = false;
    std::snprintf(buf, sizeof(buf), "\"%s.%03d\":[",
                  track_name(static_cast<Track>(key.first)), key.second);
    out += buf;
    bool vfirst = true;
    for (std::int64_t v : tl.maxima()) {
      if (!vfirst) out += ",";
      vfirst = false;
      std::snprintf(buf, sizeof(buf), "%" PRId64, v);
      out += buf;
    }
    out += "]";
  }
  out += "}}";
  return out;
}

}  // namespace raidx::obs
