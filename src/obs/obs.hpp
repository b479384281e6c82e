// Cross-layer request tracing: per-request TraceContext threaded through
// the coroutine task chain, RAII spans at every layer boundary, Chrome
// trace-event JSON export, and event-fed utilization timelines.
//
// Invariants this file is built around:
//
//  * Observation never perturbs the simulation.  No function here awaits,
//    delays, or schedules; spans and timeline samples only *record*
//    sim.now() at points the instrumented code already reaches.  A traced
//    run therefore produces bit-identical simulated numbers to an
//    untraced one.
//
//  * Disabled means absent.  The whole substrate hangs off a single
//    `obs::Hub*` on sim::Simulation, null by default; every hook is a
//    pointer test on a hot-cache word.  Reference runs stay bit-identical
//    because no obs object even exists.
//
//  * Spans live in coroutine *bodies*, never in parameters.  A coroutine
//    frame (and its parameters) is destroyed when the task object is
//    reaped, which can be long after the body finished at a later
//    simulated time; body-local variables are destroyed exactly when the
//    body completes, which is the correct span end time.  A frameless
//    callback chain keeps its spans in its pooled record and closes each
//    explicitly at the step where a body would have ended it.
//
// Context threading is explicit -- `obs::TraceContext ctx = {}` default
// arguments down the layer stack -- because interleaved coroutine
// resumption makes any ambient "current span" global stale after the
// first co_await.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace raidx::obs {

/// Identity a request carries across layers (and across nodes inside a
/// cdd::Request).  trace == 0 means "not being traced".
struct TraceContext {
  std::uint64_t trace = 0;   // request identity; 0 = none
  std::uint64_t parent = 0;  // enclosing span id
  std::uint64_t attr = 0;    // Attribution slot reference; 0 = none
  std::uint16_t depth = 0;   // nesting depth of the enclosing span

  bool active() const { return trace != 0; }
};

/// Which lane a span renders on in the Chrome trace.  kRequest spans are
/// async begin/end events grouped per trace id (the request flow view);
/// the rest are complete ("X") events on per-resource rows (the resource
/// occupancy view, e.g. one row per disk arm).
enum class Track : std::uint8_t {
  kRequest = 0,
  kDisk,    // idx = global disk id; span == arm occupancy
  kBus,     // idx = node id; SCSI bus transfer
  kNetTx,   // idx = sender node; TX port occupancy
  kNetRx,   // idx = receiver node; RX port occupancy
  kServer,  // idx = node id; CDD/NFS server-side handling
  kWan,     // idx = 2*link id + direction (0 = a->b); inter-site pipe
};

const char* track_name(Track t);

/// Up to six integer tags (node, disk, lba, ...).  Fixed-size by design:
/// no allocation on the record path.  Call sites never build one
/// themselves: trace_span() hands one to their tag builder only when the
/// span is recorded.
struct SpanArgs {
  struct Tag {
    const char* key = nullptr;
    std::int64_t value = 0;
  };
  std::array<Tag, 6> tags{};
  std::uint8_t n = 0;

  SpanArgs& tag(const char* key, std::int64_t value) {
    if (n < tags.size()) tags[n++] = {key, value};
    return *this;
  }
};

/// One recorded span.  `end < 0` while still open.
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t trace = 0;
  std::uint64_t parent = 0;
  sim::Time begin = 0;
  sim::Time end = -1;
  const char* name = "";
  Track track = Track::kRequest;
  int idx = 0;
  std::uint16_t depth = 0;
  SpanArgs args;
};

/// Head-based sampling + slow-request reservoir parameters for the
/// tracer's selective mode.
struct SampleConfig {
  /// Probability a new root trace is kept outright.  Deterministic: the
  /// decision hashes (seed, trace id), so identically seeded runs keep
  /// identical trace sets.
  double probability = 0.0;
  /// Always-capture reservoir: the K slowest *completed* requests are
  /// retained regardless of the sampling coin.
  std::size_t reservoir = 0;
  std::uint64_t seed = 1;
};

/// Append-only span store.  Handles are indices into spans_, stable under
/// growth.  All ids are sequentially assigned, so two identically seeded
/// runs record identical span tables.
///
/// Selective mode (set_selective) replaces the unbounded table with
/// per-trace buffers: a new root trace is either kept (sampling coin) or
/// provisionally buffered; when its root span completes it competes for a
/// slot in the K-slowest reservoir, and traces that lose are discarded --
/// including spans that arrive after the verdict (handles for discarded
/// traces are an inert sentinel).  Memory is bounded by (in-flight traces
/// + kept traces), not by run length, which is what lets tracing stay on
/// through saturation runs.
class Tracer {
 public:
  static constexpr std::size_t kNullHandle = ~static_cast<std::size_t>(0);

  std::size_t begin_span(const TraceContext& parent, const char* name,
                         Track track, int idx, sim::Time now,
                         const SpanArgs& args);
  void end_span(std::size_t handle, sim::Time now);
  void add_tag(std::size_t handle, const char* key, std::int64_t value);
  TraceContext context_of(std::size_t handle) const;

  /// Switch to selective (sampled + reservoir) recording.  Call before any
  /// spans are recorded.
  void set_selective(const SampleConfig& cfg);
  bool selective() const { return selective_; }

  const std::vector<SpanRecord>& spans() const { return spans_; }
  std::uint64_t traces_started() const { return next_trace_; }

  /// Selective-mode accounting: kept-by-coin roots, current reservoir
  /// occupancy, and the reservoir's (duration, trace id) entries ordered
  /// slowest first.
  std::uint64_t sampled_kept() const { return sampled_kept_; }
  std::size_t reservoir_count() const { return reservoir_.size(); }
  std::vector<std::pair<sim::Time, std::uint64_t>> reservoir_entries() const;
  /// Trace ids retained (sampled or reservoir), sorted ascending.
  std::vector<std::uint64_t> kept_traces() const;

  /// Write the span table as Chrome trace-event JSON ("traceEvents"
  /// array format).  Spans still open are closed at `now`.  Returns false
  /// and fills *err if the file cannot be written.  In selective mode,
  /// exports the kept traces (sampled + reservoir).
  bool export_chrome(const std::string& path, sim::Time now,
                     std::string* err) const;
  /// Selective mode only: export just the slow-request reservoir.
  bool export_chrome_reservoir(const std::string& path, sim::Time now,
                               std::string* err) const;

 private:
  struct PendingTrace {
    std::vector<SpanRecord> spans;
    std::uint32_t open = 0;   // spans begun but not yet ended
    bool sampled = false;     // won the coin: kept unconditionally
    bool kept = false;        // sampled, or currently in the reservoir
    bool resolved = false;    // root span has completed
    sim::Time duration = 0;   // root span duration once resolved
  };

  std::size_t begin_span_selective(const TraceContext& parent,
                                   const char* name, Track track, int idx,
                                   sim::Time now, const SpanArgs& args);
  void resolve_trace(std::uint64_t trace, PendingTrace& pt, sim::Time now);
  void drop_if_dead(std::uint64_t trace);
  std::vector<SpanRecord> collect_selective(bool reservoir_only) const;
  bool write_chrome(const std::string& path,
                    const std::vector<SpanRecord>& spans, sim::Time now,
                    std::string* err) const;

  std::vector<SpanRecord> spans_;
  std::uint64_t next_trace_ = 0;
  std::uint64_t next_span_ = 0;

  bool selective_ = false;
  SampleConfig sample_cfg_;
  std::uint64_t sample_threshold_ = 0;
  std::uint64_t sampled_kept_ = 0;
  std::unordered_map<std::uint64_t, PendingTrace> pending_;
  // Open span id -> (trace id, index into its buffer).
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, std::uint32_t>>
      open_;
  // (root duration, trace id), smallest first; size <= cfg.reservoir.
  std::set<std::pair<sim::Time, std::uint64_t>> reservoir_;
};

/// Busy-time accumulation over fixed windows of simulated time.  Fed from
/// the same [acquire, release] intervals the spans record -- never from a
/// periodic sampler task, which would add simulation events and keep
/// sim.run() from draining.
class Timeline {
 public:
  explicit Timeline(sim::Time window) : window_(window) {}

  /// Credit the busy interval [begin, end) across the windows it overlaps.
  void add_busy(sim::Time begin, sim::Time end);

  sim::Time window() const { return window_; }
  /// Busy fraction per window, in [0, 1] (up to rounding of the final
  /// partial window).  Computed fresh from the accumulated busy time.
  std::vector<double> utilization() const;

 private:
  sim::Time window_;
  std::vector<double> busy_ns_;
  // The window the last interval ended in, [last_begin_, last_end_);
  // empty until the first interval.
  std::size_t last_ = 0;
  sim::Time last_begin_ = 0;
  sim::Time last_end_ = 0;
};

/// Per-window maximum of a sampled value (queue depth).
class MaxTimeline {
 public:
  explicit MaxTimeline(sim::Time window) : window_(window) {}

  void sample(sim::Time at, std::int64_t value);
  const std::vector<std::int64_t>& maxima() const { return max_; }

 private:
  sim::Time window_;
  std::vector<std::int64_t> max_;
};

/// All timelines for a run, keyed by (track, index) so hot paths never
/// build strings.  JSON keys come out as "<track>.<index>".
class Timelines {
 public:
  explicit Timelines(sim::Time window = sim::milliseconds(250))
      : window_(window) {}

  Timeline& busy(Track track, int idx);
  MaxTimeline& depth(Track track, int idx);

  bool empty() const { return busy_.empty() && depth_.empty(); }
  sim::Time window() const { return window_; }

  /// {"window_ms":..., "busy":{"disk.000":[...], ...},
  ///  "depth":{"disk.000":[...], ...}}
  std::string json() const;

 private:
  sim::Time window_;
  std::map<std::pair<int, int>, Timeline> busy_;
  std::map<std::pair<int, int>, MaxTimeline> depth_;
};

/// The one object a Simulation points at when observability is on.
/// `tracing` gates span recording separately so benches can collect
/// metrics/timelines without paying for a span table.  The telemetry
/// facilities (attribution, event log, SLO monitor) are null until
/// enabled -- their exported key families appear only when configured.
class Hub {
 public:
  Tracer& tracer() { return tracer_; }
  Registry& registry() { return registry_; }
  Timelines& timelines() { return timelines_; }
  const Tracer& tracer() const { return tracer_; }
  const Registry& registry() const { return registry_; }
  const Timelines& timelines() const { return timelines_; }

  Attribution* attribution() { return attribution_.get(); }
  const Attribution* attribution() const { return attribution_.get(); }
  Attribution& enable_attribution() {
    if (!attribution_) attribution_ = std::make_unique<Attribution>();
    return *attribution_;
  }

  EventLog* events() { return events_.get(); }
  const EventLog* events() const { return events_.get(); }
  EventLog& enable_events() {
    if (!events_) events_ = std::make_unique<EventLog>();
    return *events_;
  }

  SloMonitor* slo() { return slo_.get(); }
  const SloMonitor* slo() const { return slo_.get(); }
  /// Breach/recovery events are the monitor's point, so attaching it also
  /// enables the event log.
  SloMonitor& enable_slo(SloConfig cfg = {}) {
    if (!slo_) slo_ = std::make_unique<SloMonitor>(&enable_events(), cfg);
    return *slo_;
  }

  bool tracing = false;

 private:
  Tracer tracer_;
  Registry registry_;
  Timelines timelines_;
  std::unique_ptr<Attribution> attribution_;
  std::unique_ptr<EventLog> events_;
  std::unique_ptr<SloMonitor> slo_;
};

/// Body-local RAII span.  Inert (all-null) when tracing is off, in which
/// case ctx() passes the inbound context through unchanged.  When the
/// request carries an attribution reference and the span maps onto a
/// lane, the span's lifetime also bounds that lane's active interval.
class Span {
 public:
  Span() = default;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& o) noexcept { *this = std::move(o); }
  Span& operator=(Span&& o) noexcept {
    if (this != &o) {
      close();
      sim_ = o.sim_;
      tracer_ = o.tracer_;
      handle_ = o.handle_;
      ctx_ = o.ctx_;
      attr_ = o.attr_;
      attr_ref_ = o.attr_ref_;
      attr_lane_ = o.attr_lane_;
      o.tracer_ = nullptr;
      o.attr_ = nullptr;
    }
    return *this;
  }
  ~Span() { close(); }

  /// Context for work nested under this span.
  const TraceContext& ctx() const { return ctx_; }
  /// Attach a tag discovered after the span opened (e.g. cache hit/miss).
  void tag(const char* key, std::int64_t value) {
    if (tracer_) tracer_->add_tag(handle_, key, value);
  }
  void close() {
    if (tracer_) {
      tracer_->end_span(handle_, sim_->now());
      tracer_ = nullptr;
    }
    if (attr_) {
      attr_->exit(attr_ref_, static_cast<Lane>(attr_lane_), sim_->now());
      attr_ = nullptr;
    }
  }

 private:
  template <typename Tags>
  friend Span trace_span(sim::Simulation&, const TraceContext&, const char*,
                         Track, int, Tags&&);
  sim::Simulation* sim_ = nullptr;
  Tracer* tracer_ = nullptr;
  std::size_t handle_ = 0;
  TraceContext ctx_{};
  Attribution* attr_ = nullptr;
  std::uint64_t attr_ref_ = 0;
  std::uint8_t attr_lane_ = 0;
};

/// Attribution lane for an existing span site, derived from its (track,
/// name) -- so the lane boundaries are exactly the span boundaries the
/// trace view already shows.  Resource tracks are service lanes; kRequest
/// spans classify by layer prefix ("cdd."/"disk."/"net." waits, "cache."
/// work).  Returns -1 for spans that are not attribution boundaries
/// (engine roots, flush internals).
inline int lane_of(Track track, const char* name) {
  switch (track) {
    case Track::kDisk: return static_cast<int>(Lane::kDiskService);
    case Track::kBus:
    case Track::kNetTx:
    case Track::kNetRx:
    case Track::kWan: return static_cast<int>(Lane::kNetService);
    case Track::kServer: return static_cast<int>(Lane::kCddService);
    case Track::kRequest: break;
  }
  if (std::strncmp(name, "cdd.", 4) == 0) {
    return static_cast<int>(Lane::kCddQueue);
  }
  if (std::strncmp(name, "disk.", 5) == 0) {
    return static_cast<int>(Lane::kDiskQueue);
  }
  if (std::strncmp(name, "net.", 4) == 0) {
    return static_cast<int>(Lane::kNetQueue);
  }
  if (std::strncmp(name, "cache.", 6) == 0) {
    return static_cast<int>(Lane::kCacheService);
  }
  return -1;
}

/// Open a span under `parent` if the simulation has a tracing Hub; mint a
/// fresh trace id when the parent context is empty (root spans).  Returns
/// an inert Span otherwise, so call sites need no branching.  `tags` is
/// called with the span's SpanArgs (`[&](obs::SpanArgs& a) { a.tag(...); }`)
/// only when the hub records the span: an unrecorded span builds no tags.
/// Attribution piggybacks here -- it activates whenever the request
/// carries a slot reference, even with span recording off, so the matrix
/// stays cheap enough for saturation runs.
template <typename Tags>
inline Span trace_span(sim::Simulation& sim, const TraceContext& parent,
                       const char* name, Track track, int idx, Tags&& tags) {
  Span s;
  s.ctx_ = parent;
  Hub* hub = sim.hub();
  if (hub == nullptr) return s;
  if (hub->tracing) {
    SpanArgs args;
    tags(args);
    s.sim_ = &sim;
    s.tracer_ = &hub->tracer();
    s.handle_ =
        s.tracer_->begin_span(parent, name, track, idx, sim.now(), args);
    s.ctx_ = s.tracer_->context_of(s.handle_);
    s.ctx_.attr = parent.attr;  // the slot reference rides the context
  }
  if (parent.attr != 0) {
    if (Attribution* a = hub->attribution()) {
      const int lane = lane_of(track, name);
      if (lane >= 0) {
        s.sim_ = &sim;
        s.attr_ = a;
        s.attr_ref_ = parent.attr;
        s.attr_lane_ = static_cast<std::uint8_t>(lane);
        a->enter(parent.attr, static_cast<Lane>(lane), sim.now());
      }
    }
  }
  return s;
}

/// A span with no tags.
inline Span trace_span(sim::Simulation& sim, const TraceContext& parent,
                       const char* name, Track track, int idx) {
  return trace_span(sim, parent, name, track, idx, [](SpanArgs&) {});
}

/// Body-local root of a request's attribution: opens a slot at
/// construction, stamps the reference into `ctx`, and folds the slot into
/// the matrix at destruction.  Call complete() on the success path; the
/// destructor otherwise records the request as aborted.  Inert when the
/// hub has no Attribution or the context already carries a reference
/// (nested controller calls attribute into the outer request).
class AttrRoot {
 public:
  AttrRoot(sim::Simulation& sim, TraceContext& ctx, bool is_write) {
    Hub* hub = sim.hub();
    if (hub == nullptr || ctx.attr != 0) return;
    Attribution* a = hub->attribution();
    if (a == nullptr) return;
    sim_ = &sim;
    attr_ = a;
    ref_ = a->open(is_write, sim.now());
    ctx.attr = ref_;
  }
  AttrRoot(const AttrRoot&) = delete;
  AttrRoot& operator=(const AttrRoot&) = delete;
  ~AttrRoot() {
    if (attr_) attr_->close(ref_, sim_->now(), completed_);
  }

  void complete() { completed_ = true; }

 private:
  sim::Simulation* sim_ = nullptr;
  Attribution* attr_ = nullptr;
  std::uint64_t ref_ = 0;
  bool completed_ = false;
};

/// Scoped lane interval for waits that have no span of their own
/// (admission gate, chunk-window acquisition).  Exception-safe: the lane
/// exits at scope exit even if the guarded wait throws.
class AttrScope {
 public:
  AttrScope(sim::Simulation& sim, const TraceContext& ctx, Lane lane) {
    if (ctx.attr == 0) return;
    Hub* hub = sim.hub();
    if (hub == nullptr) return;
    Attribution* a = hub->attribution();
    if (a == nullptr) return;
    sim_ = &sim;
    attr_ = a;
    ref_ = ctx.attr;
    lane_ = lane;
    a->enter(ref_, lane, sim.now());
  }
  AttrScope(const AttrScope&) = delete;
  AttrScope& operator=(const AttrScope&) = delete;
  ~AttrScope() {
    if (attr_) attr_->exit(ref_, lane_, sim_->now());
  }

 private:
  sim::Simulation* sim_ = nullptr;
  Attribution* attr_ = nullptr;
  std::uint64_t ref_ = 0;
  Lane lane_ = Lane::kCtlService;
};

/// Unscoped lane transitions for call sites where the wait and the holder
/// it produces have different lifetimes (window slots).
inline void attr_enter(sim::Simulation& sim, const TraceContext& ctx,
                       Lane lane) {
  if (ctx.attr == 0) return;
  if (Hub* hub = sim.hub()) {
    if (Attribution* a = hub->attribution()) a->enter(ctx.attr, lane, sim.now());
  }
}

inline void attr_exit(sim::Simulation& sim, const TraceContext& ctx,
                      Lane lane) {
  if (ctx.attr == 0) return;
  if (Hub* hub = sim.hub()) {
    if (Attribution* a = hub->attribution()) a->exit(ctx.attr, lane, sim.now());
  }
}

/// Cluster event hook: no-op unless the hub has an event log.
inline void log_event(sim::Simulation& sim, const char* kind,
                      std::string detail = {}) {
  if (Hub* hub = sim.hub()) {
    if (EventLog* log = hub->events()) {
      log->emit(sim.now(), kind, std::move(detail));
    }
  }
}

/// SLO completion hook: no-op unless the hub has a monitor attached.
inline void note_slo_request(sim::Simulation& sim, sim::Time latency,
                             bool ok) {
  if (Hub* hub = sim.hub()) {
    if (SloMonitor* m = hub->slo()) m->note_request(sim.now(), latency, ok);
  }
}

/// Cached variants for call sites that record millions of intervals on one
/// fixed (track, idx) lane: the std::map lookup inside Timelines::busy is
/// measurable there, and map references are stable, so each lane keeps its
/// Timeline pointer and revalidates only when the hub changes.
class BusyRecorder {
 public:
  void record(sim::Simulation& sim, Track track, int idx, sim::Time begin,
              sim::Time end) {
    Hub* hub = sim.hub();
    if (hub == nullptr) return;
    if (hub != hub_) {
      hub_ = hub;
      line_ = &hub->timelines().busy(track, idx);
    }
    line_->add_busy(begin, end);
  }

 private:
  Hub* hub_ = nullptr;
  Timeline* line_ = nullptr;
};

class DepthRecorder {
 public:
  void record(sim::Simulation& sim, Track track, int idx,
              std::int64_t value) {
    Hub* hub = sim.hub();
    if (hub == nullptr) return;
    if (hub != hub_) {
      hub_ = hub;
      line_ = &hub->timelines().depth(track, idx);
    }
    line_->sample(sim.now(), value);
  }

 private:
  Hub* hub_ = nullptr;
  MaxTimeline* line_ = nullptr;
};

}  // namespace raidx::obs
