// Observability substrate tests: span nesting under concurrent coroutines,
// histogram bucketing, registry snapshot determinism, Chrome-trace JSON
// well-formedness, disk busy-time coverage, and the no-perturbation
// guarantee (traced == untraced simulated numbers).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ha/fault_plan.hpp"
#include "ha/ha.hpp"
#include "integrity/integrity.hpp"
#include "load/open_loop.hpp"
#include "obs/collect.hpp"
#include "obs/obs.hpp"
#include "raid/controller.hpp"
#include "test_util.hpp"

namespace raidx {
namespace {

using test::Rig;
using test::pattern_run;

// ---------------------------------------------------------------------------
// Span nesting under concurrent coroutines.

sim::Task<> nested_op(sim::Simulation& sim, int client, sim::Time inner) {
  obs::Span outer =
      obs::trace_span(sim, {}, "outer", obs::Track::kRequest, client,
                      [&](obs::SpanArgs& a) { a.tag("client", client); });
  co_await sim.delay(inner);
  {
    obs::Span mid = obs::trace_span(sim, outer.ctx(), "mid",
                                    obs::Track::kRequest, client);
    co_await sim.delay(inner);
    obs::Span leaf = obs::trace_span(sim, mid.ctx(), "leaf",
                                     obs::Track::kServer, client);
    co_await sim.delay(inner);
  }
  co_await sim.delay(inner);
}

TEST(ObsSpan, NestingSurvivesConcurrentCoroutines) {
  sim::Simulation sim;
  obs::Hub hub;
  hub.tracing = true;
  sim.set_hub(&hub);

  // Two interleaved request chains with different step sizes, so their
  // spans open and close in interleaved order.
  sim.spawn(nested_op(sim, 0, sim::microseconds(3)));
  sim.spawn(nested_op(sim, 1, sim::microseconds(5)));
  sim.run();

  const auto& spans = hub.tracer().spans();
  ASSERT_EQ(spans.size(), 6u);

  std::map<int, std::vector<const obs::SpanRecord*>> by_client;
  for (const auto& s : spans) by_client[s.idx].push_back(&s);

  for (const auto& [client, chain] : by_client) {
    ASSERT_EQ(chain.size(), 3u) << "client " << client;
    const obs::SpanRecord* outer = nullptr;
    const obs::SpanRecord* mid = nullptr;
    const obs::SpanRecord* leaf = nullptr;
    for (const auto* s : chain) {
      if (std::string(s->name) == "outer") outer = s;
      if (std::string(s->name) == "mid") mid = s;
      if (std::string(s->name) == "leaf") leaf = s;
    }
    ASSERT_TRUE(outer && mid && leaf);
    // One trace per chain, no leakage between the two clients.
    EXPECT_EQ(outer->trace, mid->trace);
    EXPECT_EQ(mid->trace, leaf->trace);
    // Parent/depth linkage.
    EXPECT_EQ(outer->parent, 0u);
    EXPECT_EQ(outer->depth, 0);
    EXPECT_EQ(mid->parent, outer->id);
    EXPECT_EQ(mid->depth, 1);
    EXPECT_EQ(leaf->parent, mid->id);
    EXPECT_EQ(leaf->depth, 2);
    // Temporal nesting: children open after and close before their parent.
    EXPECT_LE(outer->begin, mid->begin);
    EXPECT_LE(mid->begin, leaf->begin);
    EXPECT_LE(leaf->end, mid->end);
    EXPECT_LE(mid->end, outer->end);
  }
  // The two chains carry distinct trace ids.
  EXPECT_NE(by_client[0][0]->trace, by_client[1][0]->trace);
}

TEST(ObsSpan, InertWithoutHub) {
  sim::Simulation sim;  // no hub attached
  obs::Span s = obs::trace_span(sim, {}, "x", obs::Track::kRequest, 0);
  EXPECT_FALSE(s.ctx().active());

  // Inbound context passes through unchanged when tracing is off.
  obs::TraceContext parent{42, 7, 0, 3};
  obs::Span t = obs::trace_span(sim, parent, "y", obs::Track::kRequest, 0);
  EXPECT_EQ(t.ctx().trace, 42u);
  EXPECT_EQ(t.ctx().parent, 7u);
  EXPECT_EQ(t.ctx().depth, 3);
}

// ---------------------------------------------------------------------------
// Histogram bucketing.

TEST(ObsHistogram, BucketBoundaries) {
  using obs::Histogram;
  // Values below kSubBuckets are exact.
  for (std::uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    EXPECT_EQ(Histogram::bucket_lower(Histogram::bucket_of(v)), v);
  }
  // Everywhere: lower(bucket_of(v)) <= v and the next bucket starts above v.
  for (std::uint64_t v : {4ull, 5ull, 7ull, 8ull, 100ull, 1000ull, 1ull << 20,
                          (1ull << 40) + 123}) {
    const std::size_t b = Histogram::bucket_of(v);
    EXPECT_LE(Histogram::bucket_lower(b), v) << v;
    EXPECT_GT(Histogram::bucket_lower(b + 1), v) << v;
    // Relative quantization error bounded by 1/kSubBuckets.
    const double lower = static_cast<double>(Histogram::bucket_lower(b));
    EXPECT_GE(lower, static_cast<double>(v) * 0.75) << v;
  }
  // Bucket indices are monotone in the value.
  std::size_t prev = 0;
  for (std::uint64_t v = 0; v < 4096; ++v) {
    const std::size_t b = Histogram::bucket_of(v);
    EXPECT_GE(b, prev);
    prev = b;
  }
}

TEST(ObsHistogram, SummaryAndPercentiles) {
  obs::Histogram h;
  EXPECT_EQ(h.percentile(0.5), 0u);
  for (std::uint64_t v = 1; v <= 100; ++v) h.observe(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 5050u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  // Nearest-rank percentile returns the bucket lower bound: within the
  // 25% quantization of the true rank value, and monotone in q.
  std::uint64_t prev = 0;
  for (double q : {0.1, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    const std::uint64_t p = h.percentile(q);
    EXPECT_GE(p, prev);
    EXPECT_LE(p, static_cast<std::uint64_t>(100.0 * q) + 1);
    EXPECT_GE(static_cast<double>(p), 100.0 * q * 0.75 - 1.0);
    prev = p;
  }
}

// ---------------------------------------------------------------------------
// Timelines.

TEST(ObsTimeline, BusySplitsAcrossWindows) {
  obs::Timeline t(sim::milliseconds(1));
  // 0.5 ms busy inside window 0, then an interval straddling windows 1-2.
  t.add_busy(0, sim::microseconds(500));
  t.add_busy(sim::microseconds(1500), sim::microseconds(2500));
  const auto u = t.utilization();
  ASSERT_EQ(u.size(), 3u);
  EXPECT_NEAR(u[0], 0.5, 1e-9);
  EXPECT_NEAR(u[1], 0.5, 1e-9);
  EXPECT_NEAR(u[2], 0.5, 1e-9);
}

TEST(ObsTimeline, LastWindowCursorIsBitIdenticalToTheSplit) {
  // Mostly near-ordered intervals (the cursor's fast path), with backward
  // jumps, window-straddling spans and empty ones mixed in.  Every window
  // must hold exactly the double the per-window split computes, added in
  // the same order.
  const sim::Time window = sim::microseconds(250);
  obs::Timeline t(window);
  std::vector<double> want;
  std::mt19937_64 rng(7);
  sim::Time at = 0;
  for (int i = 0; i < 20000; ++i) {
    sim::Time begin = at + static_cast<sim::Time>(rng() % 40000);
    if (rng() % 16 == 0) begin = static_cast<sim::Time>(rng() % (at + 1));
    const std::uint64_t span = rng() % 8 == 0 ? 900000 : 30000;
    const sim::Time end = begin + static_cast<sim::Time>(rng() % span);
    at = std::max(at, begin);
    t.add_busy(begin, end);
    for (sim::Time s = begin; s < end;) {
      const auto w = static_cast<std::size_t>(s / window);
      const sim::Time chunk =
          std::min(end, static_cast<sim::Time>(w + 1) * window) - s;
      if (w >= want.size()) want.resize(w + 1, 0.0);
      want[w] += static_cast<double>(chunk);
      s += chunk;
    }
  }
  const std::vector<double> got = t.utilization();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t w = 0; w < want.size(); ++w) {
    EXPECT_EQ(got[w], want[w] / static_cast<double>(window))
        << "window " << w;
  }
}

TEST(ObsTimeline, DepthKeepsPerWindowMaximum) {
  obs::MaxTimeline t(sim::milliseconds(1));
  t.sample(0, 2);
  t.sample(sim::microseconds(100), 5);
  t.sample(sim::microseconds(900), 1);
  t.sample(sim::microseconds(1100), 3);
  ASSERT_EQ(t.maxima().size(), 2u);
  EXPECT_EQ(t.maxima()[0], 5);
  EXPECT_EQ(t.maxima()[1], 3);
}

// ---------------------------------------------------------------------------
// End-to-end: a traced RAID-x workload over the full stack.

sim::Task<> small_workload(raid::ArrayController* eng) {
  const auto data = pattern_run(0, 8, eng->block_bytes());
  co_await eng->write(0, 0, data);
  std::vector<std::byte> got(data.size());
  co_await eng->read(1, 0, 8, got);
  co_await eng->write(2, 16, pattern_run(16, 4, eng->block_bytes()));
}

struct TracedRun {
  explicit TracedRun(bool tracing) {
    hub.tracing = tracing;
    rig.sim.set_hub(&hub);
    raid::RaidxController eng(rig.fabric);
    rig.run(small_workload(&eng));
    end_time = rig.sim.now();
  }
  obs::Hub hub;
  Rig rig{test::small_cluster()};
  sim::Time end_time = 0;
};

TEST(ObsEndToEnd, TracingDoesNotPerturbSimulatedTime) {
  sim::Time untraced;
  {
    Rig rig(test::small_cluster());
    raid::RaidxController eng(rig.fabric);
    rig.run(small_workload(&eng));
    untraced = rig.sim.now();
  }
  TracedRun traced(/*tracing=*/true);
  EXPECT_EQ(traced.end_time, untraced);
  EXPECT_FALSE(traced.hub.tracer().spans().empty());
}

TEST(ObsEndToEnd, DiskServiceSpansCoverAllBusyTime) {
  TracedRun run(/*tracing=*/true);
  sim::Time span_sum = 0;
  for (const auto& s : run.hub.tracer().spans()) {
    if (std::string(s.name) == "disk.service") span_sum += s.end - s.begin;
  }
  sim::Time busy_sum = 0;
  for (int d = 0; d < run.rig.cluster.total_disks(); ++d) {
    busy_sum += run.rig.cluster.disk(d).busy_time();
  }
  EXPECT_GT(busy_sum, 0);
  // The acceptance bar is >= 95% coverage; the spans bracket exactly the
  // [grant, release] interval, so they should match to the nanosecond.
  EXPECT_EQ(span_sum, busy_sum);
}

TEST(ObsEndToEnd, SnapshotDeterministicAcrossIdenticalRuns) {
  auto snapshot = [] {
    TracedRun run(/*tracing=*/false);
    obs::collect_cluster(run.hub.registry(), run.rig.cluster,
                         &run.rig.fabric, nullptr);
    return run.hub.registry().snapshot_json();
  };
  const std::string a = snapshot();
  const std::string b = snapshot();
  EXPECT_EQ(a, b);
  // Registry keys use the global disk index, matching the trace tracks.
  EXPECT_NE(a.find("\"disk.000.reads\""), std::string::npos);
  EXPECT_NE(a.find("\"disk.003.busy_ns\""), std::string::npos);
  EXPECT_EQ(a.find("disk.1000"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Chrome trace JSON well-formedness: a minimal recursive-descent JSON
// parser; rejects trailing garbage, unbalanced structure, bad literals.

class MiniJson {
 public:
  explicit MiniJson(const std::string& s) : s_(s) {}
  bool parse() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(ObsChromeTrace, ExportIsWellFormedJson) {
  TracedRun run(/*tracing=*/true);
  const std::string path = ::testing::TempDir() + "obs_test_trace.json";
  std::string err;
  ASSERT_TRUE(run.hub.tracer().export_chrome(path, run.rig.sim.now(), &err))
      << err;

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  std::remove(path.c_str());

  EXPECT_TRUE(MiniJson(text).parse()) << "unparseable trace JSON";
  // Structural markers of the trace-event format.
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"b\""), std::string::npos);  // async begin
  EXPECT_NE(text.find("\"ph\":\"e\""), std::string::npos);  // async end
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);  // resource span
  EXPECT_NE(text.find("\"ph\":\"M\""), std::string::npos);  // lane metadata
  EXPECT_NE(text.find("disk.service"), std::string::npos);
}

TEST(ObsChromeTrace, ExportFailsCleanlyOnBadPath) {
  obs::Tracer tracer;
  std::string err;
  EXPECT_FALSE(
      tracer.export_chrome("/nonexistent-dir/x.json", 0, &err));
  EXPECT_FALSE(err.empty());
}

// The mini-parser itself must reject malformed input, or the test above
// proves nothing.
TEST(ObsChromeTrace, MiniParserRejectsMalformed) {
  EXPECT_TRUE(MiniJson(R"({"a":[1,2,{"b":null}],"c":"x"})").parse());
  EXPECT_FALSE(MiniJson(R"({"a":1)").parse());
  EXPECT_FALSE(MiniJson(R"({"a":1}})").parse());
  EXPECT_FALSE(MiniJson(R"({'a':1})").parse());
  EXPECT_FALSE(MiniJson(R"({"a":})").parse());
  EXPECT_FALSE(MiniJson(R"([1,2,)").parse());
}

// ---------------------------------------------------------------------------
// Timelines JSON uses the same global-index keys as the registry.

TEST(ObsTimelines, JsonKeysUseGlobalIndices) {
  TracedRun run(/*tracing=*/false);
  const std::string json = run.hub.timelines().json();
  EXPECT_TRUE(MiniJson(json).parse());
  EXPECT_NE(json.find("\"disk.000\""), std::string::npos);
  EXPECT_NE(json.find("\"disk.003\""), std::string::npos);
  EXPECT_EQ(json.find("disk.1000"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Continuous telemetry (src/obs/telemetry): attribution reconciliation,
// no-perturbation of the full stack, sampling determinism, the slow-request
// reservoir, the scraper ring, busy accounting under rebuild+scrub overlap,
// and SLO breach/recovery event ordering.

load::OpenLoopConfig small_open_loop(double rate_ops, double duration_s,
                                     double write_fraction = 0.0) {
  load::TenantLoad t;
  t.rate_ops = rate_ops;
  t.working_set_blocks = 256;
  t.sessions = 64;
  t.write_fraction = write_fraction;
  load::OpenLoopConfig cfg;
  cfg.tenants = {t};
  cfg.duration =
      sim::Time(static_cast<std::int64_t>(duration_s * 1e9));
  return cfg;
}

// The attribution matrix is an exclusive partition of every request's
// end-to-end time, so its totals reconcile with the latency histogram
// exactly -- per type, per lane, to the nanosecond.
TEST(ObsAttribution, LaneSumsReconcileExactly) {
  Rig rig(test::small_cluster());
  obs::Hub hub;
  rig.sim.set_hub(&hub);
  hub.enable_attribution();
  raid::RaidxController eng(rig.fabric);
  const load::OpenLoopResult r =
      load::run_open_loop(eng, small_open_loop(400, 0.3, /*writes=*/0.25));
  ASSERT_GT(r.completed, 0u);
  ASSERT_EQ(r.failed, 0u);

  const obs::Attribution& attr = *hub.attribution();
  EXPECT_EQ(attr.live_slots(), 0u);
  EXPECT_EQ(attr.reads().count + attr.writes().count, r.completed);
  EXPECT_EQ(attr.reads().total_ns + attr.writes().total_ns, r.latency.sum());
  for (const obs::Attribution::TypeTotals* t :
       {&attr.reads(), &attr.writes()}) {
    ASSERT_GT(t->count, 0u);
    EXPECT_EQ(t->aborted, 0u);
    std::uint64_t lanes = 0;
    for (std::uint64_t ns : t->lane_ns) lanes += ns;
    EXPECT_EQ(lanes, t->total_ns + t->aborted_ns);
  }
  // The deep lanes actually saw traffic (the matrix is not all-ctl).
  const auto lane = [&](const obs::Attribution::TypeTotals& t, obs::Lane l) {
    return t.lane_ns[static_cast<std::size_t>(l)];
  };
  EXPECT_GT(lane(attr.reads(), obs::Lane::kDiskService), 0u);
  EXPECT_GT(lane(attr.reads(), obs::Lane::kNetService), 0u);
  EXPECT_GT(lane(attr.writes(), obs::Lane::kDiskService), 0u);
}

// Full telemetry -- attribution + selective tracing + SLO + scraper -- must
// leave every simulated number bit-identical to a hub-less run.
TEST(ObsTelemetry, FullTelemetryIsNumericallyInert) {
  struct Outcome {
    sim::Time end;
    sim::Time drained;
    std::uint64_t completed;
    std::uint64_t lat_sum;
    std::uint64_t lat_max;
    bool operator==(const Outcome&) const = default;
  };
  auto run = [](bool telemetry) {
    Rig rig(test::small_cluster());
    obs::Hub hub;
    std::unique_ptr<obs::Scraper> scraper;
    if (telemetry) {
      hub.tracing = true;
      obs::SampleConfig sc;
      sc.probability = 0.25;
      sc.reservoir = 4;
      sc.seed = 11;
      hub.tracer().set_selective(sc);
      hub.enable_attribution();
      obs::SloConfig scfg;
      scfg.latency_target = sim::milliseconds(5);
      scfg.window = sim::milliseconds(50);
      hub.enable_slo(scfg);
      rig.sim.set_hub(&hub);
      scraper = std::make_unique<obs::Scraper>(rig.sim,
                                               sim::milliseconds(10));
      scraper->add_series("pending", [&rig] {
        return static_cast<double>(rig.sim.foreground_pending());
      });
      scraper->start();
    }
    raid::RaidxController eng(rig.fabric);
    const load::OpenLoopResult r =
        load::run_open_loop(eng, small_open_loop(400, 0.3, 0.25));
    return Outcome{rig.sim.now(), r.drained_at, r.completed, r.latency.sum(),
                   r.latency.max()};
  };
  const Outcome off = run(false);
  const Outcome on = run(true);
  EXPECT_EQ(on, off);
  EXPECT_GT(off.completed, 0u);
}

// The sampling coin hashes (seed, trace id): identically seeded runs keep
// identical trace sets; a different seed keeps a different one.
TEST(ObsTracing, SamplingIsDeterministicAcrossRuns) {
  auto kept = [](std::uint64_t seed) {
    Rig rig(test::small_cluster());
    obs::Hub hub;
    hub.tracing = true;
    obs::SampleConfig sc;
    sc.probability = 0.25;
    sc.reservoir = 4;
    sc.seed = seed;
    hub.tracer().set_selective(sc);
    rig.sim.set_hub(&hub);
    raid::RaidxController eng(rig.fabric);
    load::run_open_loop(eng, small_open_loop(400, 0.2));
    return std::pair(hub.tracer().kept_traces(),
                     hub.tracer().reservoir_entries());
  };
  const auto a = kept(5);
  const auto b = kept(5);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_GT(a.first.size(), a.second.size());  // coin kept some too
  const auto c = kept(6);
  EXPECT_NE(a.first, c.first);
}

// With the coin disabled (p=0) the reservoir alone must hold exactly the K
// slowest completed requests -- cross-checked against a full-mode run of
// the identical workload.
TEST(ObsTracing, ReservoirKeepsTheKSlowest) {
  const auto cfg = small_open_loop(400, 0.2);

  Rig full_rig(test::small_cluster());
  obs::Hub full_hub;
  full_hub.tracing = true;
  full_rig.sim.set_hub(&full_hub);
  raid::RaidxController full_eng(full_rig.fabric);
  load::run_open_loop(full_eng, cfg);
  std::vector<std::pair<sim::Time, std::uint64_t>> roots;  // (dur, trace)
  for (const auto& s : full_hub.tracer().spans()) {
    if (s.parent == 0 && s.track == obs::Track::kRequest) {
      roots.emplace_back(s.end - s.begin, s.trace);
    }
  }
  ASSERT_GT(roots.size(), 8u);
  std::sort(roots.rbegin(), roots.rend());

  Rig rig(test::small_cluster());
  obs::Hub hub;
  hub.tracing = true;
  obs::SampleConfig sc;
  sc.probability = 0.0;
  sc.reservoir = 4;
  hub.tracer().set_selective(sc);
  rig.sim.set_hub(&hub);
  raid::RaidxController eng(rig.fabric);
  load::run_open_loop(eng, cfg);

  const auto entries = hub.tracer().reservoir_entries();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(hub.tracer().sampled_kept(), 0u);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    // Same durations as the full-mode top-K (tie-breaks may pick a
    // different same-duration trace, so compare the duration multiset).
    EXPECT_EQ(entries[i].first, roots[i].first) << i;
    // And each kept trace really has that duration in the full run.
    bool found = false;
    for (const auto& [dur, trace] : roots) {
      if (trace == entries[i].second && dur == entries[i].first) found = true;
    }
    EXPECT_TRUE(found) << "reservoir trace " << entries[i].second;
  }
}

// The scraper ring holds the newest `capacity` windows in chronological
// order, and its daemon wakeups neither keep the run alive nor shift the
// finish time.
TEST(ObsScraper, RingBoundsAndDaemonNonPerturbation) {
  sim::Simulation sim;
  obs::Scraper scraper(sim, sim::milliseconds(10), /*capacity=*/4);
  double v = 0.0;
  scraper.add_series("tick", [&] { return ++v; });
  scraper.start();
  auto idle = [](sim::Simulation* s) -> sim::Task<> {
    co_await s->delay(sim::milliseconds(95));
  };
  sim.spawn(idle(&sim));
  sim.run();

  // The daemon's next wakeup (t=100ms) must not extend the run.
  EXPECT_EQ(sim.now(), sim::milliseconds(95));
  EXPECT_EQ(scraper.samples(), 9u);  // ticks at 10..90 ms
  const auto times = scraper.times();
  const auto vals = scraper.values(0);
  ASSERT_EQ(times.size(), 4u);  // ring capacity
  ASSERT_EQ(vals.size(), 4u);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_EQ(times[i], sim::milliseconds(60 + 10 * static_cast<int>(i)));
    EXPECT_EQ(vals[i], 6.0 + static_cast<double>(i));
  }
  EXPECT_TRUE(MiniJson(scraper.json()).parse());
  EXPECT_NE(scraper.render().find("tick"), std::string::npos);
}

// Satellite: busy-interval accounting stays exact when client traffic, a
// throttled rebuild, and a scrub sweep overlap on the same spindles --
// utilization never exceeds 1.0 and disk.service spans still equal
// busy_time() to the nanosecond (no double-credit from the extra tiers).
TEST(ObsTimeline, RebuildScrubOverlapNeverOvercountsBusy) {
  Rig rig(test::small_cluster(4, 1, /*blocks_per_disk=*/240));
  obs::Hub hub;
  hub.tracing = true;
  rig.sim.set_hub(&hub);
  raid::RaidxController eng(rig.fabric);
  integrity::IntegrityPlane plane(eng);  // before preload: writes checksum

  auto preload = [](raid::ArrayController* e) -> sim::Task<> {
    co_await e->write(0, 0, pattern_run(0, 64, e->block_bytes()));
  };
  rig.run(preload(&eng));

  ha::HaParams hp;
  hp.probe_interval = sim::milliseconds(5);
  hp.probe_timeout = sim::milliseconds(2);
  hp.spare_swap_time = sim::milliseconds(10);
  hp.global_spares = 1;
  hp.rebuild_mbs = 1.0;  // slow sweep: the rebuild window stays open
  ha::Orchestrator orch(eng, hp);

  rig.cluster.disk(1).fail();
  orch.note_fault_injected(1);
  rig.sim.spawn(plane.scrub_pass());
  auto reads = [](sim::Simulation* sim, raid::ArrayController* e)
      -> sim::Task<> {
    std::vector<std::byte> got(8 * e->block_bytes());
    for (int i = 0; i < 6; ++i) {
      co_await e->read(1, static_cast<std::uint64_t>(i) * 8, 8, got);
      co_await sim->delay(sim::milliseconds(5));
    }
  };
  rig.sim.spawn(reads(&rig.sim, &eng));
  rig.sim.run();

  ASSERT_EQ(orch.stats().rebuilds_completed, 1u);
  EXPECT_GT(plane.stats().blocks_scrubbed, 0u);
  EXPECT_EQ(plane.undetected(), 0u);

  const int disks = rig.cluster.total_disks();
  std::vector<sim::Time> span_ns(static_cast<std::size_t>(disks), 0);
  for (const auto& s : hub.tracer().spans()) {
    if (s.track == obs::Track::kDisk &&
        std::string(s.name) == "disk.service") {
      span_ns[static_cast<std::size_t>(s.idx)] += s.end - s.begin;
    }
  }
  for (int d = 0; d < disks; ++d) {
    EXPECT_EQ(span_ns[static_cast<std::size_t>(d)],
              rig.cluster.disk(d).busy_time())
        << "disk " << d;
    for (double u :
         hub.timelines().busy(obs::Track::kDisk, d).utilization()) {
      EXPECT_LE(u, 1.0 + 1e-9) << "disk " << d;
    }
  }
}

// A seeded chaos run -- disk failure + throttled rebuild under open-loop
// load -- must produce the causal event ordering in one log:
// fault -> detection -> SLO breach -> rebuilt -> SLO recovery.
TEST(ObsSlo, BreachOrderingThroughFailureAndRecovery) {
  Rig rig(test::small_cluster());
  obs::Hub hub;
  rig.sim.set_hub(&hub);
  obs::SloConfig scfg;
  scfg.latency_target = sim::milliseconds(40);
  scfg.objective = 0.9;
  scfg.window = sim::milliseconds(50);
  scfg.burn_alert = 2.0;
  hub.enable_slo(scfg);
  raid::RaidxController eng(rig.fabric);

  auto preload = [](raid::ArrayController* e) -> sim::Task<> {
    co_await e->write(0, 0, pattern_run(0, 64, e->block_bytes()));
  };
  rig.run(preload(&eng));

  ha::HaParams hp;
  hp.probe_interval = sim::milliseconds(5);
  hp.probe_timeout = sim::milliseconds(2);
  hp.spare_swap_time = sim::milliseconds(10);
  hp.global_spares = 1;
  hp.rebuild_mbs = 2.0;
  ha::Orchestrator orch(eng, hp);

  ha::FaultPlan plan;
  plan.add({ha::FaultEvent::Kind::kFailDisk, /*target=*/1, /*block=*/0,
            sim::milliseconds(150)});
  plan.arm(rig.cluster, &orch);

  // Phase 1 carries the fault: the rebuild sweep keeps the run alive well
  // past the arrival window, so it is complete when this returns.
  load::run_open_loop(eng, small_open_loop(300, 0.6));
  ASSERT_EQ(orch.stats().rebuilds_completed, 1u);
  // Phase 2 offers healthy traffic to the rebuilt array: its windows are
  // what roll the SLO monitor back under budget.
  load::run_open_loop(eng, small_open_loop(300, 0.3));

  const obs::EventLog& log = *hub.events();
  const obs::ClusterEvent* fault = log.first("fault.disk_failed");
  const obs::ClusterEvent* detected = log.first("ha.detected");
  const obs::ClusterEvent* breach = log.first("slo.breach");
  const obs::ClusterEvent* rebuilt = log.first("ha.rebuilt");
  const obs::ClusterEvent* recovered = log.first("slo.recovered");
  ASSERT_NE(fault, nullptr);
  ASSERT_NE(detected, nullptr);
  ASSERT_NE(breach, nullptr);
  ASSERT_NE(rebuilt, nullptr);
  ASSERT_NE(recovered, nullptr);
  // Causal order, by append sequence (ties on timestamp stay ordered).
  EXPECT_LT(fault->seq, detected->seq);
  EXPECT_LT(detected->seq, breach->seq);
  EXPECT_LT(breach->seq, rebuilt->seq);
  EXPECT_LT(rebuilt->seq, recovered->seq);
  // No breach before the fault: the healthy array met the objective.
  EXPECT_GE(breach->at, fault->at);
  const obs::SloStats& s = hub.slo()->stats();
  EXPECT_GE(s.breaches, 1u);
  EXPECT_GE(s.recoveries, 1u);
  EXPECT_FALSE(s.breached);  // back in SLO once the rebuild finished
}

}  // namespace
}  // namespace raidx
