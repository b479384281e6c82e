#include "wan/link.hpp"

#include <algorithm>
#include <cstdio>

namespace raidx::wan {

Link::Link(sim::Simulation& sim, int id, int site_a, int site_b,
           LinkParams p)
    : sim_(sim), id_(id), site_a_(site_a), site_b_(site_b), params_(p) {
  pipe_[0] = std::make_unique<sim::Resource>(sim, 1);
  pipe_[1] = std::make_unique<sim::Resource>(sim, 1);
}

sim::Time Link::serialization_time(std::uint64_t chunk_bytes) const {
  return sim::transfer_time(chunk_bytes, current_mbs());
}

sim::Task<bool> Link::transfer(int from_site, std::uint64_t bytes,
                               obs::TraceContext ctx) {
  const int dir = from_site == site_a_ ? 0 : 1;
  const int lane = 2 * id_ + dir;
  const std::uint64_t total = bytes + params_.header_bytes;
  const std::uint64_t window = std::max<std::uint64_t>(1, params_.window_bytes);
  std::uint64_t sent = 0;
  while (sent < total) {
    if (!up_) {
      ++stats_[dir].drops;
      co_return false;
    }
    const std::uint64_t chunk = std::min(window, total - sent);
    depth_rec_[dir].record(sim_, obs::Track::kWan, lane, ++queue_depth_[dir]);
    auto guard = co_await pipe_[dir]->acquire();
    const sim::Time start = sim_.now();
    obs::Span span = obs::trace_span(
        sim_, ctx, "wan.window", obs::Track::kWan, lane,
        [&](obs::SpanArgs& a) {
          a.tag("link", id_)
              .tag("dir", dir)
              .tag("bytes", static_cast<std::int64_t>(chunk));
        });
    co_await sim_.delay(serialization_time(chunk));
    guard.release();
    depth_rec_[dir].record(sim_, obs::Track::kWan, lane, --queue_depth_[dir]);
    busy_rec_[dir].record(sim_, obs::Track::kWan, lane, start, sim_.now());
    stats_[dir].busy += sim_.now() - start;
    if (!up_) {
      // Partitioned mid-serialization: the frames never made it across.
      ++stats_[dir].drops;
      co_return false;
    }
    sent += chunk;
    ++stats_[dir].windows;
    stats_[dir].bytes += chunk;
    if (sent < total) {
      // The next window may not start before this one's ack returns --
      // one RTT after its first byte hit the wire.  max(RTT, W/bw) per
      // window is exactly the min(bw, W/RTT) flow limit.
      const sim::Time ack_at = start + params_.rtt;
      if (ack_at > sim_.now()) co_await sim_.delay(ack_at - sim_.now());
      if (!up_) {
        ++stats_[dir].drops;
        co_return false;
      }
    } else {
      // Last window: delivered one-way propagation after its last byte.
      co_await sim_.delay(params_.rtt / 2);
      if (!up_) {
        ++stats_[dir].drops;
        co_return false;
      }
    }
  }
  ++stats_[dir].transfers;
  co_return true;
}

void Link::set_up(bool up) {
  if (up == up_) return;
  up_ = up;
  char detail[48];
  std::snprintf(detail, sizeof(detail), "link=%d", id_);
  if (!up) {
    ++partitions_;
    up_trigger_ = std::make_unique<sim::Trigger>(sim_);
    obs::log_event(sim_, "wan.link_down", detail);
  } else {
    if (up_trigger_) up_trigger_->set();
    up_trigger_.reset();
    obs::log_event(sim_, "wan.link_up", detail);
  }
}

void Link::set_brownout(double bw_mbs) {
  char detail[64];
  if (bw_mbs > 0.0) {
    ++brownouts_;
    std::snprintf(detail, sizeof(detail), "link=%d bw=%.1f", id_, bw_mbs);
    obs::log_event(sim_, "wan.link_brownout", detail);
  } else {
    std::snprintf(detail, sizeof(detail), "link=%d", id_);
    obs::log_event(sim_, "wan.link_brownout_healed", detail);
  }
  brownout_mbs_ = bw_mbs;
}

sim::Task<> Link::wait_up() {
  while (!up_) {
    // The trigger is replaced on every down transition; re-check after
    // each wake in case the link flapped before we ran.
    sim::Trigger* t = up_trigger_.get();
    if (t == nullptr) break;
    co_await t->wait();
  }
}

}  // namespace raidx::wan
