#include "disk/scsi_bus.hpp"

namespace raidx::disk {

ScsiBus::ScsiBus(sim::Simulation& sim, BusParams params, int id)
    : sim_(sim), params_(params), id_(id), bus_(sim, /*capacity=*/1) {}

sim::Task<> ScsiBus::transfer(std::uint64_t bytes, obs::TraceContext ctx) {
  auto guard = co_await bus_.acquire();
  const sim::Time grant = sim_.now();
  obs::Span xfer = obs::trace_span(
      sim_, ctx, "bus.transfer", obs::Track::kBus, id_,
      [&](obs::SpanArgs& a) {
        a.tag("bytes", static_cast<std::int64_t>(bytes));
      });
  co_await sim_.delay(params_.arbitration +
                      sim::transfer_time(bytes, params_.rate_mbs));
  xfer.close();
  busy_rec_.record(sim_, obs::Track::kBus, id_, grant, sim_.now());
}

}  // namespace raidx::disk
