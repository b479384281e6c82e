#include "nfs/nfs.hpp"

#include <algorithm>

namespace raidx::nfs {

NfsEngine::NfsEngine(cdd::CddFabric& fabric, raid::EngineParams engine_params,
                     NfsParams nfs_params)
    : ArrayController(fabric, engine_params),
      nfs_(nfs_params),
      layout_(fabric.cluster().geometry(), nfs_params.server_node) {
  // The NFS daemon serializes updates itself; block-level lock-group
  // traffic is a serverless-CDD mechanism and does not exist here.
  params_.use_locks = false;
  params_.read_chunk_blocks = std::max(params_.read_chunk_blocks,
                                       nfs_.server_readahead_blocks);
}

sim::Task<> NfsEngine::server_overhead(std::uint64_t bytes) {
  auto& server = fabric_.cluster().node(nfs_.server_node);
  const auto extra = static_cast<sim::Time>(
      nfs_.server_extra_ns_per_byte * static_cast<double>(bytes));
  co_await server.compute(nfs_.server_extra_op + extra);
}

sim::Task<> NfsEngine::control_rpc(int client, obs::TraceContext ctx) {
  if (client == nfs_.server_node) co_return;
  auto& cluster = fabric_.cluster();
  obs::Span rpc = obs::trace_span(
      cluster.sim(), ctx, "nfs.rpc", obs::Track::kRequest, client,
      [&](obs::SpanArgs& a) {
        a.tag("client", client).tag("server", nfs_.server_node);
      });
  co_await cluster.node(client).cpu_work(cdd::kHeaderBytes);
  co_await cluster.network().transmit(client, nfs_.server_node,
                                      cdd::kHeaderBytes, rpc.ctx());
  co_await cluster.node(nfs_.server_node).cpu_work(cdd::kHeaderBytes);
  co_await cluster.network().transmit(nfs_.server_node, client,
                                      cdd::kHeaderBytes, rpc.ctx());
  co_await cluster.node(client).cpu_work(cdd::kHeaderBytes);
}

sim::Task<> NfsEngine::read_chunk(int client, std::uint64_t lba,
                                  std::uint32_t nblocks,
                                  std::span<std::byte> out,
                                  obs::TraceContext ctx) {
  obs::Span span = obs::trace_span(
      sim(), ctx, "nfs.server", obs::Track::kRequest, nfs_.server_node,
      [&](obs::SpanArgs& a) {
        a.tag("client", client)
            .tag("lba", static_cast<std::int64_t>(lba));
      });
  co_await control_rpc(client, span.ctx());
  co_await server_overhead(static_cast<std::uint64_t>(nblocks) *
                           block_bytes());
  co_await ArrayController::read_chunk(client, lba, nblocks, out,
                                       span.ctx());
}

sim::Task<> NfsEngine::write_chunk(int client, std::uint64_t lba,
                                   block::Payload data,
                                   disk::IoPriority prio,
                                   obs::TraceContext ctx) {
  // Background cache flushes originate in the server's own buffer cache:
  // no client RPC or daemon copy to pay, just the disk writes.
  obs::Span span = obs::trace_span(
      sim(), ctx, "nfs.server", obs::Track::kRequest, nfs_.server_node,
      [&](obs::SpanArgs& a) {
        a.tag("client", client)
            .tag("lba", static_cast<std::int64_t>(lba));
      });
  ctx = span.ctx();
  if (prio == disk::IoPriority::kForeground) {
    co_await control_rpc(client, ctx);
    co_await server_overhead(data.size());
  }
  const std::uint32_t bs = block_bytes();
  const auto nblocks = static_cast<std::uint32_t>(data.size() / bs);
  auto extents = raid::data_extents(layout_, lba, nblocks);
  sim::Joiner join(sim());
  auto write_extent = [](NfsEngine* self, int c, block::PhysExtent e,
                         block::Payload p, disk::IoPriority prio,
                         obs::TraceContext ctx) -> sim::Task<> {
    cdd::Reply r = co_await self->fabric_.write(c, e.disk, e.offset,
                                                std::move(p), prio, ctx);
    if (!r.ok) {
      throw raid::IoError("NFS: server disk " + std::to_string(e.disk) +
                          " failed");
    }
  };
  for (auto& me : extents) {
    join.spawn(write_extent(this, client, me.extent,
                            gather(data, me.lbas, lba, bs), prio, ctx));
  }
  co_await join.wait();
}

}  // namespace raidx::nfs
