#include "ckpt/checkpoint.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "sim/join.hpp"
#include "sim/random.hpp"
#include "sim/sync.hpp"

namespace raidx::ckpt {

const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kSimultaneous: return "simultaneous";
    case Strategy::kStaggered: return "staggered";
    case Strategy::kStripedStaggered: return "striped-staggered";
  }
  return "?";
}

namespace {

std::uint64_t stripes_needed(const raid::ArrayController& engine,
                             const CheckpointConfig& config) {
  const std::uint64_t stripe_bytes =
      static_cast<std::uint64_t>(engine.layout().stripe_width()) *
      engine.block_bytes();
  return (config.bytes_per_process + stripe_bytes - 1) / stripe_bytes;
}

bool is_raidx(const raid::ArrayController& engine) {
  return dynamic_cast<const raid::RaidxController*>(&engine) != nullptr;
}

}  // namespace

std::uint64_t checkpoint_stripe_lba(const raid::ArrayController& engine,
                                    const CheckpointConfig& config, int proc,
                                    std::uint64_t index) {
  const auto& geo = engine.layout().geometry();
  const auto n = static_cast<std::uint64_t>(geo.nodes);
  const std::uint64_t width = engine.layout().stripe_width();
  const std::uint64_t per_proc = stripes_needed(engine, config);

  if (is_raidx(engine)) {
    // Place each process's stripes so their images land on its own node
    // (local-mirror recovery).  Stripe s has image node n-1-(s mod n), so
    // s = (n-1-node) (mod n).  Processes sharing a node are spread across
    // disjoint residue-class runs.
    const std::uint64_t node = static_cast<std::uint64_t>(proc) % n;
    const std::uint64_t lane = static_cast<std::uint64_t>(proc) / n;
    const std::uint64_t t = lane * per_proc + index;
    const std::uint64_t stripe = (n - 1 - node) + n * t;
    const std::uint64_t lba = stripe * n;
    if (lba + width > engine.logical_blocks()) {
      throw std::invalid_argument("checkpoint region exceeds array");
    }
    return lba;
  }
  // Naive placement: contiguous private regions.
  const std::uint64_t region =
      engine.logical_blocks() / static_cast<std::uint64_t>(config.processes);
  const std::uint64_t lba =
      static_cast<std::uint64_t>(proc) * region + index * width;
  if (index * width + width > region) {
    throw std::invalid_argument("checkpoint region exceeds array");
  }
  return lba;
}

namespace {

struct Shared {
  raid::ArrayController& engine;
  const CheckpointConfig& config;
  sim::Barrier round_start;
  sim::Barrier wave_gate;
  sim::Barrier round_end;
  std::vector<ProcessStats>& procs;
  std::vector<sim::Time> round_release;
  std::vector<sim::Time> round_c;
};

int wave_of(const CheckpointConfig& cfg, int proc) {
  switch (cfg.strategy) {
    case Strategy::kSimultaneous: return 0;
    case Strategy::kStaggered: return proc;
    case Strategy::kStripedStaggered:
      return static_cast<int>(
          (static_cast<long long>(proc) * cfg.waves) / cfg.processes);
  }
  return 0;
}

int wave_count(const CheckpointConfig& cfg) {
  switch (cfg.strategy) {
    case Strategy::kSimultaneous: return 1;
    case Strategy::kStaggered: return cfg.processes;
    case Strategy::kStripedStaggered: return cfg.waves;
  }
  return 1;
}

sim::Task<> write_checkpoint(Shared& sh, int proc, int node,
                             std::vector<std::byte>& buffer) {
  const std::uint64_t count = stripes_needed(sh.engine, sh.config);
  const std::uint64_t width = sh.engine.layout().stripe_width();
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t lba =
        checkpoint_stripe_lba(sh.engine, sh.config, proc, i);
    co_await sh.engine.write(node, lba,
                             std::span<const std::byte>(
                                 buffer.data(), width *
                                                    sh.engine.block_bytes()));
  }
}

sim::Task<> process_task(Shared& sh, int proc, sim::Rng rng) {
  auto& sim = sh.engine.simulation();
  const auto& cfg = sh.config;
  const int node = proc % sh.engine.layout().geometry().nodes;
  const int my_wave = wave_of(cfg, proc);
  const int waves = wave_count(cfg);
  ProcessStats& stats = sh.procs[static_cast<std::size_t>(proc)];

  std::vector<std::byte> buffer(
      static_cast<std::size_t>(sh.engine.layout().stripe_width()) *
          sh.engine.block_bytes(),
      std::byte{0xcc});

  for (int round = 0; round < cfg.rounds; ++round) {
    // Compute phase with +-10% skew: the source of synchronization waits.
    const auto compute = static_cast<sim::Time>(
        static_cast<double>(cfg.compute_between) *
        rng.uniform_real(0.9, 1.1));
    co_await sim.delay(compute);

    const sim::Time arrived = sim.now();
    co_await sh.round_start.arrive_and_wait();
    stats.sync_total += sim.now() - arrived;
    sh.round_release[static_cast<std::size_t>(round)] = sim.now();

    // Staggered waves: wave w writes while later waves hold at the gate.
    for (int w = 0; w < waves; ++w) {
      if (w == my_wave) {
        const sim::Time t0 = sim.now();
        co_await write_checkpoint(sh, proc, node, buffer);
        stats.write_total += sim.now() - t0;
      }
      if (waves > 1) co_await sh.wave_gate.arrive_and_wait();
    }

    co_await sh.round_end.arrive_and_wait();
    // All writes done; any process may stamp the round overhead.
    sh.round_c[static_cast<std::size_t>(round)] =
        sim.now() - sh.round_release[static_cast<std::size_t>(round)];
  }
}

}  // namespace

CheckpointResult run_checkpoint(raid::ArrayController& engine,
                                const CheckpointConfig& config) {
  auto& sim = engine.simulation();
  CheckpointResult result;
  result.procs.resize(static_cast<std::size_t>(config.processes));

  Shared sh{engine,
            config,
            sim::Barrier(sim, config.processes),
            sim::Barrier(sim, config.processes),
            sim::Barrier(sim, config.processes),
            result.procs,
            std::vector<sim::Time>(static_cast<std::size_t>(config.rounds)),
            std::vector<sim::Time>(static_cast<std::size_t>(config.rounds))};

  const sim::Time start = sim.now();
  sim::Rng root(config.seed);
  for (int p = 0; p < config.processes; ++p) {
    sim.spawn(process_task(sh, p, root.fork()));
  }
  sim.run();
  result.total_elapsed = sim.now() - start;

  sim::Time c_sum = 0;
  for (sim::Time c : sh.round_c) c_sum += c;
  result.overhead_c = c_sum / std::max(1, config.rounds);
  sim::Time s_sum = 0;
  for (const auto& ps : result.procs) s_sum += ps.sync_total;
  result.sync_s =
      s_sum / std::max(1, config.rounds * config.processes);
  return result;
}

sim::Task<sim::Time> recover_from_local_mirror(raid::RaidxController& engine,
                                               const CheckpointConfig& config,
                                               int proc) {
  auto& sim = engine.simulation();
  const auto& layout = engine.raidx();
  const int node = proc % layout.geometry().nodes;
  const std::uint64_t count = stripes_needed(engine, config);

  const sim::Time t0 = sim.now();
  // Recovery is urgent: fan out every stripe's image reads.  The clustered
  // runs live on this process's own disks (local, no network); only the
  // one stray neighbor image per stripe crosses the wire.
  sim::Joiner join(sim);
  auto read_images = [](raid::RaidxController* eng, int n,
                        raid::RaidxLayout::StripeImages imgs) -> sim::Task<> {
    cdd::Reply run = co_await eng->fabric().read(n, imgs.clustered.disk,
                                                 imgs.clustered.offset,
                                                 imgs.clustered.nblocks);
    if (!run.ok) throw raid::IoError("local mirror unavailable");
    cdd::Reply nb = co_await eng->fabric().read(n, imgs.neighbor.disk,
                                                imgs.neighbor.offset, 1);
    if (!nb.ok) throw raid::IoError("neighbor image unavailable");
  };
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t lba = checkpoint_stripe_lba(engine, config, proc, i);
    join.spawn(read_images(&engine, node,
                           layout.stripe_images(layout.stripe_of(lba))));
  }
  co_await join.wait();
  co_return sim.now() - t0;
}

sim::Task<sim::Time> recover_striped(raid::ArrayController& engine,
                                     const CheckpointConfig& config,
                                     int proc) {
  auto& sim = engine.simulation();
  const int node = proc % engine.layout().geometry().nodes;
  const std::uint64_t count = stripes_needed(engine, config);
  const std::uint32_t width = engine.layout().stripe_width();
  std::vector<std::byte> buffer(
      static_cast<std::size_t>(count) * width * engine.block_bytes());

  const sim::Time t0 = sim.now();
  sim::Joiner join(sim);
  auto read_stripe = [](raid::ArrayController* eng, int n, std::uint64_t lba,
                        std::uint32_t w,
                        std::span<std::byte> out) -> sim::Task<> {
    co_await eng->read(n, lba, w, out);
  };
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t lba = checkpoint_stripe_lba(engine, config, proc, i);
    join.spawn(read_stripe(
        &engine, node, lba, width,
        std::span<std::byte>(buffer).subspan(
            static_cast<std::size_t>(i) * width * engine.block_bytes(),
            static_cast<std::size_t>(width) * engine.block_bytes())));
  }
  co_await join.wait();
  co_return sim.now() - t0;
}

}  // namespace raidx::ckpt
