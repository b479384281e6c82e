// Factory for the four measured I/O architectures.
//
// Benchmarks, examples, and tests all build engines through this one
// function so a sweep over architectures is a loop over Arch values.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nfs/nfs.hpp"
#include "raid/controller.hpp"

namespace raidx::workload {

enum class Arch { kRaid0, kRaid1, kRaid5, kRaid10, kRaidX, kNfs };

const char* arch_name(Arch a);

/// The four architectures of Fig. 5 / Fig. 6 (RAID-x vs RAID-5, RAID-10,
/// NFS).
std::vector<Arch> paper_architectures();

std::unique_ptr<raid::ArrayController> make_engine(
    Arch arch, cdd::CddFabric& fabric, raid::EngineParams params = {},
    nfs::NfsParams nfs_params = {});

/// The logical blocks make_engine(arch, ...) offers over `geo`, from the
/// layout alone: a caller can size a workload before building a world.
std::uint64_t logical_blocks(Arch arch, const block::ArrayGeometry& geo,
                             bool hybrid_mirrors = false);

}  // namespace raidx::workload
