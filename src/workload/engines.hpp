// Factory for the four measured I/O architectures, and the rules that
// pick what an architecture is built over and driven from.
//
// Benchmarks, examples, and tests all build engines through this one
// function so a sweep over architectures is a loop over Arch values.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "disk/device.hpp"
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

/// The device mix behind an array's slots (raidxsim --disk-type).
enum class DiskType { kHdd, kSsd, kHybrid };

/// The device class of every global disk id of `geo` under `type`: empty
/// for hdd (every slot a spindle), every slot flash for ssd.  Hybrid puts
/// the top disk rows (data) on flash and the bottom rows (mirror images)
/// on spindles -- except RAID-1, whose mirror pairs are adjacent global
/// ids, so even ids (primaries) are flash and odd ids (mirrors) spindles.
std::vector<disk::DeviceClass> device_map(DiskType type, Arch arch,
                                          const block::ArrayGeometry& geo);

/// Whether `arch` over a `type` device map needs the hybrid placement
/// variant (raid::EngineParams::hybrid_mirrors): only hybrid on the
/// row-split layouts, since device_map() already splits RAID-1 pairs.
bool hybrid_mirrors(DiskType type, Arch arch);

/// The node a closed-loop workload keeps its clients off: the paper's
/// clients are distinct from the NFS file server, so for kNfs the server
/// node make_engine places, and -1 (none) for every block engine.
int exclude_node(Arch arch);

}  // namespace raidx::workload
