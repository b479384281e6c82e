#include "workload/engines.hpp"

namespace raidx::workload {

const char* arch_name(Arch a) {
  switch (a) {
    case Arch::kRaid0: return "RAID-0";
    case Arch::kRaid1: return "RAID-1";
    case Arch::kRaid5: return "RAID-5";
    case Arch::kRaid10: return "RAID-10";
    case Arch::kRaidX: return "RAID-x";
    case Arch::kNfs: return "NFS";
  }
  return "?";
}

std::vector<Arch> paper_architectures() {
  return {Arch::kRaidX, Arch::kRaid5, Arch::kRaid10, Arch::kNfs};
}

std::unique_ptr<raid::ArrayController> make_engine(Arch arch,
                                                   cdd::CddFabric& fabric,
                                                   raid::EngineParams params,
                                                   nfs::NfsParams nfs_params) {
  switch (arch) {
    case Arch::kRaid0:
      return std::make_unique<raid::Raid0Controller>(fabric, params);
    case Arch::kRaid1:
      return std::make_unique<raid::Raid1Controller>(fabric, params);
    case Arch::kRaid5:
      return std::make_unique<raid::Raid5Controller>(fabric, params);
    case Arch::kRaid10:
      return std::make_unique<raid::Raid10Controller>(fabric, params);
    case Arch::kRaidX:
      return std::make_unique<raid::RaidxController>(fabric, params);
    case Arch::kNfs:
      return std::make_unique<nfs::NfsEngine>(fabric, params, nfs_params);
  }
  return nullptr;
}

std::uint64_t logical_blocks(Arch arch, const block::ArrayGeometry& geo,
                             bool hybrid_mirrors) {
  switch (arch) {
    case Arch::kRaid0:
      return raid::Raid0Layout(geo).logical_blocks();
    case Arch::kRaid1:
      return raid::Raid1Layout(geo).logical_blocks();
    case Arch::kRaid5:
      return raid::Raid5Layout(geo).logical_blocks();
    case Arch::kRaid10:
      return raid::Raid10Layout(geo, hybrid_mirrors).logical_blocks();
    case Arch::kRaidX:
      return raid::RaidxLayout(geo, hybrid_mirrors).logical_blocks();
    case Arch::kNfs:
      return nfs::NfsLayout(geo, nfs::NfsParams{}.server_node)
          .logical_blocks();
  }
  return 0;
}

std::vector<disk::DeviceClass> device_map(DiskType type, Arch arch,
                                          const block::ArrayGeometry& geo) {
  std::vector<disk::DeviceClass> map;
  if (type == DiskType::kHdd) return map;
  const int total = geo.total_disks();
  map.reserve(static_cast<std::size_t>(total));
  for (int id = 0; id < total; ++id) {
    bool ssd = true;
    if (type == DiskType::kHybrid) {
      ssd = arch == Arch::kRaid1 ? id % 2 == 0
                                 : id / geo.nodes < geo.disks_per_node / 2;
    }
    map.push_back(ssd ? disk::DeviceClass::kSsd : disk::DeviceClass::kHdd);
  }
  return map;
}

bool hybrid_mirrors(DiskType type, Arch arch) {
  return type == DiskType::kHybrid && arch != Arch::kRaid1;
}

int exclude_node(Arch arch) {
  return arch == Arch::kNfs ? nfs::NfsParams{}.server_node : -1;
}

}  // namespace raidx::workload
