#include "raid/layout.hpp"

namespace raidx::raid {

std::vector<MappedExtent> data_extents(const Layout& layout, std::uint64_t lba,
                                       std::uint32_t nblocks) {
  std::vector<MappedExtent> extents;
  for (std::uint32_t i = 0; i < nblocks; ++i) {
    const block::PhysBlock pb = layout.data_location(lba + i);
    bool merged = false;
    for (auto& e : extents) {
      if (e.extent.disk == pb.disk &&
          e.extent.offset + e.extent.nblocks == pb.offset) {
        ++e.extent.nblocks;
        e.lbas.push_back(lba + i);
        merged = true;
        break;
      }
    }
    if (!merged) {
      extents.push_back(
          MappedExtent{block::PhysExtent{pb.disk, pb.offset, 1}, {lba + i}});
    }
  }
  return extents;
}

}  // namespace raidx::raid
