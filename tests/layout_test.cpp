// Property tests for the four layout policies.
//
// These verify the address arithmetic the whole system rests on, over a
// sweep of array geometries (TEST_P): mapping bijectivity, zone bounds,
// and -- for RAID-x -- the orthogonality invariants Section 2 of the paper
// states.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "raid/layout.hpp"
#include "raid/raid0.hpp"
#include "raid/raid10.hpp"
#include "raid/raid5.hpp"
#include "raid/raidx.hpp"
#include "test_util.hpp"
#include "workload/engines.hpp"

namespace raidx::raid {
namespace {

using block::ArrayGeometry;
using block::PhysBlock;

struct GeoCase {
  int nodes;
  int disks_per_node;
  std::uint64_t blocks_per_disk;
};

ArrayGeometry make_geo(const GeoCase& c) {
  ArrayGeometry g;
  g.nodes = c.nodes;
  g.disks_per_node = c.disks_per_node;
  g.blocks_per_disk = c.blocks_per_disk;
  g.block_bytes = 512;
  return g;
}

class LayoutGeometries : public ::testing::TestWithParam<GeoCase> {};

// The geometries exercised: the paper's 16x1 Trojans array, the 4x3
// two-dimensional example, plus coprime and non-coprime (n,k) pairs.
INSTANTIATE_TEST_SUITE_P(
    Sweep, LayoutGeometries,
    ::testing::Values(GeoCase{16, 1, 340}, GeoCase{4, 3, 600},
                      GeoCase{4, 2, 512}, GeoCase{6, 2, 300},
                      GeoCase{2, 1, 128}, GeoCase{8, 4, 256},
                      GeoCase{5, 5, 275}),
    [](const auto& info) {
      return std::to_string(info.param.nodes) + "x" +
             std::to_string(info.param.disks_per_node);
    });

// Every physical placement a layout makes; used to check for collisions.
void check_no_collisions(const Layout& layout, std::uint64_t lbas_to_check) {
  std::map<std::pair<int, std::uint64_t>, std::string> used;
  auto claim = [&](PhysBlock pb, const std::string& what) {
    ASSERT_GE(pb.disk, 0) << what;
    ASSERT_LT(pb.disk, layout.geometry().total_disks()) << what;
    ASSERT_LT(pb.offset, layout.geometry().blocks_per_disk) << what;
    auto key = std::make_pair(pb.disk, pb.offset);
    auto [it, inserted] = used.emplace(key, what);
    ASSERT_TRUE(inserted) << what << " collides with " << it->second;
  };
  for (std::uint64_t b = 0; b < lbas_to_check; ++b) {
    claim(layout.data_location(b), "data " + std::to_string(b));
    for (const PhysBlock& m : layout.mirror_locations(b)) {
      claim(m, "mirror " + std::to_string(b));
    }
  }
}

TEST_P(LayoutGeometries, Raid0MappingHasNoCollisions) {
  Raid0Layout layout(make_geo(GetParam()));
  check_no_collisions(layout, std::min<std::uint64_t>(
                                  layout.logical_blocks(), 4096));
}

TEST_P(LayoutGeometries, Raid0UsesFullCapacity) {
  Raid0Layout layout(make_geo(GetParam()));
  EXPECT_EQ(layout.logical_blocks(),
            layout.geometry().total_blocks());
}

TEST_P(LayoutGeometries, Raid0SpreadsConsecutiveBlocksOverNodes) {
  Raid0Layout layout(make_geo(GetParam()));
  const int n = layout.geometry().nodes;
  std::set<int> nodes;
  for (int b = 0; b < n; ++b) {
    nodes.insert(layout.geometry().node_of(layout.data_location(b).disk));
  }
  EXPECT_EQ(static_cast<int>(nodes.size()), n);
}

TEST_P(LayoutGeometries, Raid5MappingHasNoCollisionsIncludingParity) {
  Raid5Layout layout(make_geo(GetParam()));
  std::map<std::pair<int, std::uint64_t>, std::string> used;
  const std::uint64_t stripes = 64;
  for (std::uint64_t s = 0; s < stripes; ++s) {
    const PhysBlock pp = layout.parity_location(s);
    auto [it, ins] =
        used.emplace(std::make_pair(pp.disk, pp.offset),
                     "parity " + std::to_string(s));
    ASSERT_TRUE(ins);
    for (std::uint32_t j = 0; j < layout.stripe_width(); ++j) {
      const std::uint64_t lba = layout.stripe_first_lba(s) + j;
      const PhysBlock pd = layout.data_location(lba);
      auto [it2, ins2] = used.emplace(std::make_pair(pd.disk, pd.offset),
                                      "data " + std::to_string(lba));
      ASSERT_TRUE(ins2) << "lba " << lba << " collides with "
                        << it2->second;
    }
  }
}

TEST_P(LayoutGeometries, Raid5ParityRotatesOverAllDisks) {
  Raid5Layout layout(make_geo(GetParam()));
  const int total = layout.geometry().total_disks();
  std::map<int, int> count;
  for (std::uint64_t s = 0; s < static_cast<std::uint64_t>(4 * total); ++s) {
    ++count[layout.parity_disk(s)];
  }
  ASSERT_EQ(static_cast<int>(count.size()), total);
  for (const auto& [disk, c] : count) EXPECT_EQ(c, 4) << "disk " << disk;
}

TEST_P(LayoutGeometries, Raid5StripeNeverRepeatsADisk) {
  Raid5Layout layout(make_geo(GetParam()));
  for (std::uint64_t s = 0; s < 32; ++s) {
    std::set<int> disks;
    disks.insert(layout.parity_disk(s));
    for (std::uint32_t j = 0; j < layout.stripe_width(); ++j) {
      disks.insert(
          layout.data_location(layout.stripe_first_lba(s) + j).disk);
    }
    EXPECT_EQ(disks.size(),
              static_cast<std::size_t>(layout.geometry().total_disks()));
  }
}

TEST_P(LayoutGeometries, Raid10MirrorOnDifferentNodeSameRow) {
  Raid10Layout layout(make_geo(GetParam()));
  const auto& geo = layout.geometry();
  for (std::uint64_t b = 0; b < std::min<std::uint64_t>(
                                    layout.logical_blocks(), 2048);
       ++b) {
    const PhysBlock d = layout.data_location(b);
    const auto mirrors = layout.mirror_locations(b);
    ASSERT_EQ(mirrors.size(), 1u);
    EXPECT_NE(geo.node_of(mirrors[0].disk), geo.node_of(d.disk));
    EXPECT_EQ(geo.row_of(mirrors[0].disk), geo.row_of(d.disk));
    // Chained: the backup lives on the *next* node.
    EXPECT_EQ(geo.node_of(mirrors[0].disk),
              (geo.node_of(d.disk) + 1) % geo.nodes);
    // Primary in the data zone, backup in the mirror zone.
    EXPECT_LT(d.offset, layout.mirror_zone_base());
    EXPECT_GE(mirrors[0].offset, layout.mirror_zone_base());
  }
}

TEST_P(LayoutGeometries, Raid10MappingHasNoCollisions) {
  Raid10Layout layout(make_geo(GetParam()));
  check_no_collisions(layout, std::min<std::uint64_t>(
                                  layout.logical_blocks(), 2048));
}

TEST_P(LayoutGeometries, Raid10HalvesCapacity) {
  Raid10Layout layout(make_geo(GetParam()));
  EXPECT_EQ(layout.logical_blocks(), layout.geometry().total_blocks() / 2);
}

// ---- RAID-x orthogonality invariants (Section 2) ---------------------------

TEST_P(LayoutGeometries, RaidxMappingHasNoCollisions) {
  RaidxLayout layout(make_geo(GetParam()));
  check_no_collisions(layout, std::min<std::uint64_t>(
                                  layout.logical_blocks(), 2048));
}

TEST_P(LayoutGeometries, RaidxNoBlockSharesDiskOrNodeWithItsImage) {
  RaidxLayout layout(make_geo(GetParam()));
  const auto& geo = layout.geometry();
  for (std::uint64_t b = 0; b < std::min<std::uint64_t>(
                                    layout.logical_blocks(), 2048);
       ++b) {
    const PhysBlock d = layout.data_location(b);
    for (const PhysBlock& m : layout.mirror_locations(b)) {
      EXPECT_NE(m.disk, d.disk) << "lba " << b;
      EXPECT_NE(geo.node_of(m.disk), geo.node_of(d.disk)) << "lba " << b;
    }
  }
}

TEST_P(LayoutGeometries, RaidxStripeImagesOccupyExactlyTwoDisks) {
  RaidxLayout layout(make_geo(GetParam()));
  const std::uint64_t stripes =
      std::min<std::uint64_t>(layout.logical_blocks() /
                                  layout.geometry().nodes,
                              256);
  for (std::uint64_t s = 0; s < stripes; ++s) {
    std::set<int> image_disks;
    for (std::uint32_t j = 0;
         j < static_cast<std::uint32_t>(layout.geometry().nodes); ++j) {
      const std::uint64_t lba = layout.stripe_first_lba(s) + j;
      for (const PhysBlock& m : layout.mirror_locations(lba)) {
        image_disks.insert(m.disk);
      }
    }
    EXPECT_EQ(image_disks.size(), layout.geometry().nodes >= 2 ? 2u : 1u)
        << "stripe " << s;
  }
}

TEST_P(LayoutGeometries, RaidxClusteredImagesAreContiguous) {
  RaidxLayout layout(make_geo(GetParam()));
  const int n = layout.geometry().nodes;
  for (std::uint64_t s = 0; s < 64; ++s) {
    const auto imgs = layout.stripe_images(s);
    EXPECT_EQ(imgs.clustered.nblocks, static_cast<std::uint32_t>(n - 1));
    EXPECT_EQ(imgs.clustered_lbas.size(), static_cast<std::size_t>(n - 1));
    // Each clustered lba's mirror_locations must land inside the run, in
    // run order.
    for (std::uint32_t i = 0; i < imgs.clustered.nblocks; ++i) {
      const auto ms = layout.mirror_locations(imgs.clustered_lbas[i]);
      ASSERT_EQ(ms.size(), 1u);
      EXPECT_EQ(ms[0].disk, imgs.clustered.disk);
      EXPECT_EQ(ms[0].offset, imgs.clustered.offset + i);
    }
    // The neighbor image is the stripe's remaining block.
    const auto nm = layout.mirror_locations(imgs.neighbor_lba);
    ASSERT_EQ(nm.size(), 1u);
    EXPECT_EQ(nm[0], imgs.neighbor);
  }
}

TEST_P(LayoutGeometries, RaidxImageNodeRotatesUniformly) {
  RaidxLayout layout(make_geo(GetParam()));
  const int n = layout.geometry().nodes;
  std::map<int, int> count;
  for (std::uint64_t s = 0; s < static_cast<std::uint64_t>(8 * n); ++s) {
    ++count[layout.image_node(s)];
  }
  ASSERT_EQ(static_cast<int>(count.size()), n);
  for (const auto& [node, c] : count) EXPECT_EQ(c, 8) << "node " << node;
}

TEST_P(LayoutGeometries, RaidxZonesDoNotOverlap) {
  RaidxLayout layout(make_geo(GetParam()));
  EXPECT_LE(layout.data_zone_blocks(), layout.clustered_zone_base());
  EXPECT_LE(layout.clustered_zone_base(), layout.neighbor_zone_base());
  const auto n = static_cast<std::uint64_t>(layout.geometry().nodes);
  EXPECT_LE(layout.neighbor_zone_base() + layout.data_zone_blocks(),
            layout.geometry().blocks_per_disk + n);
}

TEST_P(LayoutGeometries, RaidxDataAddressingMatchesRaid0) {
  // OSM keeps RAID-0's full-stripe data addressing (just less of it).
  const auto geo = make_geo(GetParam());
  RaidxLayout rx(geo);
  Raid0Layout r0(geo);
  for (std::uint64_t b = 0;
       b < std::min<std::uint64_t>(rx.logical_blocks(), 1024); ++b) {
    EXPECT_EQ(rx.data_location(b).disk, r0.data_location(b).disk);
  }
}

TEST_P(LayoutGeometries, RaidxSurvivesAnySingleDiskLossOnPaper) {
  // Address-level single-fault coverage: for every block, data and image
  // never share a disk, so losing any one disk leaves a copy.
  RaidxLayout layout(make_geo(GetParam()));
  const std::uint64_t check =
      std::min<std::uint64_t>(layout.logical_blocks(), 1024);
  for (int victim = 0; victim < layout.geometry().total_disks(); ++victim) {
    for (std::uint64_t b = 0; b < check; ++b) {
      const bool data_lost = layout.data_location(b).disk == victim;
      bool image_lost = false;
      for (const PhysBlock& m : layout.mirror_locations(b)) {
        if (m.disk == victim) image_lost = true;
      }
      EXPECT_FALSE(data_lost && image_lost) << "lba " << b;
    }
  }
}

// ---- redundancy recipe ------------------------------------------------------
//
// Layout::source_of is the one recipe that rebuild, repair and degraded
// reads follow.  These checks hold it against real bytes: preload gives
// every logical block distinct contents (and RAID-5 its parity), then each
// slot is re-derived from its sources alone.  No simulated I/O runs.

struct RecipeCase {
  const char* name;
  workload::Arch arch;
  bool hybrid;
};

class Recipe : public ::testing::TestWithParam<RecipeCase> {};

INSTANTIATE_TEST_SUITE_P(
    Layouts, Recipe,
    ::testing::Values(RecipeCase{"raid1", workload::Arch::kRaid1, false},
                      RecipeCase{"raid5", workload::Arch::kRaid5, false},
                      RecipeCase{"raid10", workload::Arch::kRaid10, false},
                      RecipeCase{"raid10_hybrid", workload::Arch::kRaid10,
                                 true},
                      RecipeCase{"raidx", workload::Arch::kRaidX, false},
                      RecipeCase{"raidx_hybrid", workload::Arch::kRaidX,
                                 true}),
    [](const auto& info) { return std::string(info.param.name); });

TEST_P(Recipe, SlotsRebuildFromTheirSourcesAndRowsCoverExactlyThem) {
  // 4 nodes x 2 disks x 32 blocks reaches every zone of every layout, plus
  // RAID-x's unpopulated image slots and its slack past the last zone.
  test::Rig rig(test::small_cluster(4, 2, 32, 64));
  EngineParams params;
  params.hybrid_mirrors = GetParam().hybrid;
  auto engine = workload::make_engine(GetParam().arch, rig.fabric, params);
  const Layout& layout = engine->layout();
  const auto& geo = layout.geometry();
  const std::uint32_t bs = engine->block_bytes();
  ASSERT_LE(layout.logical_blocks(), 256u) << "patterns must stay distinct";
  for (std::uint64_t lba = 0; lba < layout.logical_blocks(); ++lba) {
    engine->preload(lba, test::pattern_block(lba, bs));
  }
  auto stored = [&](PhysBlock pb) {
    return rig.cluster.disk(pb.disk).read_data(pb.offset, 1);
  };

  std::size_t sourced_total = 0;
  for (int disk = 0; disk < geo.total_disks(); ++disk) {
    std::set<std::uint64_t> sourced;
    for (std::uint64_t off = 0; off < geo.blocks_per_disk; ++off) {
      const PhysBlock slot{disk, off};
      const SlotSource src = layout.source_of(disk, off);
      if (src.kind == SlotSource::Kind::kNone) continue;
      SCOPED_TRACE("disk " + std::to_string(disk) + " offset " +
                   std::to_string(off));
      sourced.insert(off);
      ASSERT_FALSE(src.from.empty());
      std::vector<std::byte> rebuilt(bs, std::byte{0});
      for (const PhysBlock& pb : src.from) {
        EXPECT_NE(pb.disk, disk) << "a source on the slot's own disk";
        const auto bytes = stored(pb);
        if (src.kind == SlotSource::Kind::kCopy) {
          rebuilt = bytes;
          EXPECT_EQ(rebuilt, stored(slot));
        } else {
          for (std::uint32_t i = 0; i < bs; ++i) rebuilt[i] ^= bytes[i];
        }
      }
      EXPECT_EQ(rebuilt, stored(slot));

      if (!src.lba) {
        // Only parity carries no logical block.
        EXPECT_EQ(src.kind, SlotSource::Kind::kXor);
        continue;
      }
      EXPECT_EQ(stored(slot), test::pattern_block(*src.lba, bs));
      EXPECT_EQ(src.lock_group, layout.lock_group_of(*src.lba));
      // The slot is a copy of its block: the data location or a mirror.
      std::set<std::pair<int, std::uint64_t>> copies;
      const PhysBlock d = layout.data_location(*src.lba);
      copies.insert({d.disk, d.offset});
      for (const PhysBlock& m : layout.mirror_locations(*src.lba)) {
        copies.insert({m.disk, m.offset});
      }
      EXPECT_EQ(copies.count({disk, off}), 1u);
      if (src.kind == SlotSource::Kind::kCopy) {
        // ...and its sources are exactly the block's other copies.
        std::set<std::pair<int, std::uint64_t>> others;
        for (const PhysBlock& pb : src.from) {
          others.insert({pb.disk, pb.offset});
        }
        others.insert({disk, off});
        EXPECT_EQ(others, copies);
      }
    }
    sourced_total += sourced.size();

    std::set<std::uint64_t> covered;
    for (std::uint64_t row = 0; row < layout.rebuild_rows(disk); ++row) {
      for (const block::PhysExtent& e : layout.rebuild_row(disk, row)) {
        EXPECT_EQ(e.disk, disk);
        for (std::uint32_t i = 0; i < e.nblocks; ++i) {
          EXPECT_TRUE(covered.insert(e.offset + i).second)
              << "disk " << disk << " offset " << e.offset + i
              << " restored twice";
        }
      }
    }
    EXPECT_EQ(covered, sourced) << "disk " << disk;
  }
  EXPECT_GT(sourced_total, 0u);
}

// ---- extent merging ---------------------------------------------------------

TEST(DataExtents, FullStripeBecomesOneRunPerDisk) {
  ArrayGeometry g;
  g.nodes = 4;
  g.disks_per_node = 1;
  g.blocks_per_disk = 1000;
  Raid0Layout layout(g);
  // 3 consecutive stripes: each disk must get exactly one 3-block run.
  const auto extents = data_extents(layout, 0, 12);
  ASSERT_EQ(extents.size(), 4u);
  for (const auto& e : extents) EXPECT_EQ(e.extent.nblocks, 3u);
}

TEST(DataExtents, SingleBlock) {
  ArrayGeometry g;
  g.nodes = 4;
  g.disks_per_node = 1;
  g.blocks_per_disk = 1000;
  Raid0Layout layout(g);
  const auto extents = data_extents(layout, 7, 1);
  ASSERT_EQ(extents.size(), 1u);
  EXPECT_EQ(extents[0].extent.nblocks, 1u);
  EXPECT_EQ(extents[0].lbas, std::vector<std::uint64_t>{7});
  EXPECT_EQ(extents[0].extent, (block::PhysExtent{
                            layout.data_location(7).disk,
                            layout.data_location(7).offset, 1}));
}

TEST(DataExtents, TwoDimensionalArrayMergesPerDiskRuns) {
  ArrayGeometry g;
  g.nodes = 4;
  g.disks_per_node = 3;
  g.blocks_per_disk = 1000;
  Raid0Layout layout(g);
  // 2 full rounds of the 12-disk array: one 2-block run per disk.
  const auto extents = data_extents(layout, 0, 24);
  ASSERT_EQ(extents.size(), 12u);
  for (const auto& e : extents) EXPECT_EQ(e.extent.nblocks, 2u);
}

}  // namespace
}  // namespace raidx::raid
