// Integrity-plane tests: CRC32C correctness (including the zero-run fast
// path and the slice-vs-materialize oracle), detection and repair of
// injected silent corruption on every layout, RAID-0's explicit
// unrecoverable verdict, byte-exactness under concurrent writers, the
// warm-cache regression, and error-rate escalation to whole-disk failure.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <span>
#include <vector>

#include "cache/cache_fabric.hpp"
#include "integrity/checksum.hpp"
#include "integrity/integrity.hpp"
#include "raid/controller.hpp"
#include "test_util.hpp"

namespace raidx::integrity {
namespace {

using test::Rig;

// ------------------------------------------------------------ checksums --

TEST(Crc32c, KnownVector) {
  // The canonical CRC32C check value: "123456789" -> 0xE3069283.
  const char* msg = "123456789";
  std::vector<std::byte> data;
  for (const char* p = msg; *p != '\0'; ++p) {
    data.push_back(static_cast<std::byte>(*p));
  }
  EXPECT_EQ(crc32c(data), 0xE3069283u);
}

TEST(Crc32c, ZeroRunMatchesMaterializedZeros) {
  for (std::uint64_t n : {0ull, 1ull, 7ull, 64ull, 511ull, 512ull, 4096ull,
                          100'000ull}) {
    const std::vector<std::byte> zeros(n, std::byte{0});
    EXPECT_EQ(crc32c_zeros(n), crc32c(zeros)) << "n=" << n;
  }
}

TEST(Crc32c, ExtendZerosComposesWithData) {
  // crc(data ++ 0^n) must equal extend_zeros(crc(data), n), for run
  // lengths up to 2^20 and on both sides of every power of two (each set
  // bit of n picks one of the precomputed operators).
  const auto data = test::pattern_block(3, 97);
  std::vector<std::uint64_t> ns = {0, 13, 256, 5000, 1ull << 20};
  for (int k = 1; k <= 20; ++k) {
    ns.push_back((1ull << k) - 1);
    ns.push_back((1ull << k) + 1);
  }
  std::sort(ns.begin(), ns.end());
  ns.erase(std::unique(ns.begin(), ns.end()), ns.end());
  // The oracle appends the zeros byte by byte, one run after another.
  const std::vector<std::byte> zeros(ns.back(), std::byte{0});
  const std::uint32_t base = crc32c(data);
  std::uint32_t running = base;
  std::uint64_t have = 0;
  for (std::uint64_t n : ns) {
    running = crc32c(running, std::span<const std::byte>(zeros.data(),
                                                          n - have));
    have = n;
    EXPECT_EQ(crc32c_extend_zeros(base, n), running) << "n=" << n;
  }
  std::vector<std::byte> padded = data;
  padded.resize(data.size() + 5000, std::byte{0});
  EXPECT_EQ(crc32c_extend_zeros(base, 5000), crc32c(padded));
}

TEST(Crc32c, PayloadZeroRunEqualsMaterialized) {
  const auto p = block::Payload::zeros(4096);
  EXPECT_EQ(crc_of(p), crc32c(p.to_vector()));
}

// The satellite oracle: for random payloads (zero-runs, and bytes with no,
// a partial or an all-zero tail) under random nested slicing, the slice
// must materialize to the same cut of the input bytes, and every reader of
// it -- crc_of, copy_to at a random offset, xor_into -- must agree with
// the same operation on those bytes.  This is exactly the invariant a
// stale slice offset, or a reader that forgets the zero tail past the
// stored prefix, would break.
TEST(Crc32c, RandomSliceVsMaterializeOracle) {
  std::mt19937 rng(0xC0FFEE);
  for (int iter = 0; iter < 300; ++iter) {
    const std::size_t n = 1 + rng() % 2048;
    // `want` is the payload's bytes, kept beside it as a plain vector.
    std::vector<std::byte> want(n, std::byte{0});
    block::Payload p = block::Payload::zeros(n);
    if (rng() % 4 != 0) {
      for (auto& b : want) b = static_cast<std::byte>(rng());
      // Zero the tail: none of it, part of it, or the whole buffer.
      std::size_t keep = n;
      switch (rng() % 3) {
        case 1: keep = rng() % n; break;
        case 2: keep = 0; break;
      }
      std::fill(want.begin() + keep, want.end(), std::byte{0});
      p = rng() % 2 == 0 ? block::Payload::own(want)
                         : block::Payload::copy(want);
      const std::span<const std::byte> s = p.stored();
      EXPECT_TRUE(s.empty() || s.back() != std::byte{0}) << "iter=" << iter;
      EXPECT_LE(s.size(), keep) << "iter=" << iter;
      EXPECT_EQ(p.is_zeros(), std::ranges::all_of(want, [](std::byte b) {
                  return b == std::byte{0};
                })) << "iter=" << iter;
    }
    // Up to three levels of nested slicing.  The first straddles the
    // prefix/tail boundary when the payload has one.
    const int depth = static_cast<int>(rng() % 4);
    for (int d = 0; d < depth && p.size() > 0; ++d) {
      const std::size_t edge = p.stored().size();
      std::size_t off = rng() % p.size();
      std::size_t len = rng() % (p.size() - off + 1);
      if (d == 0 && edge > 0 && edge < p.size()) {
        off = rng() % edge;
        len = edge - off + 1 + rng() % (p.size() - edge);
      }
      p = p.slice(off, len);
      want = std::vector<std::byte>(want.begin() + off,
                                    want.begin() + off + len);
    }
    const std::vector<std::byte> bytes = p.to_vector();
    EXPECT_EQ(bytes, want) << "iter=" << iter;
    EXPECT_EQ(crc_of(p), crc32c(bytes))
        << "iter=" << iter << " size=" << p.size()
        << " stored=" << p.stored().size();

    const std::size_t from = rng() % (p.size() + 1);
    const std::size_t len = rng() % (p.size() - from + 1);
    std::vector<std::byte> got(len, std::byte{0xAA});
    p.copy_to(got, from);
    EXPECT_TRUE(std::ranges::equal(
        got, std::span<const std::byte>(bytes).subspan(from, len)))
        << "iter=" << iter << " from=" << from << " len=" << len;

    std::vector<std::byte> acc(p.size());
    for (auto& b : acc) b = static_cast<std::byte>(rng());
    std::vector<std::byte> xored = acc;
    for (std::size_t i = 0; i < xored.size(); ++i) xored[i] ^= bytes[i];
    block::xor_into(acc, p);
    EXPECT_EQ(acc, xored) << "iter=" << iter;
  }
}

// ----------------------------------------------------- repair per layout --

sim::Task<> do_write(raid::ArrayController* eng, int client, std::uint64_t lba,
                     std::uint32_t nblocks, std::uint8_t salt) {
  const auto data = test::pattern_run(lba, nblocks, eng->block_bytes(), salt);
  co_await eng->write(client, lba, data);
}

sim::Task<> do_read(raid::ArrayController* eng, int client, std::uint64_t lba,
                    std::uint32_t nblocks, std::vector<std::byte>* out) {
  out->assign(static_cast<std::size_t>(nblocks) * eng->block_bytes(),
              std::byte{0});
  co_await eng->read(client, lba, nblocks, *out);
}

// Corrupt the physical block backing `lba`, drive one scrub pass, and
// check the plane detected and repaired it and the logical bytes are
// byte-identical to what was written.
void corruption_round_trip(Rig& rig, raid::ArrayController& eng) {
  IntegrityPlane plane(eng);
  rig.run(do_write(&eng, 0, 0, 12, /*salt=*/1));

  const std::uint64_t lba = 5;
  const auto pb = eng.layout().data_location(lba);
  rig.cluster.disk(pb.disk).corrupt(pb.offset);
  plane.note_corruption_injected(pb.disk, pb.offset);
  EXPECT_EQ(plane.undetected(), 1u);

  rig.run(plane.scrub_pass());

  const IntegrityStats& s = plane.stats();
  EXPECT_EQ(s.detected, 1u) << eng.name();
  EXPECT_EQ(s.detected_by_scrub, 1u) << eng.name();
  EXPECT_EQ(s.repaired, 1u) << eng.name();
  EXPECT_EQ(s.unrecoverable, 0u) << eng.name();
  EXPECT_EQ(plane.undetected(), 0u) << eng.name();
  EXPECT_EQ(plane.pending_repairs(), 0u) << eng.name();
  EXPECT_FALSE(rig.cluster.disk(pb.disk).corrupted(pb.offset)) << eng.name();
  ASSERT_EQ(s.mttd_ns.size(), 1u);

  std::vector<std::byte> got;
  rig.run(do_read(&eng, 1, 0, 12, &got));
  EXPECT_EQ(got, test::pattern_run(0, 12, eng.block_bytes(), 1)) << eng.name();
}

TEST(IntegrityRepair, Raid1) {
  Rig rig(test::small_cluster());
  raid::Raid1Controller eng(rig.fabric);
  corruption_round_trip(rig, eng);
}

TEST(IntegrityRepair, Raid5) {
  Rig rig(test::small_cluster());
  raid::Raid5Controller eng(rig.fabric);
  corruption_round_trip(rig, eng);
}

TEST(IntegrityRepair, Raid10) {
  Rig rig(test::small_cluster());
  raid::Raid10Controller eng(rig.fabric);
  corruption_round_trip(rig, eng);
}

TEST(IntegrityRepair, Raidx) {
  Rig rig(test::small_cluster());
  raid::RaidxController eng(rig.fabric);
  corruption_round_trip(rig, eng);
}

// RAID-5 must also repair a rotten *parity* block (reconstructed by
// XOR-ing the stripe's data blocks).
TEST(IntegrityRepair, Raid5ParityBlock) {
  Rig rig(test::small_cluster());
  raid::Raid5Controller eng(rig.fabric);
  IntegrityPlane plane(eng);
  rig.run(do_write(&eng, 0, 0, 12, 1));

  const auto pp = eng.raid5().parity_location(1);
  rig.cluster.disk(pp.disk).corrupt(pp.offset);
  plane.note_corruption_injected(pp.disk, pp.offset);
  rig.run(plane.scrub_pass());

  EXPECT_EQ(plane.stats().repaired, 1u);
  EXPECT_FALSE(rig.cluster.disk(pp.disk).corrupted(pp.offset));
  // Parity invariant restored: XOR of data blocks equals stored parity.
  const std::uint32_t bs = eng.block_bytes();
  std::vector<std::byte> acc(bs, std::byte{0});
  const auto& layout = eng.raid5();
  for (std::uint32_t j = 0; j < layout.stripe_width(); ++j) {
    const auto db = layout.data_location(layout.stripe_first_lba(1) + j);
    const auto blk = rig.cluster.disk(db.disk).read_data(db.offset, 1);
    for (std::uint32_t i = 0; i < bs; ++i) acc[i] ^= blk[i];
  }
  EXPECT_EQ(acc, rig.cluster.disk(pp.disk).read_data(pp.offset, 1));
}

// -------------------------------------------------- RAID-0: no redundancy --

TEST(IntegrityRepair, Raid0WrittenBlockIsUnrecoverable) {
  Rig rig(test::small_cluster());
  raid::Raid0Controller eng(rig.fabric);
  IntegrityPlane plane(eng);
  rig.run(do_write(&eng, 0, 0, 8, 1));

  const std::uint64_t lba = 6;
  const auto pb = eng.layout().data_location(lba);
  rig.cluster.disk(pb.disk).corrupt(pb.offset);
  plane.note_corruption_injected(pb.disk, pb.offset);
  rig.run(plane.scrub_pass());

  const IntegrityStats& s = plane.stats();
  EXPECT_EQ(s.detected, 1u);
  EXPECT_EQ(s.repaired, 0u);
  EXPECT_EQ(s.unrecoverable, 1u);
  // The loss is reported exactly, not summarized.
  ASSERT_EQ(s.unrecoverable_blocks.size(), 1u);
  EXPECT_EQ(s.unrecoverable_blocks[0].disk, pb.disk);
  EXPECT_EQ(s.unrecoverable_blocks[0].offset, pb.offset);
  // Re-scrubbing must not double-count the verdict.
  rig.run(plane.scrub_pass());
  EXPECT_EQ(plane.stats().unrecoverable, 1u);
  EXPECT_EQ(plane.stats().detected, 1u);
}

TEST(IntegrityRepair, Raid0NeverWrittenBlockRepairsToZeros) {
  // A rotten block that was never written has known contents (all zeros):
  // even RAID-0 restores it, by rewriting zeros.
  Rig rig(test::small_cluster());
  raid::Raid0Controller eng(rig.fabric);
  IntegrityPlane plane(eng);

  const int disk = 2;
  const std::uint64_t off = 500;  // far beyond anything written
  rig.cluster.disk(disk).corrupt(off);
  plane.note_corruption_injected(disk, off);
  rig.run(plane.scrub_pass());

  EXPECT_EQ(plane.stats().repaired, 1u);
  EXPECT_EQ(plane.stats().unrecoverable, 0u);
  const auto blk = rig.cluster.disk(disk).read_data(off, 1);
  EXPECT_EQ(blk, std::vector<std::byte>(eng.block_bytes(), std::byte{0}));
}

// ------------------------------------------------------- verify-on-read --

TEST(IntegrityVerifyRead, CorruptReadDetectsAndServesGoodBytes) {
  Rig rig(test::small_cluster());
  raid::Raid1Controller eng(rig.fabric);
  IntegrityParams ip;
  ip.verify_reads = true;
  IntegrityPlane plane(eng, ip);
  rig.run(do_write(&eng, 0, 0, 8, 3));

  const std::uint64_t lba = 2;
  const auto pb = eng.layout().data_location(lba);
  rig.cluster.disk(pb.disk).corrupt(pb.offset);
  plane.note_corruption_injected(pb.disk, pb.offset);

  // The read hits the rotten primary copy: the serving CDD refuses the
  // bytes, the degraded path fetches the mirror, and the client still
  // sees exactly what was written.
  std::vector<std::byte> got;
  rig.run(do_read(&eng, 1, lba, 1, &got));
  EXPECT_EQ(got, test::pattern_block(lba, eng.block_bytes(), 3));
  EXPECT_EQ(plane.stats().detected_by_read, 1u);
  // The detection also queued a repair; the run drained it.
  EXPECT_EQ(plane.stats().repaired, 1u);
  EXPECT_FALSE(rig.cluster.disk(pb.disk).corrupted(pb.offset));
}

// --------------------------------------------------- concurrent writers --

TEST(IntegrityRepair, ByteExactUnderConcurrentStripeWriters) {
  // Repair of a rotten RAID-5 block races client writes into the *same
  // stripes*.  The repair takes the stripe lock group, so both the
  // repaired block and every concurrently written block must come out
  // byte-exact, with parity consistent.
  Rig rig(test::small_cluster());
  raid::Raid5Controller eng(rig.fabric);
  IntegrityPlane plane(eng);
  rig.run(do_write(&eng, 0, 0, 12, 1));

  const std::uint64_t victim = 5;
  const auto pb = eng.layout().data_location(victim);
  rig.cluster.disk(pb.disk).corrupt(pb.offset);
  plane.note_corruption_injected(pb.disk, pb.offset);

  // Writers overwrite every block *except* the victim while the scrub
  // pass (and the repair it triggers) runs.
  rig.sim.spawn(do_write(&eng, 1, 0, 5, 2));
  rig.sim.spawn(do_write(&eng, 2, 6, 6, 2));
  rig.run(plane.scrub_pass());

  EXPECT_EQ(plane.stats().repaired, 1u);
  std::vector<std::byte> got;
  rig.run(do_read(&eng, 3, 0, 12, &got));
  const std::uint32_t bs = eng.block_bytes();
  for (std::uint64_t b = 0; b < 12; ++b) {
    const std::uint8_t salt = b == victim ? 1 : 2;
    const auto want = test::pattern_block(b, bs, salt);
    const std::vector<std::byte> have(got.begin() + b * bs,
                                      got.begin() + (b + 1) * bs);
    EXPECT_EQ(have, want) << "lba " << b;
  }
}

// ------------------------------------------------------ cache regression --

TEST(IntegrityCache, CorruptBlockNeverServedFromWarmCache) {
  // A rotten block must not warm any cache: the first (missing) read is
  // verified at the CDD, served from the mirror, and only good bytes are
  // installed.  The second read is a cache hit and must be good too.
  cache::CacheParams cp;
  cp.capacity_blocks = 64;
  cp.write_policy = cache::WritePolicy::kWriteThrough;
  cp.cooperative = true;
  Rig rig(test::small_cluster());
  cache::CacheFabric cache_fabric(rig.cluster, cp);
  raid::Raid1Controller eng(rig.fabric);
  eng.attach_cache(&cache_fabric);
  IntegrityParams ip;
  ip.verify_reads = true;
  IntegrityPlane plane(eng, ip);
  rig.run(do_write(&eng, 0, 0, 4, 7));

  const std::uint64_t lba = 1;
  const auto pb = eng.layout().data_location(lba);
  rig.cluster.disk(pb.disk).corrupt(pb.offset);
  plane.note_corruption_injected(pb.disk, pb.offset);

  std::vector<std::byte> first, second;
  rig.run(do_read(&eng, 2, lba, 1, &first));
  EXPECT_EQ(first, test::pattern_block(lba, eng.block_bytes(), 7))
      << "corrupt bytes leaked through the miss path";
  const std::uint64_t hits_before = cache_fabric.stats().hits;
  rig.run(do_read(&eng, 2, lba, 1, &second));
  EXPECT_EQ(second, test::pattern_block(lba, eng.block_bytes(), 7))
      << "corrupt bytes were served from the warm cache";
  EXPECT_GT(cache_fabric.stats().hits, hits_before)
      << "second read should have been a cache hit";
}

// ----------------------------------------------------------- escalation --

TEST(IntegrityEscalation, ErrorThresholdFailsTheDisk) {
  Rig rig(test::small_cluster());
  raid::Raid1Controller eng(rig.fabric);
  IntegrityParams ip;
  ip.fail_threshold = 2;
  IntegrityPlane plane(eng, ip);
  rig.run(do_write(&eng, 0, 0, 12, 4));

  // Two rotten blocks on the same disk: the first is repaired in place,
  // the second crosses the threshold and retires the whole disk.
  const auto pb0 = eng.layout().data_location(0);
  const auto pb2 = eng.layout().data_location(2);
  ASSERT_EQ(pb0.disk, pb2.disk);  // both land on the stripe's first disk
  rig.cluster.disk(pb0.disk).corrupt(pb0.offset);
  plane.note_corruption_injected(pb0.disk, pb0.offset);
  rig.cluster.disk(pb2.disk).corrupt(pb2.offset);
  plane.note_corruption_injected(pb2.disk, pb2.offset);

  rig.run(plane.scrub_pass());

  EXPECT_EQ(plane.stats().escalations, 1u);
  EXPECT_TRUE(rig.cluster.disk(pb0.disk).failed());
  // The array still serves the failed disk's data via its mirror.
  std::vector<std::byte> got;
  rig.run(do_read(&eng, 1, 0, 12, &got));
  EXPECT_EQ(got, test::pattern_run(0, 12, eng.block_bytes(), 4));
}

}  // namespace
}  // namespace raidx::integrity
