// Minimal inode file system over the single I/O space.
//
// The Andrew benchmark (Fig. 6) measures how the underlying storage layout
// shapes file-system behaviour, so this FS is deliberately simple but
// issues *real* block traffic through an ArrayController: directory
// lookups read directory blocks, creates append directory entries and
// write inode blocks, file reads/writes move data blocks.  Differences between RAID-x,
// RAID-5, RAID-10 and NFS then emerge purely from the storage layer, as in
// the paper.
//
// Volume format (block addresses in the engine's logical space):
//   [0]                      superblock
//   [1 .. 1+inode_blocks)    inode table
//   [data_start ..)          directory + file data
//
// Simplifications, chosen to keep the traffic mix realistic without
// building a full VFS:
//  * inode table and allocation bitmap are cached write-through in memory;
//    inode updates are charged as one inode-block write, bitmap updates are
//    treated as deferred (journaled) and not charged;
//  * block pointers live in the cached inode (no indirect-block traffic);
//  * directory *contents* are never cached -- every lookup pays real reads,
//    like a cold dentry cache.
//
// Concurrency: per-inode locks serialize directory mutations; block-level
// consistency across clients is the CDD lock-group table's job.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "raid/controller.hpp"
#include "sim/resource.hpp"
#include "sim/task.hpp"

namespace raidx::fs {

using Ino = std::int64_t;
inline constexpr Ino kRootIno = 0;
inline constexpr Ino kInvalidIno = -1;

enum class FileType : std::uint8_t { kFile, kDirectory };

struct FileInfo {
  Ino ino = kInvalidIno;
  FileType type = FileType::kFile;
  std::uint64_t size = 0;
  std::uint32_t nlink = 1;
};

struct DirEntry {
  std::string name;
  Ino ino;
  FileType type;
};

class FsError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class FileSystem {
 public:
  struct Params {
    std::uint64_t max_inodes = 4096;
    /// Bytes of a serialized directory entry on disk.
    std::uint32_t dirent_bytes = 64;
  };

  explicit FileSystem(raid::ArrayController& engine);
  FileSystem(raid::ArrayController& engine, Params params);

  /// Initialize an empty volume with a root directory (charged I/O).
  sim::Task<> format(int client);

  /// Resolve an absolute path ("/a/b/c"); throws FsError if missing.
  sim::Task<Ino> lookup(int client, std::string_view path);

  /// Create a file / directory under an existing parent path.
  sim::Task<Ino> create(int client, std::string_view path);
  sim::Task<Ino> mkdir(int client, std::string_view path);

  /// Remove a file (directories must be empty).
  sim::Task<> unlink(int client, std::string_view path);

  /// Metadata (free: inode cache).
  FileInfo stat(Ino ino) const;

  /// Read/write file contents at a byte offset.  Writes extend the file;
  /// reads past EOF return the bytes available.
  sim::Task<std::uint64_t> write_at(int client, Ino ino, std::uint64_t offset,
                                    std::span<const std::byte> data);
  sim::Task<std::uint64_t> read_at(int client, Ino ino, std::uint64_t offset,
                                   std::span<std::byte> out);

  /// List a directory (charged reads of its blocks).
  sim::Task<std::vector<DirEntry>> readdir(int client, Ino dir);

  std::uint32_t block_bytes() const { return engine_.block_bytes(); }
  std::uint64_t blocks_in_use() const { return allocated_; }
  raid::ArrayController& engine() { return engine_; }

 private:
  struct Inode {
    FileType type = FileType::kFile;
    std::uint64_t size = 0;
    std::uint32_t nlink = 1;
    bool in_use = false;
    std::vector<std::uint64_t> blocks;  // logical block addresses
  };

  sim::Task<Ino> resolve_parent(int client, std::string_view path,
                                std::string* leaf);
  sim::Task<Ino> dir_find(int client, Ino dir, std::string_view name);
  // By value: coroutine parameters must own anything that outlives the
  // caller's full expression.
  sim::Task<> dir_append(int client, Ino dir, DirEntry entry);
  sim::Task<> dir_remove(int client, Ino dir, std::string_view name);
  sim::Task<Ino> make_node(int client, std::string_view path, FileType type);

  /// Charge the write of the inode-table block holding `ino`.
  sim::Task<> write_inode(int client, Ino ino);

  std::uint64_t alloc_block();
  void free_block(std::uint64_t b);
  Inode& inode(Ino ino);
  const Inode& inode(Ino ino) const;
  sim::Resource& ino_lock(Ino ino);

  /// Ensure the file covers byte `offset + len`, allocating blocks.
  void extend(Inode& node, std::uint64_t end_byte);

  std::uint64_t inode_table_block(Ino ino) const;

  raid::ArrayController& engine_;
  sim::Simulation& sim_;
  Params params_;
  std::uint64_t inode_blocks_;
  std::uint64_t data_start_;
  std::uint64_t next_free_;  // bump allocator with free list
  std::vector<std::uint64_t> free_list_;
  std::uint64_t allocated_ = 0;
  std::vector<Inode> inodes_;
  /// Authoritative directory contents.  Kept in memory so correctness does
  /// not depend on the disks' byte stores (perf sweeps disable those); the
  /// I/O traffic for every directory block is still charged through the
  /// engine.
  std::unordered_map<Ino, std::vector<DirEntry>> dirs_;
  std::unordered_map<Ino, std::unique_ptr<sim::Resource>> locks_;
  bool formatted_ = false;
};

/// Split "/a/b/c" into components; throws FsError on malformed paths.
std::vector<std::string> split_path(std::string_view path);

}  // namespace raidx::fs
