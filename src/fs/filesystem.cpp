#include "fs/filesystem.hpp"

#include <algorithm>
#include <cassert>

namespace raidx::fs {

std::vector<std::string> split_path(std::string_view path) {
  if (path.empty() || path.front() != '/') {
    throw FsError("path must be absolute: '" + std::string(path) + "'");
  }
  std::vector<std::string> parts;
  std::size_t pos = 1;
  while (pos < path.size()) {
    const std::size_t next = path.find('/', pos);
    const std::size_t end = next == std::string_view::npos ? path.size() : next;
    if (end > pos) parts.emplace_back(path.substr(pos, end - pos));
    pos = end + 1;
  }
  return parts;
}

FileSystem::FileSystem(raid::ArrayController& engine)
    : FileSystem(engine, Params{}) {}

FileSystem::FileSystem(raid::ArrayController& engine, Params params)
    : engine_(engine), sim_(engine.simulation()), params_(params) {
  const std::uint32_t bs = engine_.block_bytes();
  const std::uint64_t inode_bytes = 128;
  inode_blocks_ =
      (params_.max_inodes * inode_bytes + bs - 1) / bs;
  data_start_ = 1 /*superblock*/ + inode_blocks_;
  if (data_start_ + 1 >= engine_.logical_blocks()) {
    throw FsError(
        "volume too small for the inode table; reduce Params::max_inodes");
  }
  next_free_ = data_start_;
  inodes_.resize(params_.max_inodes);
  // Superblock + inode table are the hottest reuse in every FS workload:
  // tell an attached block cache to evict them last.
  engine_.set_cache_pinned_range(0, data_start_);
}

std::uint64_t FileSystem::inode_table_block(Ino ino) const {
  const std::uint32_t bs = engine_.block_bytes();
  const std::uint64_t inodes_per_block = bs / 128;
  return 1 + static_cast<std::uint64_t>(ino) / inodes_per_block;
}

FileSystem::Inode& FileSystem::inode(Ino ino) {
  if (ino < 0 || static_cast<std::size_t>(ino) >= inodes_.size() ||
      !inodes_[static_cast<std::size_t>(ino)].in_use) {
    throw FsError("bad inode " + std::to_string(ino));
  }
  return inodes_[static_cast<std::size_t>(ino)];
}

const FileSystem::Inode& FileSystem::inode(Ino ino) const {
  if (ino < 0 || static_cast<std::size_t>(ino) >= inodes_.size() ||
      !inodes_[static_cast<std::size_t>(ino)].in_use) {
    throw FsError("bad inode " + std::to_string(ino));
  }
  return inodes_[static_cast<std::size_t>(ino)];
}

sim::Resource& FileSystem::ino_lock(Ino ino) {
  auto it = locks_.find(ino);
  if (it == locks_.end()) {
    it = locks_.emplace(ino, std::make_unique<sim::Resource>(sim_, 1)).first;
  }
  return *it->second;
}

std::uint64_t FileSystem::alloc_block() {
  ++allocated_;
  if (!free_list_.empty()) {
    const std::uint64_t b = free_list_.back();
    free_list_.pop_back();
    return b;
  }
  if (next_free_ >= engine_.logical_blocks()) {
    --allocated_;
    throw FsError("file system full");
  }
  return next_free_++;
}

void FileSystem::free_block(std::uint64_t b) {
  --allocated_;
  free_list_.push_back(b);
}

// Metadata blocks carry no modeled bytes: they are written as zero runs,
// which store nothing and cost the same I/O.
sim::Task<> FileSystem::write_inode(int client, Ino ino) {
  co_await engine_.write(client, inode_table_block(ino),
                         block::Payload::zeros(engine_.block_bytes()));
}

sim::Task<> FileSystem::format(int client) {
  if (formatted_) throw FsError("already formatted");
  formatted_ = true;
  // Superblock.
  co_await engine_.write(client, 0,
                         block::Payload::zeros(engine_.block_bytes()));
  // Root directory.
  Inode& root = inodes_[kRootIno];
  root.in_use = true;
  root.type = FileType::kDirectory;
  root.size = 0;
  dirs_[kRootIno] = {};
  co_await write_inode(client, kRootIno);
}

sim::Task<Ino> FileSystem::dir_find(int client, Ino dir,
                                    std::string_view name) {
  const Inode& d = inode(dir);
  if (d.type != FileType::kDirectory) throw FsError("not a directory");
  // Charge reads of every directory block (cold dentry cache).
  for (std::uint64_t b : d.blocks) {
    std::vector<std::byte> buf(engine_.block_bytes());
    co_await engine_.read(client, b, 1, buf);
  }
  const auto& entries = dirs_[dir];
  for (const DirEntry& e : entries) {
    if (e.name == name) co_return e.ino;
  }
  co_return kInvalidIno;
}

sim::Task<> FileSystem::dir_append(int client, Ino dir, DirEntry entry) {
  Inode& d = inode(dir);
  auto& entries = dirs_[dir];
  entries.push_back(std::move(entry));
  d.size = entries.size() * params_.dirent_bytes;
  // Grow the directory if the new entry spilled into a fresh block, then
  // rewrite the tail block.
  const std::uint32_t bs = engine_.block_bytes();
  const std::uint64_t blocks_needed = (d.size + bs - 1) / bs;
  while (d.blocks.size() < blocks_needed) d.blocks.push_back(alloc_block());
  co_await engine_.write(client, d.blocks.back(), block::Payload::zeros(bs));
  co_await write_inode(client, dir);
}

sim::Task<> FileSystem::dir_remove(int client, Ino dir,
                                   std::string_view name) {
  Inode& d = inode(dir);
  auto& entries = dirs_[dir];
  auto it = std::find_if(entries.begin(), entries.end(),
                         [&](const DirEntry& e) { return e.name == name; });
  if (it == entries.end()) throw FsError("no such entry");
  entries.erase(it);
  d.size = entries.size() * params_.dirent_bytes;
  const std::uint32_t bs = engine_.block_bytes();
  const std::uint64_t blocks_needed = (d.size + bs - 1) / bs;
  while (d.blocks.size() > blocks_needed) {
    free_block(d.blocks.back());
    d.blocks.pop_back();
  }
  if (!d.blocks.empty()) {
    co_await engine_.write(client, d.blocks.back(), block::Payload::zeros(bs));
  }
  co_await write_inode(client, dir);
}

sim::Task<Ino> FileSystem::lookup(int client, std::string_view path) {
  const auto parts = split_path(path);
  Ino cur = kRootIno;
  for (const auto& part : parts) {
    cur = co_await dir_find(client, cur, part);
    if (cur == kInvalidIno) {
      throw FsError("no such path: " + std::string(path));
    }
  }
  co_return cur;
}

sim::Task<Ino> FileSystem::resolve_parent(int client, std::string_view path,
                                          std::string* leaf) {
  auto parts = split_path(path);
  if (parts.empty()) throw FsError("cannot create root");
  *leaf = parts.back();
  parts.pop_back();
  Ino cur = kRootIno;
  for (const auto& part : parts) {
    cur = co_await dir_find(client, cur, part);
    if (cur == kInvalidIno) {
      throw FsError("no such directory in: " + std::string(path));
    }
  }
  co_return cur;
}

sim::Task<Ino> FileSystem::make_node(int client, std::string_view path,
                                     FileType type) {
  std::string leaf;
  const Ino parent = co_await resolve_parent(client, path, &leaf);

  auto guard = co_await ino_lock(parent).acquire();
  if (co_await dir_find(client, parent, leaf) != kInvalidIno) {
    throw FsError("already exists: " + std::string(path));
  }
  Ino ino = kInvalidIno;
  for (std::size_t i = 0; i < inodes_.size(); ++i) {
    if (!inodes_[i].in_use) {
      ino = static_cast<Ino>(i);
      break;
    }
  }
  if (ino == kInvalidIno) throw FsError("out of inodes");
  Inode& node = inodes_[static_cast<std::size_t>(ino)];
  node = Inode{};
  node.in_use = true;
  node.type = type;
  if (type == FileType::kDirectory) dirs_[ino] = {};
  co_await write_inode(client, ino);
  DirEntry entry{leaf, ino, type};
  co_await dir_append(client, parent, std::move(entry));
  co_return ino;
}

sim::Task<Ino> FileSystem::create(int client, std::string_view path) {
  co_return co_await make_node(client, path, FileType::kFile);
}

sim::Task<Ino> FileSystem::mkdir(int client, std::string_view path) {
  co_return co_await make_node(client, path, FileType::kDirectory);
}

sim::Task<> FileSystem::unlink(int client, std::string_view path) {
  std::string leaf;
  const Ino parent = co_await resolve_parent(client, path, &leaf);
  auto guard = co_await ino_lock(parent).acquire();
  const Ino ino = co_await dir_find(client, parent, leaf);
  if (ino == kInvalidIno) throw FsError("no such file: " + std::string(path));
  Inode& node = inode(ino);
  if (node.type == FileType::kDirectory && !dirs_[ino].empty()) {
    throw FsError("directory not empty: " + std::string(path));
  }
  co_await dir_remove(client, parent, leaf);
  for (std::uint64_t b : node.blocks) free_block(b);
  dirs_.erase(ino);
  node = Inode{};
  co_await write_inode(client, ino);
}

FileInfo FileSystem::stat(Ino ino) const {
  const Inode& node = inode(ino);
  return FileInfo{ino, node.type, node.size, node.nlink};
}

void FileSystem::extend(Inode& node, std::uint64_t end_byte) {
  const std::uint32_t bs = engine_.block_bytes();
  const std::uint64_t blocks_needed = (end_byte + bs - 1) / bs;
  while (node.blocks.size() < blocks_needed) {
    node.blocks.push_back(alloc_block());
  }
  node.size = std::max(node.size, end_byte);
}

sim::Task<std::uint64_t> FileSystem::write_at(
    int client, Ino ino, std::uint64_t offset,
    std::span<const std::byte> data) {
  Inode& node = inode(ino);
  if (node.type != FileType::kFile) throw FsError("not a file");
  const std::uint32_t bs = engine_.block_bytes();
  extend(node, offset + data.size());

  std::uint64_t written = 0;
  while (written < data.size()) {
    const std::uint64_t byte_pos = offset + written;
    const std::uint64_t fblock = byte_pos / bs;
    const std::uint32_t in_block = static_cast<std::uint32_t>(byte_pos % bs);
    const std::uint32_t take = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(bs - in_block, data.size() - written));

    std::vector<std::byte> buf(bs, std::byte{0});
    if (in_block != 0 || take != bs) {
      // Partial block: read-merge-write, like a real page cache miss.
      co_await engine_.read(client, node.blocks[fblock], 1, buf);
    }
    std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(written), take,
                buf.begin() + in_block);
    co_await engine_.write(client, node.blocks[fblock], buf);
    written += take;
  }
  co_await write_inode(client, ino);  // size/mtime update
  co_return written;
}

sim::Task<std::uint64_t> FileSystem::read_at(int client, Ino ino,
                                             std::uint64_t offset,
                                             std::span<std::byte> out) {
  const Inode& node = inode(ino);
  if (node.type != FileType::kFile) throw FsError("not a file");
  if (offset >= node.size) co_return 0;
  const std::uint32_t bs = engine_.block_bytes();
  const std::uint64_t len =
      std::min<std::uint64_t>(out.size(), node.size - offset);

  std::uint64_t done = 0;
  while (done < len) {
    const std::uint64_t byte_pos = offset + done;
    const std::uint64_t fblock = byte_pos / bs;
    const std::uint32_t in_block = static_cast<std::uint32_t>(byte_pos % bs);
    const std::uint32_t take = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(bs - in_block, len - done));

    // Merge contiguous whole-file-block runs into one engine read.
    if (in_block == 0 && take == bs) {
      std::uint64_t run = 1;
      while (done + run * bs + bs <= len &&
             fblock + run < node.blocks.size() &&
             node.blocks[fblock + run] == node.blocks[fblock] + run) {
        ++run;
      }
      co_await engine_.read(client, node.blocks[fblock],
                            static_cast<std::uint32_t>(run),
                            out.subspan(done, run * bs));
      done += run * bs;
      continue;
    }
    std::vector<std::byte> buf(bs);
    co_await engine_.read(client, node.blocks[fblock], 1, buf);
    std::copy_n(buf.begin() + in_block, take,
                out.begin() + static_cast<std::ptrdiff_t>(done));
    done += take;
  }
  co_return len;
}

sim::Task<std::vector<DirEntry>> FileSystem::readdir(int client, Ino dir) {
  const Inode& d = inode(dir);
  if (d.type != FileType::kDirectory) throw FsError("not a directory");
  for (std::uint64_t b : d.blocks) {
    std::vector<std::byte> buf(engine_.block_bytes());
    co_await engine_.read(client, b, 1, buf);
  }
  co_return dirs_[dir];
}

}  // namespace raidx::fs
