// Unit tests for the VFS substrate: path handling, tree mutation, mounts,
// synthetic files, watches, and the DAC permission primitive.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/strings.h"
#include "src/vfs/vfs.h"

namespace protego {
namespace {

TEST(VfsPath, Normalize) {
  EXPECT_EQ(Vfs::Normalize("/"), "/");
  EXPECT_EQ(Vfs::Normalize("/a/b/../c"), "/a/c");
  EXPECT_EQ(Vfs::Normalize("/a//b/./c/"), "/a/b/c");
  EXPECT_EQ(Vfs::Normalize("/.."), "/");
  EXPECT_EQ(Vfs::Normalize("/a/../../b"), "/b");
}

// --- Differential oracle for the path walk ------------------------------------
//
// Vfs::Normalize and Vfs::ResolveInternal scan the path once and walk
// string_view components in place. The reference below is the walk they
// replaced, kept as the slow, obviously-right oracle: Split the path into a
// vector of components and Join it back; on a symlink, splice the target in
// front of the remaining components and restart from the root. It sees the
// tree only through the public API, crosses mounts by looking the walked
// prefix up in the mount table (FindMount) rather than through the cover
// pointers, and takes the directory a relative target is resolved against
// from the walked prefix rather than from PathOf. Each seed builds a random
// tree with relative and absolute symlinks, symlink cycles and mounts over
// directories, then fires random paths full of ".", "..", "//" and trailing
// slashes at both walks.

// Deterministic splitmix64, as in property_test.cc.
uint64_t Next(uint64_t* s) {
  uint64_t z = (*s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

template <typename T>
const T& Pick(uint64_t* s, const std::vector<T>& pool) {
  return pool[Next(s) % pool.size()];
}

std::string RefNormalize(std::string_view path) {
  std::vector<std::string> stack;
  for (const std::string& part : Split(path, '/')) {
    if (part.empty() || part == ".") {
      continue;
    }
    if (part == "..") {
      if (!stack.empty()) {
        stack.pop_back();
      }
      continue;
    }
    stack.push_back(part);
  }
  return "/" + Join(stack, "/");
}

std::vector<std::string> RefComponents(const std::string& normalized) {
  return normalized == "/" ? std::vector<std::string>() : Split(normalized.substr(1), '/');
}

// The reference walk. On success `*walked` is the canonical path of the
// returned node as the walk reached it.
Result<Vnode*> RefResolve(const Vfs& vfs, std::string_view path, bool want_parent,
                          std::string* leaf_out, bool follow_leaf, std::string* walked) {
  if (path.empty() || path[0] != '/') {
    return Error(Errno::kEINVAL, "path must be absolute: " + std::string(path));
  }
  std::string normalized = RefNormalize(path);
  std::vector<std::string> parts = RefComponents(normalized);
  if (want_parent) {
    if (parts.empty()) {
      return Error(Errno::kEINVAL, "cannot take parent of /");
    }
    *leaf_out = parts.back();
    parts.pop_back();
  }
  auto cross = [&vfs](Vnode* node, const std::string& at) {
    const MountEntry* mount = vfs.FindMount(at);
    return mount != nullptr ? mount->root.get() : node;
  };
  int links_left = Vfs::kMaxSymlinkDepth;
  while (true) {
    Vnode* node = cross(vfs.Resolve("/").value(), "/");
    std::string prefix;  // canonical path of `node`, "" for the root
    bool restarted = false;
    for (size_t i = 0; i < parts.size(); ++i) {
      if (!node->inode().IsDir()) {
        return Error(Errno::kENOTDIR, normalized);
      }
      Vnode* child = node->Lookup(parts[i]);
      if (child == nullptr) {
        return Error(Errno::kENOENT, normalized);
      }
      std::string child_path = prefix + "/" + parts[i];
      child = cross(child, child_path);
      bool is_leaf = i + 1 == parts.size();
      if (child->inode().IsSymlink() && (!is_leaf || follow_leaf)) {
        if (--links_left < 0) {
          return Error(Errno::kELOOP, normalized);
        }
        const std::string& target = child->inode().data;
        std::string rebuilt = target[0] == '/' ? target : prefix + "/" + target;
        for (size_t j = i + 1; j < parts.size(); ++j) {
          rebuilt += "/" + parts[j];
        }
        normalized = RefNormalize(rebuilt);
        parts = RefComponents(normalized);
        restarted = true;
        break;
      }
      node = child;
      prefix = std::move(child_path);
    }
    if (!restarted) {
      *walked = prefix.empty() ? "/" : prefix;
      return node;
    }
  }
}

// A random tree. `names` feeds path generation; `dirs` are canonical,
// symlink-free directory paths (mount candidates and path prefixes).
struct RandomTree {
  std::vector<std::string> names = {"a", "b", "c", "zz", "lnk", "m"};
  std::vector<std::string> dirs = {"/"};
  std::vector<std::string> mountpoints;
};

std::string Child(const std::string& dir, const std::string& name) {
  return dir == "/" ? "/" + name : dir + "/" + name;
}

std::string RandomTarget(uint64_t* s, const RandomTree& t) {
  static const std::vector<std::string> kRelative = {".", "..", "../..", "a", "../a/b",
                                                     "./lnk", "lnk", "zz/..", "b//c/"};
  switch (Next(s) % 4) {
    case 0:
      return Pick(s, kRelative);
    case 1:
      return Pick(s, t.dirs);
    case 2:
      return Child(Pick(s, t.dirs), Pick(s, t.names));
    default:
      return Pick(s, t.names) + "/" + Pick(s, kRelative);
  }
}

// Adds dirs, files and symlinks under `dir` (canonical path `dir_path`)
// through Vnode::AddChild, the way mount populators fill a new tree.
void Populate(uint64_t* s, RandomTree* t, Vnode* dir, const std::string& dir_path,
              int depth) {
  int entries = 1 + static_cast<int>(Next(s) % 4);
  for (int e = 0; e < entries; ++e) {
    std::string name = Pick(s, t->names);
    Inode inode;
    uint64_t kind = Next(s) % 6;
    if (kind < 2 && depth < 3) {
      inode.mode = kIfDir | 0755;
    } else if (kind < 4) {
      inode.mode = kIfLnk | 0777;
      inode.data = RandomTarget(s, *t);
    } else {
      inode.mode = kIfReg | 0644;
      inode.data = "f";
    }
    bool is_dir = inode.IsDir();
    auto added = dir->AddChild(name, std::move(inode));
    if (added.ok() && is_dir) {
      std::string path = Child(dir_path, name);
      t->dirs.push_back(path);
      Populate(s, t, added.value(), path, depth + 1);
    }
  }
}

RandomTree BuildRandomTree(uint64_t* s, Vfs* vfs) {
  RandomTree t;
  Populate(s, &t, vfs->Resolve("/").value(), "/", 0);
  // Mounts over directories. A mountpoint is never an ancestor of an
  // existing one (that would shadow the older mount, which the reference's
  // path-keyed mount lookup cannot see); the new tree's contents join the
  // path pool under the mountpoint.
  int mounts = static_cast<int>(Next(s) % 3);
  for (int m = 0; m < mounts; ++m) {
    std::string at = Pick(s, t.dirs);
    bool shadows = at == "/" || std::any_of(t.mountpoints.begin(), t.mountpoints.end(),
                                            [&at](const std::string& mp) {
                                              return StartsWith(mp, at + "/");
                                            });
    if (shadows) {
      continue;
    }
    RandomTree* tp = &t;
    uint64_t* sp = s;
    bool added = vfs->AddMount(at, "src", "tmpfs", {}, 0, [tp, sp, at](Vnode* root) {
                       Populate(sp, tp, root, at, 1);
                     }).ok();
    if (added) {
      t.mountpoints.push_back(at);
    }
  }
  return t;
}

std::string RandomPath(uint64_t* s, const RandomTree& t) {
  static const std::vector<std::string> kOdd = {".", "..", "", "zz"};
  std::string path = Next(s) % 8 == 0 ? "" : "/";  // occasionally relative
  if (Next(s) % 2 == 0) {
    path = Pick(s, t.dirs);
  }
  int parts = static_cast<int>(Next(s) % 6);
  for (int i = 0; i < parts; ++i) {
    if (!path.empty() && path.back() != '/') {
      path += "/";
    }
    path += Next(s) % 3 == 0 ? Pick(s, kOdd) : Pick(s, t.names);
  }
  if (Next(s) % 5 == 0) {
    path += "/";
  }
  return path;
}

// Same node, or same errno and message.
void ExpectSameResult(const Result<Vnode*>& got, const Result<Vnode*>& want,
                      const std::string& what) {
  ASSERT_EQ(got.ok(), want.ok()) << what;
  if (got.ok()) {
    EXPECT_EQ(got.value(), want.value()) << what;
  } else {
    EXPECT_EQ(got.code(), want.code()) << what;
    EXPECT_EQ(got.error().context(), want.error().context()) << what;
  }
}

class VfsWalkOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VfsWalkOracle, WalkMatchesTheSplitJoinReference) {
  uint64_t seed = GetParam() * 7919;
  Vfs vfs;
  RandomTree tree = BuildRandomTree(&seed, &vfs);
  for (int q = 0; q < 200; ++q) {
    std::string path = RandomPath(&seed, tree);
    SCOPED_TRACE("path '" + path + "'");
    EXPECT_EQ(Vfs::Normalize(path), RefNormalize(path));

    for (bool follow : {true, false}) {
      std::string walked, unused;
      Result<Vnode*> want = RefResolve(vfs, path, false, &unused, follow, &walked);
      Result<Vnode*> got = follow ? vfs.Resolve(path) : vfs.ResolveNoFollow(path);
      ExpectSameResult(got, want, follow ? "Resolve" : "ResolveNoFollow");
      if (got.ok() && want.ok()) {
        std::string back = vfs.PathOf(got.value());
        EXPECT_EQ(back, walked);
        // PathOf round-trips through the same kind of walk.
        Result<Vnode*> again = follow ? vfs.Resolve(back) : vfs.ResolveNoFollow(back);
        ASSERT_TRUE(again.ok()) << back;
        EXPECT_EQ(again.value(), got.value()) << back;
      }
    }

    std::string want_leaf, walked;
    Result<Vnode*> want = RefResolve(vfs, path, true, &want_leaf, true, &walked);
    auto got = vfs.ResolveParent(path);
    ASSERT_EQ(got.ok(), want.ok()) << "ResolveParent";
    if (got.ok()) {
      EXPECT_EQ(got.value().first, want.value());
      EXPECT_EQ(got.value().second, want_leaf);
    } else {
      EXPECT_EQ(got.code(), want.code());
      EXPECT_EQ(got.error().context(), want.error().context());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VfsWalkOracle, ::testing::Range<uint64_t>(1, 65));

TEST(VfsPath, SymlinkCycleIsEloopAfterTheDepthBudget) {
  Vfs vfs;
  ASSERT_TRUE(vfs.CreateSymlink("/x", "/y", 0, 0).ok());
  ASSERT_TRUE(vfs.CreateSymlink("/y", "x", 0, 0).ok());
  auto r = vfs.Resolve("/x/f");
  EXPECT_EQ(r.code(), Errno::kELOOP);
  // A chain of exactly kMaxSymlinkDepth links still resolves.
  ASSERT_TRUE(vfs.CreateDir("/d", 0755, 0, 0).ok());
  std::string prev = "/d";
  for (int i = 0; i < Vfs::kMaxSymlinkDepth; ++i) {
    std::string link = "/l" + std::to_string(i);
    ASSERT_TRUE(vfs.CreateSymlink(link, prev, 0, 0).ok());
    prev = link;
  }
  EXPECT_EQ(vfs.Resolve(prev).value(), vfs.Resolve("/d").value());
  ASSERT_TRUE(vfs.CreateSymlink("/over", prev, 0, 0).ok());
  EXPECT_EQ(vfs.Resolve("/over").code(), Errno::kELOOP);
}

TEST(VfsTree, CreateResolveReadWrite) {
  Vfs vfs;
  ASSERT_TRUE(vfs.EnsureDirs("/etc/deep/nested").ok());
  ASSERT_TRUE(vfs.CreateFile("/etc/deep/nested/f", 0644, 10, 20, "hello").ok());
  auto node = vfs.Resolve("/etc/deep/nested/f");
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(node.value()->inode().uid, 10u);
  EXPECT_EQ(node.value()->inode().gid, 20u);
  EXPECT_EQ(vfs.ReadNode(node.value()).value(), "hello");
  ASSERT_TRUE(vfs.WriteNode(node.value(), " world", /*append=*/true).ok());
  EXPECT_EQ(vfs.ReadFile("/etc/deep/nested/f").value(), "hello world");
  EXPECT_EQ(vfs.PathOf(node.value()), "/etc/deep/nested/f");
}

TEST(VfsTree, ErrnoContract) {
  Vfs vfs;
  EXPECT_EQ(vfs.Resolve("/missing").code(), Errno::kENOENT);
  EXPECT_EQ(vfs.Resolve("relative").code(), Errno::kEINVAL);
  ASSERT_TRUE(vfs.CreateFile("/f", 0644, 0, 0).ok());
  EXPECT_EQ(vfs.CreateFile("/f", 0644, 0, 0).code(), Errno::kEEXIST);
  EXPECT_EQ(vfs.Resolve("/f/child").code(), Errno::kENOTDIR);
  ASSERT_TRUE(vfs.EnsureDirs("/d/sub").ok());
  EXPECT_EQ(vfs.Unlink("/d").code(), Errno::kENOTEMPTY);
  ASSERT_TRUE(vfs.Unlink("/d/sub").ok());
  ASSERT_TRUE(vfs.Unlink("/d").ok());
  EXPECT_EQ(vfs.Unlink("/d").code(), Errno::kENOENT);
}

TEST(VfsTree, RenameMovesSubtrees) {
  Vfs vfs;
  ASSERT_TRUE(vfs.EnsureDirs("/a").ok());
  ASSERT_TRUE(vfs.EnsureDirs("/b").ok());
  ASSERT_TRUE(vfs.CreateFile("/a/f", 0644, 0, 0, "data").ok());
  ASSERT_TRUE(vfs.Rename("/a/f", "/b/g").ok());
  EXPECT_EQ(vfs.Resolve("/a/f").code(), Errno::kENOENT);
  EXPECT_EQ(vfs.ReadFile("/b/g").value(), "data");
}

TEST(VfsMounts, MountCoversAndUmountUncovers) {
  Vfs vfs;
  ASSERT_TRUE(vfs.EnsureDirs("/mnt/cd").ok());
  ASSERT_TRUE(vfs.CreateFile("/mnt/cd/shadowed", 0644, 0, 0, "under").ok());
  ASSERT_TRUE(vfs.AddMount("/mnt/cd", "/dev/cdrom", "iso9660", {"ro"}, 1000,
                           [](Vnode* root) {
                             Inode f;
                             f.mode = kIfReg | 0444;
                             f.data = "on-media";
                             (void)root->AddChild("f", std::move(f));
                           })
                  .ok());
  EXPECT_EQ(vfs.ReadFile("/mnt/cd/f").value(), "on-media");
  EXPECT_EQ(vfs.ReadFile("/mnt/cd/shadowed").code(), Errno::kENOENT);
  const MountEntry* entry = vfs.FindMount("/mnt/cd");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->mounter, 1000u);
  EXPECT_EQ(entry->fstype, "iso9660");
  // PathOf works across the mount boundary.
  auto node = vfs.Resolve("/mnt/cd/f");
  EXPECT_EQ(vfs.PathOf(node.value()), "/mnt/cd/f");

  ASSERT_TRUE(vfs.RemoveMount("/mnt/cd").ok());
  EXPECT_EQ(vfs.ReadFile("/mnt/cd/shadowed").value(), "under");
  EXPECT_EQ(vfs.RemoveMount("/mnt/cd").code(), Errno::kEINVAL);
}

TEST(VfsMounts, StackedMountsAreRejected) {
  Vfs vfs;
  ASSERT_TRUE(vfs.EnsureDirs("/m").ok());
  ASSERT_TRUE(vfs.AddMount("/m", "a", "tmpfs", {}, 0, nullptr).ok());
  EXPECT_EQ(vfs.AddMount("/m", "b", "tmpfs", {}, 0, nullptr).code(), Errno::kEBUSY);
}

TEST(VfsMounts, BusyMountpointCannotBeUnlinked) {
  Vfs vfs;
  ASSERT_TRUE(vfs.EnsureDirs("/m").ok());
  ASSERT_TRUE(vfs.AddMount("/m", "a", "tmpfs", {}, 0, nullptr).ok());
  EXPECT_EQ(vfs.Unlink("/m").code(), Errno::kEBUSY);
}

TEST(VfsSynthetic, ReadWriteCallbacks) {
  Vfs vfs;
  std::string stored = "initial";
  SyntheticOps ops;
  ops.read = [&stored]() { return stored; };
  ops.write = [&stored](std::string_view data) -> Result<Unit> {
    if (data == "reject") {
      return Error(Errno::kEINVAL);
    }
    stored = std::string(data);
    return OkUnit();
  };
  ASSERT_TRUE(vfs.CreateSynthetic("/proc/x/y", 0644, std::move(ops)).ok());
  EXPECT_EQ(vfs.ReadFile("/proc/x/y").value(), "initial");
  ASSERT_TRUE(vfs.WriteFile("/proc/x/y", "updated").ok());
  EXPECT_EQ(stored, "updated");
  EXPECT_EQ(vfs.WriteFile("/proc/x/y", "reject").code(), Errno::kEINVAL);
  EXPECT_EQ(stored, "updated");  // rejected write left state intact
}

TEST(VfsWatch, FiresForPathAndChildren) {
  Vfs vfs;
  ASSERT_TRUE(vfs.EnsureDirs("/etc/frag").ok());
  std::vector<std::string> events;
  int id = vfs.AddWatch("/etc/frag", [&events](FsEvent event, const std::string& path) {
    events.push_back(std::string(FsEventName(event)) + " " + path);
  });
  ASSERT_TRUE(vfs.CreateFile("/etc/frag/a", 0644, 0, 0).ok());
  ASSERT_TRUE(vfs.WriteFile("/etc/frag/a", "x").ok());
  ASSERT_TRUE(vfs.Unlink("/etc/frag/a").ok());
  ASSERT_TRUE(vfs.CreateFile("/etc/unwatched", 0644, 0, 0).ok());
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], "CREATED /etc/frag/a");
  EXPECT_EQ(events[1], "MODIFIED /etc/frag/a");
  EXPECT_EQ(events[2], "DELETED /etc/frag/a");
  vfs.RemoveWatch(id);
  ASSERT_TRUE(vfs.CreateFile("/etc/frag/b", 0644, 0, 0).ok());
  EXPECT_EQ(events.size(), 3u);
  // Prefix matching is component-wise: /etc/fragX must not match /etc/frag.
  int id2 = vfs.AddWatch("/etc/frag", [&events](FsEvent, const std::string& p) {
    events.push_back(p);
  });
  ASSERT_TRUE(vfs.CreateFile("/etc/fragment", 0644, 0, 0).ok());
  EXPECT_EQ(events.size(), 3u);
  vfs.RemoveWatch(id2);
}

// The watch list is snapshotted per event: a callback that adds one watch
// and removes another during a rename's DELETED event changes who sees the
// CREATED event that follows, but not who sees the DELETED event itself.
TEST(VfsWatch, CallbackEditsTakeEffectFromTheNextEvent) {
  Vfs vfs;
  ASSERT_TRUE(vfs.EnsureDirs("/a").ok());
  ASSERT_TRUE(vfs.EnsureDirs("/b").ok());
  ASSERT_TRUE(vfs.CreateFile("/a/f", 0644, 0, 0).ok());
  std::vector<std::string> seen;
  auto recorder = [&seen](const std::string& who) {
    return [&seen, who](FsEvent event, const std::string& path) {
      seen.push_back(who + " " + FsEventName(event) + " " + path);
    };
  };
  int doomed = 0;
  bool edited = false;
  vfs.AddWatch("/", [&](FsEvent event, const std::string& path) {
    seen.push_back(std::string("editor ") + FsEventName(event) + " " + path);
    if (!edited) {
      edited = true;
      vfs.AddWatch("/b", recorder("added"));
      vfs.RemoveWatch(doomed);
    }
  });
  doomed = vfs.AddWatch("/", recorder("doomed"));

  ASSERT_TRUE(vfs.Rename("/a/f", "/b/g").ok());
  EXPECT_EQ(seen, (std::vector<std::string>{
                      "editor DELETED /a/f",
                      "doomed DELETED /a/f",  // removed mid-event, still in its snapshot
                      "editor CREATED /b/g",
                      "added CREATED /b/g",  // added mid-DELETED, sees CREATED
                  }));
}

TEST(Dac, OwnerGroupOtherTriads) {
  Inode inode;
  inode.mode = kIfReg | 0640;
  inode.uid = 100;
  inode.gid = 50;
  auto in_g50 = [](Gid g) { return g == 50; };
  auto in_none = [](Gid) { return false; };
  EXPECT_TRUE(DacPermits(inode, 100, in_none, kMayRead | kMayWrite));
  EXPECT_FALSE(DacPermits(inode, 100, in_none, kMayExec));
  EXPECT_TRUE(DacPermits(inode, 200, in_g50, kMayRead));
  EXPECT_FALSE(DacPermits(inode, 200, in_g50, kMayWrite));
  EXPECT_FALSE(DacPermits(inode, 200, in_none, kMayRead));
  // Owner check takes precedence: owner with 0066 still cannot read.
  inode.mode = kIfReg | 0066;
  EXPECT_FALSE(DacPermits(inode, 100, in_none, kMayRead));
  EXPECT_TRUE(DacPermits(inode, 200, in_none, kMayRead));
}

TEST(ModeStringTest, RendersSetuidBit) {
  EXPECT_EQ(ModeString(kIfReg | 04755), "-rwsr-xr-x");
  EXPECT_EQ(ModeString(kIfReg | 0755), "-rwxr-xr-x");
  EXPECT_EQ(ModeString(kIfDir | 01777), "drwxrwxrwt");
  EXPECT_EQ(ModeString(kIfChr | 0600), "crw-------");
}

}  // namespace
}  // namespace protego
