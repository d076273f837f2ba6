// Tests for the compiled policy engine (src/protego/policy_engine.h):
// CompiledGlob classification parity with the generic matcher, a seeded
// differential oracle that checks every index query against a naive linear
// scan over randomly generated raw tables, verdicts on the default policy
// through a full SimSystem, and policy swaps and credential changes taking
// effect on the next hook call.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/config/compiled_glob.h"
#include "src/protego/policy_engine.h"
#include "src/protego/proc_iface.h"
#include "src/sim/system.h"

namespace protego {
namespace {

// --- CompiledGlob -----------------------------------------------------------

TEST(CompiledGlob, AgreesWithGlobMatchOnEveryShape) {
  const char* patterns[] = {
      "/dev/cdrom",         // literal
      "/etc/shadows/*",     // prefix
      "*.iso",              // suffix
      "/home/*/mnt",        // prefix+suffix
      "/h?me/*",            // '?' forces the general matcher
      "/a/*/b/*",           // two stars likewise
      "*",                  // degenerate prefix (matches everything)
      "",                   // empty literal
  };
  const char* texts[] = {
      "/dev/cdrom",  "/dev/cdrom2",  "/etc/shadows/alice", "/etc/shadows/",
      "/etc/shadow", "disk.iso",     ".iso",               "iso",
      "/home/a/mnt", "/home/a/b/mnt", "/home/mnt",         "/hame/x",
      "/a/x/b/y",    "/a/b",          "",                  "x",
  };
  for (const char* p : patterns) {
    CompiledGlob compiled((std::string(p)));
    for (const char* t : texts) {
      EXPECT_EQ(compiled.Matches(t), GlobMatch(p, t))
          << "pattern=" << p << " text=" << t;
    }
  }
}

TEST(CompiledGlob, PrefixSuffixRequiresDisjointHalves) {
  // "ab*ba" must not match "aba": the head and tail may not overlap.
  CompiledGlob g("ab*ba");
  EXPECT_FALSE(g.Matches("aba"));
  EXPECT_TRUE(g.Matches("abba"));
  EXPECT_TRUE(g.Matches("abxba"));
  EXPECT_EQ(g.Matches("aba"), GlobMatch("ab*ba", "aba"));
}

TEST(CompiledGlob, LiteralDetection) {
  EXPECT_TRUE(CompiledGlob("/dev/sdb1").is_literal());
  EXPECT_FALSE(CompiledGlob("/dev/sd*").is_literal());
  EXPECT_FALSE(CompiledGlob("/dev/sd?").is_literal());
}

// --- Differential oracle: compiled indices vs. a naive scan -----------------
//
// The reference semantics of every Protego policy lookup, written as the
// plainest possible linear scan over the raw tables with the generic
// matchers. Each seed generates adversarial tables (every glob shape,
// repeated ports, repeated group members, missing groups, root-only fstab
// entries) plus requests that both hit and miss them, and every index query
// must select exactly the rules the scan selects.

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

// A glob derived from `text`, in one of the shapes CompiledGlob classifies
// differently: literal, "head*", "*tail", "head*tail", '?' and multi-star.
std::string RandomGlob(uint64_t* s, std::string text) {
  size_t a = Next(s) % (text.size() + 1);
  size_t b = a + Next(s) % (text.size() - a + 1);
  switch (Next(s) % 6) {
    case 0:
      return text;
    case 1:
      return text.substr(0, a) + "*";
    case 2:
      return "*" + text.substr(a);
    case 3:
      return text.substr(0, a) + "*" + text.substr(b);
    case 4:
      if (text.empty()) {
        return "?";
      }
      text[a % text.size()] = '?';
      return text;
    default:
      return text.substr(0, a) + "*" + text.substr(a, b - a) + "*" + text.substr(b);
  }
}

// A request string that hits or narrowly misses something in `pool`.
std::string RandomText(uint64_t* s, const std::vector<std::string>& pool) {
  std::string text = Pick(s, pool);
  switch (Next(s) % 4) {
    case 0:
      return text + "x";
    case 1:
      return text.substr(0, Next(s) % (text.size() + 1));
    default:
      return text;
  }
}

const std::vector<std::string> kDevices = {"/dev/sdb1", "/dev/sdb2", "/dev/cdrom", "fuse", ""};
// "/mnt/mnt" repeats itself, so "/mnt*/mnt" is a prefix/suffix glob whose
// halves overlap in the text "/mnt".
const std::vector<std::string> kMountpoints = {"/media/usb",    "/media/cdrom", "/home/alice/mnt",
                                               "/home/bob/mnt", "/mnt",         "/mnt/mnt"};
const std::vector<std::string> kFstypes = {"vfat", "iso9660", "fuse", "ext4"};
const std::vector<std::string> kMountOptions = {"user", "users", "rw", "ro", "noauto"};
const std::vector<uint16_t> kPorts = {21, 22, 25, 80, 443};
const std::vector<std::string> kBinaries = {"/usr/sbin/nginx", "/usr/sbin/httpd",
                                            "/usr/lib/ssh-keysign", "/bin/sh"};
const std::vector<Uid> kUids = {0, 33, 1000};
const std::vector<std::string> kPaths = {"/etc/ssh/ssh_host_key", "/etc/shadows/alice",
                                         "/etc/shadows/bob", "/var/lib/app/db"};
const std::vector<int> kMays = {kMayRead, kMayWrite, kMayRead | kMayWrite, kMayExec};
const std::vector<std::string> kUsers = {"alice", "bob", "carol", "dave"};
const std::vector<std::string> kSubjects = {"ALL",    "%admin", "%wheel", "%missing",
                                            "alice",  "bob",    "carol",  "nobody"};
const std::vector<std::string> kCommandLines = {"/usr/bin/lpr", "/usr/bin/lpr -P office",
                                                "/bin/ls /tmp", "/sbin/reboot"};

struct RandomPolicy {
  std::vector<FstabEntry> fstab;
  // The device/mountpoint/fstype each fstab entry's globs were derived
  // from: a request built from one is likely to hit every field at once.
  std::vector<std::vector<std::string>> fstab_sources;
  std::vector<BindConfEntry> bind;
  SudoersPolicy sudoers;
  UserDb users;
};

RandomPolicy MakeRandomPolicy(uint64_t* s) {
  RandomPolicy p;
  for (uint64_t n = Next(s) % 16; n > 0; --n) {
    std::vector<std::string> source = {Pick(s, kDevices), Pick(s, kMountpoints), Pick(s, kFstypes)};
    FstabEntry e;
    e.device = RandomGlob(s, source[0]);
    e.mountpoint = RandomGlob(s, source[1]);
    e.fstype = RandomGlob(s, source[2]);
    p.fstab_sources.push_back(std::move(source));
    // Each option independently: an entry with neither user nor users is
    // root-only and must never match.
    for (const std::string& opt : kMountOptions) {
      if (Next(s) % 3 == 0) {
        e.options.push_back(opt);
      }
    }
    p.fstab.push_back(std::move(e));
  }
  for (uint64_t n = Next(s) % 12; n > 0; --n) {
    // Few ports, many entries: most ports carry several allocations.
    p.bind.push_back(BindConfEntry{Pick(s, kPorts), Pick(s, kBinaries), Pick(s, kUids)});
  }
  for (uint64_t n = Next(s) % 8; n > 0; --n) {
    p.sudoers.file_delegations.push_back(
        FileDelegation{Pick(s, kBinaries), RandomGlob(s, Pick(s, kPaths)), Pick(s, kMays)});
  }
  for (uint64_t n = Next(s) % 4; n > 0; --n) {
    p.sudoers.reauth_read_globs.push_back(RandomGlob(s, Pick(s, kPaths)));
  }
  for (uint64_t n = Next(s) % 10; n > 0; --n) {
    SudoRule rule;
    rule.user = Pick(s, kSubjects);
    rule.runas = {"ALL"};
    for (uint64_t c = Next(s) % 3 + 1; c > 0; --c) {
      switch (Next(s) % 3) {
        case 0:
          rule.commands.push_back("ALL");
          break;
        case 1:
          rule.commands.push_back(SplitWhitespace(Pick(s, kCommandLines))[0]);  // bare binary
          break;
        default:
          rule.commands.push_back(RandomGlob(s, Pick(s, kCommandLines)));
          break;
      }
    }
    p.sudoers.rules.push_back(std::move(rule));
  }
  // "admin" and "wheel" exist with random (possibly repeated) members;
  // "%missing" subjects name no group at all.
  std::vector<GroupEntry> groups;
  for (const char* name : {"admin", "wheel"}) {
    GroupEntry g;
    g.name = name;
    g.gid = static_cast<Gid>(100 + groups.size());
    for (uint64_t n = Next(s) % 4; n > 0; --n) {
      g.members.push_back(Pick(s, kUsers));
    }
    groups.push_back(std::move(g));
  }
  p.users = UserDb({}, {}, std::move(groups));
  return p;
}

// The reference scans.

std::vector<std::string> ScanBind(const std::vector<BindConfEntry>& table, uint16_t port) {
  std::vector<std::string> out;
  for (const BindConfEntry& e : table) {
    if (e.port == port) {
      out.push_back(e.ToString());
    }
  }
  return out;
}

// A mount rule with the per-rule flags the hook consumes, so the oracle
// also checks how the index derived them.
std::string MountKey(const FstabEntry& e, bool glob_mountpoint, bool any_user_may_unmount) {
  return StrFormat("%s glob_mp=%d users=%d", e.ToString().c_str(), glob_mountpoint,
                   any_user_may_unmount);
}

std::string ScanMountKey(const FstabEntry& e) {
  return MountKey(e, e.mountpoint.find('*') != std::string::npos, e.AnyUserMayUnmount());
}

std::multiset<std::string> ScanMount(const std::vector<FstabEntry>& fstab,
                                     const std::string& device, const std::string& mountpoint,
                                     const std::string& fstype) {
  std::multiset<std::string> out;
  for (const FstabEntry& e : fstab) {
    if (e.UserMountable() && GlobMatch(e.device, device) && GlobMatch(e.mountpoint, mountpoint) &&
        GlobMatch(e.fstype, fstype)) {
      out.insert(ScanMountKey(e));
    }
  }
  return out;
}

std::multiset<std::string> ScanMountpoint(const std::vector<FstabEntry>& fstab,
                                          const std::string& mountpoint) {
  std::multiset<std::string> out;
  for (const FstabEntry& e : fstab) {
    if (e.UserMountable() && GlobMatch(e.mountpoint, mountpoint)) {
      out.insert(ScanMountKey(e));
    }
  }
  return out;
}

std::vector<std::string> ScanDelegations(const SudoersPolicy& policy, const std::string& binary,
                                         const std::string& path, int may) {
  std::vector<std::string> out;
  for (const FileDelegation& d : policy.file_delegations) {
    if (d.binary == binary && GlobMatch(d.path_glob, path) && (may & ~d.allow_may) == 0) {
      out.push_back(d.path_glob);
    }
  }
  return out;
}

bool ScanReauthGated(const SudoersPolicy& policy, const std::string& path) {
  for (const std::string& glob : policy.reauth_read_globs) {
    if (GlobMatch(glob, path)) {
      return true;
    }
  }
  return false;
}

std::vector<size_t> ScanRulesForUser(const SudoersPolicy& policy, const UserDb& db,
                                     const std::string& user) {
  std::vector<size_t> out;
  for (size_t i = 0; i < policy.rules.size(); ++i) {
    const std::string& subject = policy.rules[i].user;
    bool match = subject == "ALL" || subject == user;
    if (!match && !subject.empty() && subject[0] == '%') {
      const GroupEntry* group = db.FindGroup(subject.substr(1));
      match = group != nullptr &&
              std::find(group->members.begin(), group->members.end(), user) !=
                  group->members.end();
    }
    if (match) {
      out.push_back(i);
    }
  }
  return out;
}

class PolicyEngineOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PolicyEngineOracle, IndicesSelectExactlyWhatTheScanSelects) {
  uint64_t seed = GetParam() * 104729;
  RandomPolicy p = MakeRandomPolicy(&seed);
  PolicyEngine engine;
  engine.bind.Build(p.bind);
  engine.mount.Build(p.fstab);
  engine.files.Build(p.sudoers);
  engine.sudoers.Build(p.sudoers, p.users);

  for (int q = 0; q < 64; ++q) {
    // Bind: every allocation of the port, in table order.
    uint16_t port = Next(&seed) % 2 == 0 ? Pick(&seed, kPorts)
                                          : static_cast<uint16_t>(1 + Next(&seed) % 1023);
    std::vector<std::string> bind_got;
    if (const std::vector<BindConfEntry>* found = engine.bind.Find(port)) {
      EXPECT_FALSE(found->empty()) << "port " << port;
      for (const BindConfEntry& e : *found) {
        bind_got.push_back(e.ToString());
      }
    }
    EXPECT_EQ(bind_got, ScanBind(p.bind, port)) << "port " << port;

    // Mount: the set of user-mountable rules matching the triple, and the
    // set matching the mountpoint alone.
    std::string device = RandomText(&seed, kDevices);
    std::string mountpoint = RandomText(&seed, kMountpoints);
    std::string fstype = RandomText(&seed, kFstypes);
    if (!p.fstab_sources.empty() && Next(&seed) % 2 == 0) {
      const std::vector<std::string>& source = Pick(&seed, p.fstab_sources);
      device = source[0];
      mountpoint = source[1];
      fstype = source[2];
    }
    std::multiset<std::string> mount_got;
    engine.mount.ForEachMatch(device, mountpoint, fstype, [&](const CompiledFstabRule& r) {
      mount_got.insert(MountKey(r.entry, r.glob_mountpoint, r.any_user_may_unmount));
      return false;
    });
    EXPECT_EQ(mount_got, ScanMount(p.fstab, device, mountpoint, fstype))
        << device << " " << mountpoint << " " << fstype;
    std::multiset<std::string> umount_got;
    engine.mount.ForEachMountpointMatch(mountpoint, [&](const CompiledFstabRule& r) {
      umount_got.insert(MountKey(r.entry, r.glob_mountpoint, r.any_user_may_unmount));
      return false;
    });
    EXPECT_EQ(umount_got, ScanMountpoint(p.fstab, mountpoint)) << mountpoint;

    // Files: granting delegations in table order, and the reauth gate.
    std::string binary = Pick(&seed, kBinaries);
    std::string path = RandomText(&seed, kPaths);
    int may = Pick(&seed, kMays);
    std::vector<std::string> files_got;
    if (const std::vector<CompiledDelegation>* found = engine.files.FindDelegations(binary)) {
      for (const CompiledDelegation& d : *found) {
        if (d.path.Matches(path) && (may & ~d.allow_may) == 0) {
          files_got.push_back(d.path.pattern());
        }
      }
    }
    EXPECT_EQ(files_got, ScanDelegations(p.sudoers, binary, path, may))
        << binary << " " << path << " may=" << may;
    EXPECT_EQ(engine.files.ReauthGated(path), ScanReauthGated(p.sudoers, path)) << path;

    // Sudoers: the same rule indices in the same ascending order, and the
    // compiled command matcher agrees with SudoRule::CommandMatches on
    // every rule.
    std::string user = Next(&seed) % 5 == 0 ? "nobody" : Pick(&seed, kUsers);
    EXPECT_EQ(engine.sudoers.RulesForUser(user), ScanRulesForUser(p.sudoers, p.users, user))
        << user;
    std::string command_line = RandomText(&seed, kCommandLines);
    for (size_t i = 0; i < p.sudoers.rules.size(); ++i) {
      EXPECT_EQ(engine.sudoers.CommandMatches(i, command_line),
                p.sudoers.rules[i].CommandMatches(command_line))
          << "rule " << p.sudoers.rules[i].ToString() << " command '" << command_line << "'";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyEngineOracle, ::testing::Range<uint64_t>(1, 65));

// --- Verdicts on the default policy -----------------------------------------

class PolicyEngineTest : public ::testing::Test {
 protected:
  PolicyEngineTest() : sys_(SimMode::kProtego) {}

  SimSystem sys_;
};

TEST_F(PolicyEngineTest, DefaultPolicyVerdicts) {
  // A mixed workload touching every compiled index through the real hooks.
  Kernel& k = sys_.kernel();

  // Bind table.
  Task& exim = sys_.Login("exim");
  exim.exe_path = "/usr/sbin/eximd";
  auto fd = k.SocketCall(exim, kAfInet, kSockStream, 0);
  EXPECT_TRUE(k.BindCall(exim, fd.value(), 25).ok());
  Task& alice = sys_.Login("alice");
  auto fd2 = k.SocketCall(alice, kAfInet, kSockStream, 0);
  EXPECT_EQ(k.BindCall(alice, fd2.value(), 80).code(), Errno::kEACCES);
  EXPECT_EQ(k.BindCall(alice, fd2.value(), 443).code(), Errno::kEACCES);

  // Mount whitelist, literal and glob rules.
  EXPECT_TRUE(k.Mount(alice, "/dev/cdrom", "/media/cdrom", "iso9660", {"ro"}).ok());
  EXPECT_EQ(k.Mount(alice, "/dev/cdrom", "/media/usb", "iso9660", {"ro"}).code(),
            Errno::kEPERM);
  ASSERT_TRUE(k.Mkdir(alice, "/home/alice/mnt", 0755).ok());
  EXPECT_TRUE(k.Mount(alice, "fuse", "/home/alice/mnt", "fuse", {"rw", "user"}).ok());
  Task& bob = sys_.Login("bob");
  EXPECT_EQ(k.Umount(bob, "/media/cdrom").code(), Errno::kEPERM);
  EXPECT_TRUE(k.Umount(alice, "/media/cdrom").ok());

  // File delegation + reauth gate.
  EXPECT_EQ(k.ReadWholeFile(alice, "/etc/ssh/ssh_host_key").code(), Errno::kEACCES);
  auto out = sys_.RunCapture(alice, "/usr/lib/ssh-keysign", {"ssh-keysign", "x"});
  EXPECT_EQ(out.exit_code, 0);
  EXPECT_EQ(k.ReadWholeFile(alice, "/etc/shadows/alice").code(), Errno::kEACCES);
  Task& alice2 = sys_.Login("alice");
  alice2.terminal->QueueInput("alicepw");
  EXPECT_TRUE(k.ReadWholeFile(alice2, "/etc/shadows/alice").ok());

  // Sudoers: alice is %admin, www-data has nothing.
  Task& alice3 = sys_.Login("alice");
  alice3.terminal->QueueInput("alicepw");
  EXPECT_TRUE(k.Setuid(alice3, 0).ok());
  Task& www = sys_.Login("www-data");
  EXPECT_EQ(k.Setuid(www, 1001).code(), Errno::kEPERM);
}

// --- Policy swaps and credential changes ------------------------------------

TEST_F(PolicyEngineTest, BindTableSwapTakesEffectOnNextCall) {
  Kernel& k = sys_.kernel();
  LsmStack& lsm = k.lsm();
  Task& root = sys_.Login("root");
  Task& web = sys_.Login("root");
  web.exe_path = "/usr/sbin/nginx";

  ASSERT_TRUE(k.WriteWholeFile(root, "/proc/protego/ports",
                               "80 /usr/sbin/nginx 0\n")
                  .ok());
  for (int i = 0; i < 2; ++i) {
    auto fd = k.SocketCall(web, kAfInet, kSockStream, 0);
    ASSERT_TRUE(k.BindCall(web, fd.value(), 80).ok());
    ASSERT_TRUE(k.Close(web, fd.value()).ok());
  }

  // Swap the table so port 80 belongs to someone else: the very next call
  // is decided by the new table.
  uint64_t generation = lsm.policy_generation();
  ASSERT_TRUE(k.WriteWholeFile(root, "/proc/protego/ports",
                               "80 /usr/sbin/httpd 33\n")
                  .ok());
  EXPECT_GT(lsm.policy_generation(), generation);
  auto fd = k.SocketCall(web, kAfInet, kSockStream, 0);
  EXPECT_EQ(k.BindCall(web, fd.value(), 80).code(), Errno::kEACCES);

  // The generation surfaces in /proc/protego/status.
  std::string status = k.ReadWholeFile(root, "/proc/protego/status").value();
  EXPECT_NE(status.find("policy_generation " + std::to_string(lsm.policy_generation()) + "\n"),
            std::string::npos)
      << status;

  // And back: the deny verdict does not stick either.
  ASSERT_TRUE(k.WriteWholeFile(root, "/proc/protego/ports",
                               "80 /usr/sbin/nginx 0\n")
                  .ok());
  auto fd2 = k.SocketCall(web, kAfInet, kSockStream, 0);
  EXPECT_TRUE(k.BindCall(web, fd2.value(), 80).ok());
}

TEST_F(PolicyEngineTest, MountRuleSwapFlipsAllowToDeny) {
  Kernel& k = sys_.kernel();
  Task& root = sys_.Login("root");
  Task& alice = sys_.Login("alice");

  // An allowed mount, twice (mount + umount so it can repeat).
  ASSERT_TRUE(k.Mount(alice, "/dev/cdrom", "/media/cdrom", "iso9660", {"ro"}).ok());
  ASSERT_TRUE(k.Umount(alice, "/media/cdrom").ok());
  ASSERT_TRUE(k.Mount(alice, "/dev/cdrom", "/media/cdrom", "iso9660", {"ro"}).ok());
  ASSERT_TRUE(k.Umount(alice, "/media/cdrom").ok());

  // Drop the cdrom rule; the earlier allow must not survive the swap.
  ASSERT_TRUE(k.WriteWholeFile(root, "/proc/protego/mounts",
                               "/dev/sdb1 /media/usb vfat rw,users 0 0\n")
                  .ok());
  EXPECT_EQ(k.Mount(alice, "/dev/cdrom", "/media/cdrom", "iso9660", {"ro"}).code(),
            Errno::kEPERM);
}

TEST_F(PolicyEngineTest, CredentialChangesRecomputeVerdicts) {
  Kernel& k = sys_.kernel();

  // An inode-permission verdict reached under alice's creds must not carry
  // over once the task's credentials change.
  Task& alice = sys_.Login("alice");
  alice.terminal->QueueInput("alicepw");
  ASSERT_TRUE(k.ReadWholeFile(alice, "/etc/shadows/alice").ok());

  ASSERT_TRUE(k.Setuid(alice, 0).ok());  // %admin, freshly authenticated
  ASSERT_EQ(alice.cred.euid, 0u);
  // Same path, new creds: the reauth gate now challenges for ruid 0 —
  // root's password is not on the terminal, so the read that succeeded a
  // moment ago is DENIED under the new credentials.
  EXPECT_EQ(k.ReadWholeFile(alice, "/etc/shadows/alice").code(), Errno::kEACCES);

  // A spawned delegated binary is decided under its own exe_path.
  auto out = sys_.RunCapture(alice, "/usr/lib/ssh-keysign", {"ssh-keysign", "x"});
  EXPECT_EQ(out.exit_code, 0);
}

}  // namespace
}  // namespace protego
