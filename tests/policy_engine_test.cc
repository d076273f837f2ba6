// Tests for the compiled policy engine and the per-task LSM decision cache:
// CompiledGlob classification parity with the generic matcher, compiled-vs-scan
// verdict parity through a full SimSystem, and generation-counter invalidation
// on policy swaps and credential changes.

#include <gtest/gtest.h>

#include "src/base/strings.h"
#include "src/config/compiled_glob.h"
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

// --- Compiled vs. scan parity ----------------------------------------------

class PolicyEngineTest : public ::testing::Test {
 protected:
  PolicyEngineTest() : sys_(SimMode::kProtego) {}

  SimSystem sys_;
};

TEST_F(PolicyEngineTest, CompiledAndScanPathsAgreeOnDefaultPolicy) {
  // Run the same mixed workload twice, once per engine, on fresh systems;
  // every verdict-bearing outcome must be identical.
  for (bool compiled : {true, false}) {
    SimSystem sys(SimMode::kProtego);
    sys.lsm()->set_compiled_engine_enabled(compiled);
    Kernel& k = sys.kernel();

    // Bind table.
    Task& exim = sys.Login("exim");
    exim.exe_path = "/usr/sbin/eximd";
    auto fd = k.SocketCall(exim, kAfInet, kSockStream, 0);
    EXPECT_TRUE(k.BindCall(exim, fd.value(), 25).ok()) << "compiled=" << compiled;
    Task& alice = sys.Login("alice");
    auto fd2 = k.SocketCall(alice, kAfInet, kSockStream, 0);
    EXPECT_EQ(k.BindCall(alice, fd2.value(), 80).code(), Errno::kEACCES);
    EXPECT_EQ(k.BindCall(alice, fd2.value(), 443).code(), Errno::kEACCES);

    // Mount whitelist, literal and glob rules.
    EXPECT_TRUE(k.Mount(alice, "/dev/cdrom", "/media/cdrom", "iso9660", {"ro"}).ok());
    EXPECT_EQ(k.Mount(alice, "/dev/cdrom", "/media/usb", "iso9660", {"ro"}).code(),
              Errno::kEPERM);
    ASSERT_TRUE(k.Mkdir(alice, "/home/alice/mnt", 0755).ok());
    EXPECT_TRUE(k.Mount(alice, "fuse", "/home/alice/mnt", "fuse", {"rw", "user"}).ok());
    Task& bob = sys.Login("bob");
    EXPECT_EQ(k.Umount(bob, "/media/cdrom").code(), Errno::kEPERM);
    EXPECT_TRUE(k.Umount(alice, "/media/cdrom").ok());

    // File delegation + reauth gate.
    EXPECT_EQ(k.ReadWholeFile(alice, "/etc/ssh/ssh_host_key").code(), Errno::kEACCES);
    auto out = sys.RunCapture(alice, "/usr/lib/ssh-keysign", {"ssh-keysign", "x"});
    EXPECT_EQ(out.exit_code, 0);
    EXPECT_EQ(k.ReadWholeFile(alice, "/etc/shadows/alice").code(), Errno::kEACCES);
    Task& alice2 = sys.Login("alice");
    alice2.terminal->QueueInput("alicepw");
    EXPECT_TRUE(k.ReadWholeFile(alice2, "/etc/shadows/alice").ok());

    // Sudoers: alice is %admin, www-data has nothing.
    Task& alice3 = sys.Login("alice");
    alice3.terminal->QueueInput("alicepw");
    EXPECT_TRUE(k.Setuid(alice3, 0).ok());
    Task& www = sys.Login("www-data");
    EXPECT_EQ(k.Setuid(www, 1001).code(), Errno::kEPERM);
  }
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
