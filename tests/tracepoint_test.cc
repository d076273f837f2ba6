// Tracepoint subsystem tests: ring wraparound boundaries, decision-span
// integrity across a wrap, per-point enable bits, read-side filters, the
// seccomp-killed trace/stats semantic, and the PR's acceptance criterion —
// a denied mount(2) must be explainable end-to-end from /proc/protego/trace.

#include "src/base/tracepoint.h"

#include "gtest/gtest.h"
#include "src/base/strings.h"
#include "src/conc/scheduler.h"
#include "src/kernel/kernel.h"
#include "src/lsm/capability_module.h"
#include "src/net/netfilter.h"
#include "src/protego/proc_iface.h"
#include "src/sim/system.h"
#include "src/study/races.h"

namespace protego {
namespace {

TEST(TracerTest, WraparoundAtExactCapacityAndBeyond) {
  Clock clock;
  Tracer tracer(&clock, 4);

  // Exactly capacity: nothing dropped, seqs 0..3 retained.
  for (int i = 0; i < 4; ++i) {
    tracer.Emit(TracepointId::kCapable, 1);
  }
  EXPECT_EQ(tracer.dropped(), 0u);
  auto snap = tracer.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.front().seq, 0u);
  EXPECT_EQ(snap.back().seq, 3u);

  // Capacity + 1: exactly one dropped, oldest retained seq is 1.
  tracer.Emit(TracepointId::kCapable, 1);
  EXPECT_EQ(tracer.dropped(), 1u);
  snap = tracer.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.front().seq, 1u);
  EXPECT_EQ(snap.back().seq, 4u);

  // Clear resets seq and dropped accounting.
  tracer.Clear();
  EXPECT_EQ(tracer.seq(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_TRUE(tracer.Snapshot().empty());
  tracer.Emit(TracepointId::kCapable, 1);
  EXPECT_EQ(tracer.Snapshot().front().seq, 0u);
}

TEST(TracerTest, SpanTreeSurvivesRingWrap) {
  Clock clock;
  Tracer tracer(&clock, 4);

  uint64_t span = tracer.BeginSpan(7);
  // Six children through a 4-slot ring: only the last three survive
  // alongside the root.
  for (int i = 0; i < 6; ++i) {
    TraceEvent& ev = tracer.Emit(TracepointId::kLsmHook, 7);
    ev.sname = "sb_mount";
    ev.sdetail = "protego";
    ev.svalue = "deny";
  }
  TraceEvent& root = tracer.EndSpan(TracepointId::kSyscall);
  root.sname = "mount";
  root.code = static_cast<int>(Errno::kEPERM);

  auto snap = tracer.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.back().tp, TracepointId::kSyscall);
  EXPECT_EQ(snap.back().span, span);
  for (size_t i = 0; i + 1 < snap.size(); ++i) {
    EXPECT_EQ(snap[i].tp, TracepointId::kLsmHook);
    EXPECT_EQ(snap[i].span, span);
  }

  // The renderer still builds the tree: root line + indented children,
  // no orphan markers, and the overwritten events show up as dropped.
  std::string text = tracer.Format();
  EXPECT_NE(text.find("mount() = -1 EPERM"), std::string::npos);
  EXPECT_NE(text.find("\n  "), std::string::npos);
  EXPECT_NE(text.find("lsm:sb_mount module=protego -> deny"), std::string::npos);
  EXPECT_EQ(text.find("[orphan"), std::string::npos);
  EXPECT_NE(text.find("# dropped: 3"), std::string::npos);
}

TEST(TracerTest, EventsOfStillOpenSpanRenderAsOrphans) {
  Clock clock;
  Tracer tracer(&clock, 8);
  tracer.BeginSpan(3);
  TraceEvent& ev = tracer.Emit(TracepointId::kCapable, 3);
  ev.sname = "CAP_SYS_ADMIN";
  // Span never rooted (as when /proc/protego/trace is read from inside the
  // reading syscall's own span): the child renders standalone, marked.
  std::string text = tracer.Format();
  EXPECT_NE(text.find("capable CAP_SYS_ADMIN -> denied"), std::string::npos);
  EXPECT_NE(text.find("[orphan span="), std::string::npos);
}

TEST(TracerTest, EnableBitsGateEmission) {
  Clock clock;
  Tracer tracer(&clock, 8);
  EXPECT_TRUE(tracer.Enabled(TracepointId::kNetfilter));
  tracer.set_point_enabled(TracepointId::kNetfilter, false);
  EXPECT_FALSE(tracer.Enabled(TracepointId::kNetfilter));
  EXPECT_TRUE(tracer.Enabled(TracepointId::kSyscall));
  tracer.set_enabled(false);
  EXPECT_FALSE(tracer.Enabled(TracepointId::kSyscall));
  tracer.set_enabled(true);
  tracer.set_point_enabled(TracepointId::kNetfilter, true);
  EXPECT_TRUE(tracer.Enabled(TracepointId::kNetfilter));
}

TEST(TracerTest, NetfilterEmitsVerdictEvents) {
  Clock clock;
  Tracer tracer(&clock, 16);
  Netfilter nf;
  nf.set_tracer(&tracer);

  NfRule rule;
  rule.chain = NfChain::kOutput;
  rule.match.from_raw_socket = true;
  rule.verdict = NfVerdict::kDrop;
  rule.comment = "drop-raw";
  nf.Append(rule);

  Packet raw;
  raw.from_raw_socket = true;
  EXPECT_EQ(nf.Evaluate(NfChain::kOutput, raw), NfVerdict::kDrop);
  Packet plain;
  EXPECT_EQ(nf.Evaluate(NfChain::kOutput, plain), NfVerdict::kAccept);

  std::string text = tracer.Format();
  EXPECT_NE(text.find("netfilter chain=OUTPUT -> DROP rule=\"drop-raw\""), std::string::npos);
  EXPECT_NE(text.find("netfilter chain=OUTPUT -> ACCEPT rule=\"(default policy)\""),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Gate-level tests on a bare kernel.

class TracepointGateTest : public ::testing::Test {
 protected:
  TracepointGateTest() {
    kernel_.lsm().Register(std::make_unique<CapabilityModule>());
    (void)kernel_.vfs().EnsureDirs("/tmp");
    kernel_.vfs().Resolve("/tmp").value()->inode().mode = kIfDir | 01777;
    root_ = &kernel_.CreateTask("sh", Cred::Root(), nullptr, 1);
    alice_ = &kernel_.CreateTask("sh", Cred::ForUser(1000, 1000), nullptr, 1);
  }

  Kernel kernel_;
  Task* root_ = nullptr;
  Task* alice_ = nullptr;
};

TEST_F(TracepointGateTest, GateRingWraparoundBoundaries) {
  Tracer& tracer = kernel_.tracer();
  tracer.Clear();
  constexpr size_t kCap = Kernel::kTraceCapacity;
  for (size_t i = 0; i < kCap; ++i) {
    kernel_.GetPid(*alice_);
  }
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.Snapshot().size(), kCap);

  kernel_.GetPid(*alice_);
  EXPECT_EQ(tracer.dropped(), 1u);
  auto snap = tracer.Snapshot();
  ASSERT_EQ(snap.size(), kCap);
  EXPECT_EQ(snap.front().seq, 1u);

  tracer.Clear();
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_TRUE(tracer.Snapshot().empty());
  // Spans keep working after a clear.
  kernel_.GetPid(*alice_);
  snap = tracer.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap.front().seq, 0u);
}

TEST_F(TracepointGateTest, SeccompKilledCallsFollowTheDocumentedSemantic) {
  ASSERT_TRUE(kernel_.SeccompSetFilter(*alice_, {Sysno::kGetPid, Sysno::kSeccomp}).ok());
  kernel_.tracer().Clear();

  kernel_.GetPid(*alice_);
  auto denied = kernel_.SocketCall(*alice_, kAfInet, kSockStream, 0);
  EXPECT_EQ(denied.code(), Errno::kEPERM);

  // Stats: counted in calls, errors, and seccomp_denied...
  const SyscallGate::PerSyscall& s = kernel_.syscalls().stats(Sysno::kSocket);
  EXPECT_EQ(s.calls, 1u);
  EXPECT_EQ(s.errors, 1u);
  EXPECT_EQ(s.seccomp_denied, 1u);
  // ...but EXCLUDED from the latency distribution (the body never ran).
  EXPECT_EQ(s.lat_ticks.count(), s.calls - s.seccomp_denied);
  EXPECT_EQ(s.lat_ticks.sum(), 0u);

  // Trace: a span root with the seccomp flag and EPERM — stats and trace
  // agree on the count.
  size_t traced_denials = 0;
  for (const TraceEvent& ev : kernel_.tracer().Snapshot()) {
    if (ev.tp == TracepointId::kSyscall && ev.a == static_cast<uint64_t>(Sysno::kSocket) &&
        (ev.flags & kTraceFlagSeccompDenied) != 0) {
      EXPECT_EQ(ev.code, static_cast<int>(Errno::kEPERM));
      ++traced_denials;
    }
  }
  EXPECT_EQ(traced_denials, s.seccomp_denied);

  // The invariant holds for permitted syscalls too.
  const SyscallGate::PerSyscall& g = kernel_.syscalls().stats(Sysno::kGetPid);
  EXPECT_EQ(g.lat_ticks.count(), g.calls - g.seccomp_denied);
  EXPECT_NE(kernel_.tracer().Format().find("(seccomp)"), std::string::npos);
}

TEST_F(TracepointGateTest, CredChangeAndCapableEventsAppearUnderTheSpan) {
  kernel_.tracer().Clear();
  ASSERT_TRUE(kernel_.Setuid(*root_, 1000).ok());
  std::string text = kernel_.tracer().Format();
  EXPECT_NE(text.find("setuid(1000) = 0"), std::string::npos);
  EXPECT_NE(text.find("capable CAP_SETUID -> granted"), std::string::npos);
  EXPECT_NE(text.find("cred:setuid pid="), std::string::npos);
  EXPECT_NE(text.find("uid 0->1000 euid 0->1000"), std::string::npos);
  // The capable + cred events are indented under the setuid root.
  EXPECT_NE(text.find("\n  "), std::string::npos);
}

TEST_F(TracepointGateTest, ReadFiltersSelectPidSyscallAndSpan) {
  kernel_.tracer().Clear();
  kernel_.GetPid(*alice_);
  kernel_.GetPid(*root_);
  ASSERT_TRUE(kernel_.Open(*root_, "/tmp/f", kOWrOnly | kOCreat).ok());

  Tracer& tracer = kernel_.tracer();

  // pid filter: only alice's getpid remains.
  auto f = ParseTraceQuery(StrFormat("?pid=%d", alice_->pid));
  ASSERT_TRUE(f.ok());
  tracer.set_read_filter(f.value());
  std::string text = kernel_.tracer().Format();
  EXPECT_NE(text.find(StrFormat("pid=%d", alice_->pid)), std::string::npos);
  EXPECT_EQ(text.find(StrFormat("pid=%d", root_->pid)), std::string::npos);
  EXPECT_NE(text.find("# filter:"), std::string::npos);

  // syscall filter: only open roots remain.
  f = ParseTraceQuery("?syscall=open");
  ASSERT_TRUE(f.ok());
  tracer.set_read_filter(f.value());
  text = kernel_.tracer().Format();
  EXPECT_NE(text.find(" open("), std::string::npos);
  EXPECT_EQ(text.find(" getpid("), std::string::npos);

  // span filter: exactly one tree.
  auto snap = tracer.Snapshot();
  uint64_t open_span = 0;
  for (const auto& ev : snap) {
    if (ev.tp == TracepointId::kSyscall && std::string(ev.sname) == "open") {
      open_span = ev.span;
    }
  }
  ASSERT_NE(open_span, 0u);
  f = ParseTraceQuery(StrFormat("?span=%llu", (unsigned long long)open_span));
  ASSERT_TRUE(f.ok());
  tracer.set_read_filter(f.value());
  text = kernel_.tracer().Format();
  EXPECT_NE(text.find(" open("), std::string::npos);
  EXPECT_EQ(text.find(" getpid("), std::string::npos);

  // "?" resets; unfiltered output shows everything again, no trailer.
  f = ParseTraceQuery("?");
  ASSERT_TRUE(f.ok());
  tracer.set_read_filter(f.value());
  text = kernel_.tracer().Format();
  EXPECT_NE(text.find(" getpid("), std::string::npos);
  EXPECT_EQ(text.find("# filter:"), std::string::npos);

  // Malformed queries are EINVAL.
  EXPECT_EQ(ParseTraceQuery("?bogus=1").code(), Errno::kEINVAL);
  EXPECT_EQ(ParseTraceQuery("?pid=abc").code(), Errno::kEINVAL);
  EXPECT_EQ(ParseTraceQuery("pid=1").code(), Errno::kEINVAL);
}

// ---------------------------------------------------------------------------
// The acceptance criterion: one denied mount(2), explained end-to-end.

TEST(TracepointSimTest, DeniedMountIsExplainableFromProcTrace) {
  SimSystem sys(SimMode::kProtego);
  Kernel& kernel = sys.kernel();
  Task& alice = sys.Login("alice");

  kernel.tracer().Clear();
  auto denied = kernel.Mount(alice, "/dev/sda1", "/mnt", "ext4", {});
  ASSERT_EQ(denied.code(), Errno::kEPERM);

  std::string text = kernel.tracer().Format();

  // The span root: the strace-shaped mount record producing the errno.
  size_t root_pos = text.find("mount(\"/dev/sda1\", \"/mnt\", \"ext4\") = -1 EPERM");
  ASSERT_NE(root_pos, std::string::npos) << text;

  // Under it, in order: each LSM module's verdict for sb_mount, then the
  // stack's combined decision.
  size_t hook_pos = text.find("  ", root_pos);
  ASSERT_NE(hook_pos, std::string::npos);
  size_t module_pos = text.find("lsm:sb_mount module=", root_pos);
  size_t decision_pos = text.find("lsm:sb_mount verdict=", root_pos);
  ASSERT_NE(module_pos, std::string::npos) << text;
  ASSERT_NE(decision_pos, std::string::npos) << text;
  EXPECT_LT(module_pos, decision_pos);

  // Same mount again from the same task: the modules decide it again, and
  // the trace shows their verdicts again.
  kernel.tracer().Clear();
  auto again = kernel.Mount(alice, "/dev/sda1", "/mnt", "ext4", {});
  ASSERT_EQ(again.code(), Errno::kEPERM);
  text = kernel.tracer().Format();
  root_pos = text.find("mount(\"/dev/sda1\", \"/mnt\", \"ext4\") = -1 EPERM");
  ASSERT_NE(root_pos, std::string::npos) << text;
  module_pos = text.find("lsm:sb_mount module=", root_pos);
  decision_pos = text.find("lsm:sb_mount verdict=", root_pos);
  ASSERT_NE(module_pos, std::string::npos) << text;
  ASSERT_NE(decision_pos, std::string::npos) << text;
  EXPECT_LT(module_pos, decision_pos);
}

// --- Trace-tree shape: spans follow the pid that opened them ---------------

// Format() output as lines; a line's tree depth is its indent / 2.
std::vector<std::string> TraceLines(const Tracer& tracer) {
  std::vector<std::string> lines = Split(tracer.Format(), '\n');
  if (!lines.empty() && lines.back().empty()) {
    lines.pop_back();
  }
  return lines;
}

size_t Depth(const std::string& line) {
  return line.find_first_not_of(' ') / 2;
}

// Index of the first line at or after `from` containing `needle`, or
// lines.size().
size_t FindLine(const std::vector<std::string>& lines, size_t from, std::string_view needle) {
  for (size_t i = from; i < lines.size(); ++i) {
    if (lines[i].find(needle) != std::string::npos) {
      return i;
    }
  }
  return lines.size();
}

// A synchronous Spawn runs the child's execve on the parent's thread under
// the child's pid. That execve is a tree of its own: it must not nest under
// the parent's spawn span, or ?syscall=execve (which selects top-level
// roots) would lose the whole derivation, the faulted mount(2) included.
TEST(TracepointSimTest, SpawnedExecveIsATopLevelTreeWithTheFaultedMountInside) {
  SimSystem sys(SimMode::kProtego);
  Kernel& k = sys.kernel();
  Task& root = sys.Login("root");
  Task& alice = sys.Login("alice");
  ASSERT_TRUE(k.WriteWholeFile(root, "/proc/protego/fault_inject",
                               "site=lsm_hook error=EIO hook=sb_mount times=1\n")
                  .ok());
  k.tracer().Clear();
  auto out = sys.RunCapture(alice, "/bin/mount", {"mount", "/dev/cdrom"});
  ASSERT_NE(out.exit_code, 0);

  int execve_pid = -1;
  for (const TraceEvent& ev : k.tracer().Snapshot()) {
    if (ev.tp == TracepointId::kSyscall && std::string_view(ev.sname) == "execve") {
      EXPECT_EQ(ev.parent, 0u);
      execve_pid = ev.pid;
    }
  }
  ASSERT_NE(execve_pid, -1);
  EXPECT_NE(execve_pid, alice.pid);

  k.tracer().set_read_filter(ParseTraceQuery("?syscall=execve").value());
  std::vector<std::string> lines = TraceLines(k.tracer());
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(Depth(lines[0]), 0u);
  EXPECT_NE(lines[0].find(StrFormat("pid=%d mount execve(/bin/mount) = 0", execve_pid)),
            std::string::npos)
      << lines[0];
  size_t mount = FindLine(lines, 1, "mount(\"/dev/cdrom\", \"/media/cdrom\", \"iso9660\") = -1 EPERM");
  ASSERT_LT(mount, lines.size()) << k.tracer().Format();
  EXPECT_EQ(Depth(lines[mount]), 1u);
  size_t fault = FindLine(lines, mount, "fault:lsm_hook inject=EIO");
  ASSERT_LT(fault, lines.size()) << k.tracer().Format();
  EXPECT_EQ(fault, mount + 1);
  EXPECT_EQ(Depth(lines[fault]), 2u);
}

// Under the deterministic scheduler a context switch is stamped with the
// RESUMED task's innermost open span: the switch back into the TOCTOU
// victim lands inside its execve tree, between the stat(2) check and the
// open(2) use it interrupted.
TEST(TracepointSimTest, SwitchBackIntoTheVictimNestsBetweenItsStatAndOpen) {
  auto run = MakeTocttouScenario(SimMode::kProtego, TocttouVariant::kStatThenOpen)();
  Tracer& tracer = run->kernel().tracer();
  conc::DetScheduler sched(&tracer);
  sched.set_mode(conc::SchedMode::kFixed);
  sched.set_choices({0, 0, 0, 1, 1, 1});  // the swap lands inside the window
  run->kernel().set_scheduler(&sched);
  tracer.Clear();
  run->RegisterTasks(sched);
  sched.Run();
  run->kernel().set_scheduler(nullptr);
  (void)run->CheckInvariant();  // reaps the children

  int victim = -1;
  for (const TraceEvent& ev : tracer.Snapshot()) {
    if (ev.tp == TracepointId::kSyscall && ev.comm == "filereport") {
      victim = ev.pid;
    }
  }
  ASSERT_NE(victim, -1);
  std::vector<std::string> lines = TraceLines(tracer);
  size_t execve = FindLine(lines, 0, "filereport execve(/usr/bin/filereport) = 0");
  ASSERT_LT(execve, lines.size()) << tracer.Format();
  EXPECT_EQ(Depth(lines[execve]), 0u);
  size_t stat = FindLine(lines, execve, "filereport stat(/tmp/job) = 0");
  size_t open = FindLine(lines, execve, "filereport open(\"/tmp/job\"");
  ASSERT_LT(open, lines.size()) << tracer.Format();
  ASSERT_EQ(open, stat + 2) << tracer.Format();
  EXPECT_EQ(Depth(lines[stat]), 1u);
  EXPECT_EQ(Depth(lines[open]), 1u);
  const std::string& sw = lines[stat + 1];
  EXPECT_EQ(Depth(sw), 1u) << sw;
  EXPECT_NE(sw.find("sched:switch"), std::string::npos) << sw;
  EXPECT_NE(sw.find(StrFormat("->%d fixed", victim)), std::string::npos) << sw;
}

// Netfilter verdicts and mount-table changes are emitted with pid 0: they
// belong to no task's span, so they render standalone even when the
// syscall that caused them is traced.
TEST(TracepointSimTest, PidZeroEventsRenderStandalone) {
  SimSystem sys(SimMode::kProtego);
  Kernel& k = sys.kernel();
  Task& root = sys.Login("root");
  Task& alice = sys.Login("alice");
  int fd = k.SocketCall(alice, kAfInet, kSockDgram, 0).value();
  k.tracer().Clear();
  ASSERT_TRUE(k.Mount(root, "/dev/cdrom", "/media/cdrom", "iso9660", {}).ok());
  Packet p;
  p.l4_proto = kProtoUdp;
  p.dst_ip = kLocalhostIp;
  p.dst_port = 7777;
  (void)k.SendCall(alice, fd, p);

  size_t pid_zero = 0;
  for (const TraceEvent& ev : k.tracer().Snapshot()) {
    if (ev.tp == TracepointId::kVfsMount || ev.tp == TracepointId::kNetfilter) {
      EXPECT_EQ(ev.pid, 0);
      EXPECT_EQ(ev.span, 0u);
      ++pid_zero;
    }
  }
  EXPECT_GE(pid_zero, 2u);
  std::vector<std::string> lines = TraceLines(k.tracer());
  size_t attach = FindLine(lines, 0, "vfs:mount /dev/cdrom on /media/cdrom");
  size_t verdict = FindLine(lines, 0, "netfilter chain=OUTPUT -> ACCEPT");
  ASSERT_LT(attach, lines.size()) << k.tracer().Format();
  ASSERT_LT(verdict, lines.size()) << k.tracer().Format();
  EXPECT_EQ(Depth(lines[attach]), 0u);
  EXPECT_EQ(Depth(lines[verdict]), 0u);
  EXPECT_EQ(lines[attach].find("[orphan"), std::string::npos);
  EXPECT_EQ(lines[verdict].find("[orphan"), std::string::npos);
  // The syscalls themselves are still traced roots.
  EXPECT_LT(FindLine(lines, 0, "mount(\"/dev/cdrom\""), lines.size());
  EXPECT_LT(FindLine(lines, 0, " sendto("), lines.size()) << k.tracer().Format();
}

// Proc-level plumbing for the trace control file.
TEST(TracepointSimTest, ProcTraceWritesControlFilterAndToggle) {
  SimSystem sys(SimMode::kProtego);
  Kernel& kernel = sys.kernel();

  ASSERT_TRUE(kernel.vfs().WriteFile("/proc/protego/trace", "?pid=42&syscall=mount").ok());
  EXPECT_EQ(kernel.tracer().read_filter().pid, 42);
  EXPECT_EQ(kernel.tracer().read_filter().syscall, "mount");

  ASSERT_TRUE(kernel.vfs().WriteFile("/proc/protego/trace", "?").ok());
  EXPECT_FALSE(kernel.tracer().read_filter().active());

  EXPECT_FALSE(kernel.vfs().WriteFile("/proc/protego/trace", "?junk=1").ok());
  EXPECT_FALSE(kernel.vfs().WriteFile("/proc/protego/trace", "garbage").ok());

  ASSERT_TRUE(kernel.vfs().WriteFile("/proc/protego/trace", "off").ok());
  EXPECT_FALSE(kernel.tracer().enabled());
  ASSERT_TRUE(kernel.vfs().WriteFile("/proc/protego/trace", "on").ok());
  EXPECT_TRUE(kernel.tracer().enabled());
}

}  // namespace
}  // namespace protego
