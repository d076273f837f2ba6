// ExecMode::kParallel acceptance tests: real OS threads entering one kernel
// concurrently. The assertions here are deliberately schedule-independent
// (leak freedom, accounting balance, policy-swap coherence) — built with
// -fsanitize=thread this file doubles as the data-race audit of the sharded
// kernel state, and the CI gating job runs it exactly that way.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/base/strings.h"
#include "src/conc/explore.h"
#include "src/conc/fleet.h"
#include "src/conc/thread_sched.h"
#include "src/fault/fault.h"
#include "src/kernel/exec_mode.h"
#include "src/kernel/kernel.h"
#include "src/lsm/capability_module.h"
#include "src/sim/system.h"
#include "src/study/races.h"

namespace protego {
namespace {

using conc::RunParallel;
using conc::ThreadScheduler;

std::unique_ptr<Kernel> BootBareKernel() {
  auto kernel = std::make_unique<Kernel>();
  kernel->lsm().Register(std::make_unique<CapabilityModule>());
  (void)kernel->vfs().EnsureDirs("/tmp");
  kernel->vfs().Resolve("/tmp").value()->inode().mode = kIfDir | 01777;
  return kernel;
}

// --- Execution mode selection ------------------------------------------------

TEST(ExecModeTest, EnvSelectsParallelElseDeterministic) {
  ::unsetenv("PROTEGO_EXEC_MODE");
  EXPECT_EQ(ExecModeFromEnv(), ExecMode::kDeterministic);
  ::setenv("PROTEGO_EXEC_MODE", "", 1);
  EXPECT_EQ(ExecModeFromEnv(), ExecMode::kDeterministic);
  ::setenv("PROTEGO_EXEC_MODE", "deterministic", 1);
  EXPECT_EQ(ExecModeFromEnv(), ExecMode::kDeterministic);
  ::setenv("PROTEGO_EXEC_MODE", "parallel", 1);
  EXPECT_EQ(ExecModeFromEnv(), ExecMode::kParallel);
  ::unsetenv("PROTEGO_EXEC_MODE");
  EXPECT_STREQ(ExecModeName(ExecMode::kParallel), "parallel");
}

// Regression: a typo such as "parallell" used to silently fall back to the
// deterministic driver, green-lighting the wrong mode in CI. Unknown values
// must abort with the offending string.
TEST(ExecModeDeathTest, UnknownValueAbortsLoudly) {
  EXPECT_DEATH(
      {
        ::setenv("PROTEGO_EXEC_MODE", "parallell", 1);
        (void)ExecModeFromEnv();
      },
      "unrecognized PROTEGO_EXEC_MODE value \"parallell\"");
  ::unsetenv("PROTEGO_EXEC_MODE");
}

// --- ThreadScheduler semantics ----------------------------------------------

TEST(ThreadSchedulerTest, SignalWakesWaiterAndTimeoutRetries) {
  ThreadScheduler sched;
  std::atomic<bool> flag{false};
  std::atomic<int> loops{0};
  sched.StartTask(1, [&] {
    // The kernel's wait idiom: loop, re-check the predicate, WaitOn.
    while (!flag.load()) {
      ++loops;
      ASSERT_TRUE(sched.WaitOn(1, /*resource=*/42));
    }
  });
  sched.StartTask(2, [&] {
    flag.store(true);
    sched.Signal(42);
  });
  sched.Join();
  EXPECT_TRUE(flag.load());
  EXPECT_EQ(sched.started(), 2u);
  // WaitOn on a never-signalled resource still returns (timeout retry).
  sched.StartTask(3, [&] { ASSERT_TRUE(sched.WaitOn(3, 99)); });
  sched.Join();
}

// --- Satellite: multi-thread open/close/unlink/symlink stress ---------------
//
// Eight threads hammer a shared kernel: private files (open/write/close),
// a shared file that one thread keeps unlinking and recreating while others
// hold it open (orphan churn), and symlink create/unlink. Afterwards the
// kernel must show zero leaked fds, a balanced VFS block audit, and a
// quiescent-stable orphan list.
TEST(ParallelStress, OpenCloseUnlinkSymlinkLeakFree) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  std::unique_ptr<Kernel> kernel = BootBareKernel();
  Kernel& k = *kernel;
  (void)k.vfs().CreateFile("/tmp/shared", 0666, kRootUid, kRootGid, "seed");
  const uint64_t fds_before = k.OpenFileCount();

  ThreadScheduler sched;
  k.set_scheduler(&sched);
  std::vector<Task*> tasks;
  for (int t = 0; t < kThreads; ++t) {
    tasks.push_back(&k.CreateTask("stress" + std::to_string(t),
                                  Cred::ForUser(1000 + t, 1000 + t), nullptr));
  }
  for (int t = 0; t < kThreads; ++t) {
    Task* task = tasks[static_cast<size_t>(t)];
    sched.StartTask(task->pid, [&k, task, t] {
      const std::string mine = "/tmp/own" + std::to_string(t);
      const std::string link = "/tmp/lnk" + std::to_string(t);
      for (int r = 0; r < kRounds; ++r) {
        auto fd = k.Open(*task, mine, kOWrOnly | kOCreat, 0644);
        if (fd.ok()) {
          (void)k.Write(*task, fd.value(), "x");
          (void)k.Close(*task, fd.value());
        }
        auto sh = k.Open(*task, "/tmp/shared", kORdOnly);
        if (sh.ok()) {
          (void)k.Read(*task, sh.value());
          (void)k.Close(*task, sh.value());
        }
        if (t == 0) {
          // Unlink-while-open: readers holding /tmp/shared push it onto
          // the orphan list; the recreate races their next open.
          (void)k.Unlink(*task, "/tmp/shared");
          auto re = k.Open(*task, "/tmp/shared", kOWrOnly | kOCreat, 0666);
          if (re.ok()) {
            (void)k.Close(*task, re.value());
          }
        } else {
          (void)k.Symlink(*task, mine, link);
          (void)k.Stat(*task, link);
          (void)k.Unlink(*task, link);
        }
      }
    });
  }
  sched.Join();
  k.set_scheduler(nullptr);

  // fd-leak freedom: every path above closes what it opens, so the
  // system-wide open-file count must be exactly back at baseline.
  EXPECT_EQ(k.OpenFileCount(), fds_before);
  for (Task* task : tasks) {
    EXPECT_EQ(task->fds.size(), 0u) << "leaked fds in task " << task->pid;
  }
  // VFS accounting balances and the orphan list is quiescent-stable.
  auto audit = k.vfs().AuditBlockAccounting();
  EXPECT_TRUE(audit.ok()) << audit.error().ToString();
  const size_t orphans = k.vfs().orphan_count();
  auto audit2 = k.vfs().AuditBlockAccounting();
  EXPECT_TRUE(audit2.ok());
  EXPECT_EQ(k.vfs().orphan_count(), orphans);
}

// Watch-list churn under real threads: one thread keeps adding and removing
// watches while writer tasks stream writes (each firing a MODIFIED event).
// The watch list is copy-on-write, so dispatch holds an immutable snapshot
// while AddWatch/RemoveWatch publish new ones; under -fsanitize=thread this
// is the data-race audit of that handoff. A watch present for the whole run
// must see every successful write exactly once, and once the churn stops no
// removed watch fires again.
TEST(ParallelStress, WatchChurnDuringWritesMissesNoEvent) {
  constexpr int kWriters = 4;
  constexpr int kRounds = 200;
  std::unique_ptr<Kernel> kernel = BootBareKernel();
  Kernel& k = *kernel;
  std::atomic<uint64_t> steady_modified{0};
  std::atomic<uint64_t> churn_events{0};
  int steady = k.vfs().AddWatch("/tmp", [&steady_modified](FsEvent event, const std::string&) {
    if (event == FsEvent::kModified) {
      steady_modified.fetch_add(1, std::memory_order_relaxed);
    }
  });

  ThreadScheduler sched;
  k.set_scheduler(&sched);
  std::vector<Task*> tasks;
  for (int t = 0; t < kWriters; ++t) {
    tasks.push_back(&k.CreateTask("writer" + std::to_string(t),
                                  Cred::ForUser(1000 + t, 1000 + t), nullptr));
  }
  std::atomic<uint64_t> writes_ok{0};
  std::atomic<int> writers_left{kWriters};
  for (int t = 0; t < kWriters; ++t) {
    Task* task = tasks[static_cast<size_t>(t)];
    sched.StartTask(task->pid, [&k, &writes_ok, &writers_left, task, t] {
      const std::string mine = "/tmp/w" + std::to_string(t);
      for (int r = 0; r < kRounds; ++r) {
        auto fd = k.Open(*task, mine, kOWrOnly | kOCreat, 0644);
        if (fd.ok()) {
          if (k.Write(*task, fd.value(), "x").ok()) {
            writes_ok.fetch_add(1, std::memory_order_relaxed);
          }
          (void)k.Close(*task, fd.value());
        }
      }
      writers_left.fetch_sub(1, std::memory_order_release);
    });
  }
  std::thread churn([&k, &churn_events, &writers_left] {
    std::vector<int> ids;
    while (writers_left.load(std::memory_order_acquire) > 0) {
      ids.push_back(k.vfs().AddWatch("/tmp", [&churn_events](FsEvent, const std::string&) {
        churn_events.fetch_add(1, std::memory_order_relaxed);
      }));
      if (ids.size() > 3) {
        k.vfs().RemoveWatch(ids.front());
        ids.erase(ids.begin());
      }
    }
    for (int id : ids) {
      k.vfs().RemoveWatch(id);
    }
  });
  sched.Join();
  churn.join();
  k.set_scheduler(nullptr);

  EXPECT_EQ(writes_ok.load(), static_cast<uint64_t>(kWriters) * kRounds);
  EXPECT_EQ(steady_modified.load(), writes_ok.load());
  const uint64_t churned = churn_events.load();
  ASSERT_TRUE(k.vfs().WriteFile("/tmp/w0", "after").ok());
  EXPECT_EQ(churn_events.load(), churned);
  EXPECT_EQ(steady_modified.load(), writes_ok.load() + 1);
  k.vfs().RemoveWatch(steady);
}

// --- Satellite: fault injection under parallel load --------------------------
//
// The PR 5 degradation contract re-checked with real threads: probabilistic
// EIO at the fd-allocation site while four threads run open/close loops.
// Failed opens must not leak fds or unbalance the VFS audit.
TEST(ParallelStress, FaultInjectionLeakFreeUnderThreads) {
  std::unique_ptr<Kernel> kernel = BootBareKernel();
  Kernel& k = *kernel;
  (void)k.vfs().CreateFile("/tmp/victim", 0666, kRootUid, kRootGid, "data");
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.error = Errno::kEIO;
  cfg.prob_num = 1;
  cfg.prob_den = 3;
  cfg.seed = 7;
  ASSERT_TRUE(k.faults().Configure(FaultSite::kFdAlloc, cfg).ok());

  ThreadScheduler sched;
  k.set_scheduler(&sched);
  std::atomic<uint64_t> failures{0};
  for (int t = 0; t < 4; ++t) {
    Task& task = k.CreateTask("fault" + std::to_string(t),
                              Cred::ForUser(2000 + t, 2000 + t), nullptr);
    sched.StartTask(task.pid, [&k, &task, &failures] {
      for (int r = 0; r < 300; ++r) {
        auto fd = k.Open(task, "/tmp/victim", kORdOnly);
        if (fd.ok()) {
          (void)k.Close(task, fd.value());
        } else {
          EXPECT_EQ(fd.code(), Errno::kEIO);
          ++failures;
        }
      }
    });
  }
  sched.Join();
  k.set_scheduler(nullptr);
  EXPECT_GT(k.faults().injected(FaultSite::kFdAlloc), 0u);
  EXPECT_GT(failures.load(), 0u);
  EXPECT_EQ(k.OpenFileCount(), 0u);
  EXPECT_TRUE(k.vfs().AuditBlockAccounting().ok());
}

// --- Race corpus re-run with real threads ------------------------------------

TEST(ParallelRaceCorpus, ProtegoTocttouCleanUnderRealThreads) {
  for (TocttouVariant variant :
       {TocttouVariant::kStatThenOpen, TocttouVariant::kAccessThenOpen}) {
    auto res = RunParallel(MakeTocttouScenario(SimMode::kProtego, variant), 10);
    EXPECT_FALSE(res.violation_found)
        << TocttouVariantName(variant) << ": " << res.detail;
    EXPECT_EQ(res.runs, 10u);
  }
}

TEST(ParallelRaceCorpus, StockLinuxTocttouRunsToCompletion) {
  // No violation assertion: with OS scheduling the swap may or may not land
  // in the window. The value is TSan coverage of the racy victim/attacker
  // paths against the sharded kernel.
  auto res = RunParallel(MakeTocttouScenario(SimMode::kLinux,
                                             TocttouVariant::kStatThenOpen), 3);
  EXPECT_GE(res.runs, 1u);
}

TEST(ParallelRaceCorpus, FlockSerializesPasswdRewritersUnderRealThreads) {
  // The flock-protected chfn pair must never lose an update, whatever the
  // OS interleaving; this also exercises ThreadScheduler's WaitOn/Signal
  // path through Kernel::Flock.
  auto res = RunParallel(MakePasswdLostUpdateScenario(/*with_flock=*/true), 5);
  EXPECT_FALSE(res.violation_found) << res.detail;
}

// --- RCU policy reads: swap mid-traffic --------------------------------------

// A policy swap landing while reader threads are mid-lookup must never
// produce a verdict from a half-published policy, and generation bumps must
// invalidate, not relabel, cached verdicts. Readers hammer delegation-free
// syscalls while the writer republishes the mount whitelist.
TEST(ParallelPolicySwap, SwapMidTrafficIsCoherent) {
  SimSystem sys(SimMode::kProtego);
  Kernel& k = sys.kernel();
  std::vector<Task*> readers;
  for (int t = 0; t < 4; ++t) {
    readers.push_back(&sys.Login("alice"));
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (Task* task : readers) {
    threads.emplace_back([&k, task, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        (void)k.Stat(*task, "/etc/passwd");
        (void)k.Access(*task, "/etc/passwd", kMayRead);
        (void)k.GetPid(*task);
      }
    });
  }
  const uint64_t gen_before = k.lsm().policy_generation();
  for (int swap = 0; swap < 50; ++swap) {
    ASSERT_TRUE(sys.lsm()->SetMountPolicy({}).ok());
  }
  stop.store(true);
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_GE(k.lsm().policy_generation(), gen_before + 50);
  // Traffic after the last swap behaves identically to a fresh boot.
  Task& probe = sys.Login("alice");
  EXPECT_TRUE(k.Access(probe, "/etc/passwd", kMayRead).ok());
}

// --- One audit store under real threads -------------------------------------

// Confined tasks on real threads each make denied opens through an AppArmor
// enforce profile. Every denial is one line in the kernel's audit ring (the
// module keeps no log of its own), so the ring's pushed count (retained plus
// overwritten) grows by exactly the number of denials. Under
// -fsanitize=thread this is the race audit of the denial path.
TEST(ParallelAudit, AppArmorDenialsLandInTheAuditRingUnderRealThreads) {
  constexpr int kThreads = 4;
  constexpr int kOpens = 500;
  SimSystem sys(SimMode::kLinux);
  Kernel& k = sys.kernel();
  AaProfile profile;
  profile.binary = "/usr/sbin/confined";
  profile.file_rules.push_back({"/var/lib/confined/*", kMayRead});
  sys.apparmor()->LoadProfile(profile);
  std::vector<Task*> tasks;
  for (int t = 0; t < kThreads; ++t) {
    Task& task = k.CreateTask("confined", Cred::ForUser(1000 + t, 1000 + t), nullptr);
    task.exe_path = profile.binary;
    tasks.push_back(&task);
  }
  const uint64_t pushed_before = k.audit_log().size() + k.audit_dropped();

  std::atomic<int> refused{0};
  ThreadScheduler sched;
  k.set_scheduler(&sched);
  for (Task* task : tasks) {
    sched.StartTask(task->pid, [&k, task, &refused] {
      for (int i = 0; i < kOpens; ++i) {
        if (k.Open(*task, "/etc/passwd", kORdOnly).code() == Errno::kEACCES) {
          refused.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  sched.Join();
  k.set_scheduler(nullptr);

  const uint64_t denials = uint64_t{kThreads} * kOpens;
  EXPECT_EQ(static_cast<uint64_t>(refused.load()), denials);
  const std::vector<std::string> log = k.audit_log();
  EXPECT_EQ(log.size() + k.audit_dropped() - pushed_before, denials);
  const std::string expected = "apparmor: /usr/sbin/confined denied /etc/passwd may=4 for confined";
  size_t apparmor_lines = 0;
  for (const std::string& line : log) {
    if (StartsWith(line, "apparmor: ")) {
      EXPECT_EQ(line, expected);
      ++apparmor_lines;
    }
  }
  EXPECT_EQ(apparmor_lines, std::min<uint64_t>(denials, k.audit_ring().capacity()));
}

// --- Decision spans under real threads --------------------------------------

// Each thread keeps its own open-span stack, so concurrent tasks must never
// see one another's spans: every retained child event hangs under a root of
// its own pid, no root nests under another pid's span, and span ids are
// unique across threads. Several rounds (join, check, clear) widen what the
// bounded ring lets the checks see. Under -fsanitize=thread this is the race
// audit of span bookkeeping and emission.
TEST(ParallelTrace, SpansStayWithTheirPidUnderRealThreads) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 4;
  constexpr int kCallsPerRound = 250;  // x2 (allowed + denied) per thread
  std::unique_ptr<Kernel> kernel = BootBareKernel();
  Kernel& k = *kernel;
  (void)k.vfs().CreateFile("/tmp/secret", 0600, kRootUid, kRootGid, "s");
  std::vector<Task*> tasks;
  for (int t = 0; t < kThreads; ++t) {
    tasks.push_back(&k.CreateTask("tracer" + std::to_string(t),
                                  Cred::ForUser(1000 + t, 1000 + t), nullptr));
  }

  std::set<uint64_t> root_spans;
  std::atomic<int> refused{0};
  for (int round = 0; round < kRounds; ++round) {
    k.tracer().Clear();
    ThreadScheduler sched;
    k.set_scheduler(&sched);
    for (Task* task : tasks) {
      sched.StartTask(task->pid, [&k, task, &refused] {
        for (int i = 0; i < kCallsPerRound; ++i) {
          (void)k.Stat(*task, "/tmp");
          if (k.Open(*task, "/tmp/secret", kORdOnly).code() == Errno::kEACCES) {
            refused.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    sched.Join();
    k.set_scheduler(nullptr);

    const std::vector<TraceEvent> events = k.tracer().Snapshot();
    std::map<uint64_t, int> root_pid;  // retained root span -> its pid
    for (const TraceEvent& ev : events) {
      if (ev.tp == TracepointId::kSyscall) {
        EXPECT_TRUE(root_spans.insert(ev.span).second) << "span " << ev.span << " reissued";
        EXPECT_EQ(ev.parent, 0u) << "no syscall here nests inside another";
        root_pid[ev.span] = ev.pid;
      }
    }
    size_t children = 0;
    for (const TraceEvent& ev : events) {
      const uint64_t under = ev.tp == TracepointId::kSyscall ? ev.parent : ev.span;
      auto it = root_pid.find(under);
      if (under == 0 || it == root_pid.end()) {
        continue;
      }
      EXPECT_EQ(it->second, ev.pid) << "event seq " << ev.seq << " of pid " << ev.pid
                                    << " stamped with span " << under << " of pid "
                                    << it->second;
      children += ev.tp == TracepointId::kSyscall ? 0 : 1;
    }
    EXPECT_GT(children, 0u);
  }
  EXPECT_EQ(refused.load(), kThreads * kRounds * kCallsPerRound);
}

// --- Stale-generation regression ---------------------------------------------

// A module that bumps the policy generation from INSIDE its own hook — the
// worst-case "swap lands mid-walk" interleaving, made deterministic. The
// very next identical request must see the new policy, never the verdict
// computed under the old one.
class MidWalkSwapModule : public SecurityModule {
 public:
  const char* name() const override { return "midwalk-swap"; }

  HookVerdict InodePermission(Task& task, const std::string& path, const Inode& inode,
                              int may) override {
    (void)task;
    (void)inode;
    (void)may;
    if (path != "/tmp/swapfile") {
      return HookVerdict::kDefault;
    }
    if (denying_.load()) {
      return HookVerdict::kDeny;
    }
    // First sighting: allow, then "swap the policy" before dispatch returns.
    denying_.store(true);
    BumpPolicyGeneration();
    return HookVerdict::kDefault;
  }

 private:
  std::atomic<bool> denying_{false};
};

TEST(StaleGeneration, MidWalkSwapNeverServesStaleCachedVerdict) {
  std::unique_ptr<Kernel> kernel = BootBareKernel();
  Kernel& k = *kernel;
  k.lsm().Register(std::make_unique<MidWalkSwapModule>());
  (void)k.vfs().CreateFile("/tmp/swapfile", 0666, kRootUid, kRootGid, "s");
  Task& alice = k.CreateTask("alice", Cred::ForUser(1000, 1000), nullptr);

  // First open: module allows, but flips to deny and bumps the generation
  // mid-dispatch.
  auto first = k.Open(alice, "/tmp/swapfile", kORdOnly);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(k.Close(alice, first.value()).ok());

  // Second identical open: the new policy denies.
  EXPECT_EQ(k.Open(alice, "/tmp/swapfile", kORdOnly).code(), Errno::kEACCES);
}

// --- Fleet smoke -------------------------------------------------------------

TEST(FleetTest, MultiplexesInstancesOverWorkerPool) {
  conc::FleetOptions opts;
  opts.instances = 40;
  opts.workers = 4;
  opts.ops_per_instance = 24;
  conc::FleetReport report = conc::RunFleet(opts);
  EXPECT_EQ(report.instances_run, 40u);
  // Every instance completes its full mix: 24 ops -> 3 whole rounds of 8.
  EXPECT_EQ(report.total_ops, 40u * 24u);
  EXPECT_GT(report.ops_per_sec, 0.0);
}

// Regression: RunInstance used to issue 8 syscalls per round while
// advancing its loop by 6 and counting 6 — every instance overran its op
// budget by a third and the fleet ops/sec was computed from the undercount.
// total_issued is measured from each instance's gate counters, so it cannot
// lie about what was actually dispatched.
TEST(FleetTest, IssuedMatchesCountedAndRespectsBudget) {
  conc::FleetOptions opts;
  opts.instances = 8;
  opts.workers = 2;
  opts.ops_per_instance = 48;
  conc::FleetReport report = conc::RunFleet(opts);
  EXPECT_EQ(report.instances_run, 8u);
  // Parity: on a healthy run every issued syscall succeeds, so the gate
  // view and the hand count must agree exactly.
  EXPECT_EQ(report.total_issued, report.total_ops);
  // Budget: no instance may dispatch more syscalls than it was asked to.
  EXPECT_LE(report.total_issued, 8u * 48u);
  EXPECT_EQ(report.total_issued, 8u * 48u);  // 48 = 6 whole rounds, no remainder
}

}  // namespace
}  // namespace protego
