#include "perfbench/workloads.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/attribution.h"
#include "src/base/clock.h"
#include "src/conc/thread_sched.h"
#include "src/config/fstab.h"
#include "src/config/sudoers.h"
#include "src/net/packet.h"

namespace perfbench {

using protego::Errno;
using protego::Kernel;
using protego::MonotonicNanos;
using protego::Result;
using protego::SimMode;
using protego::SimSystem;
using protego::Task;
using protego::Uid;

namespace {

// --- Block sizes -------------------------------------------------------------
//
// Fixed per block so that a seed fixes the whole op stream, and with it every
// layer count. Sized so a Protego block's timed region takes a few tenths of
// a second on one core.

constexpr int kAppsRounds = 4000;          // rounds of 4 units (apps-serial)
constexpr int kAppsParallelRounds = 2000;  // the same, split across the threads
constexpr int kAppsWarmupRounds = 200;     // per thread, untimed
constexpr int kAdminDecks = 40;            // shuffled decks of step groups per block
constexpr int kAdminWarmupDecks = 2;       // untimed
// Root edits timed after an apps block; divisible by any thread count 1-4.
constexpr int kEditProbe = 48;
constexpr size_t kMaxSpans = size_t{1} << 20;
constexpr size_t kMaxFailureNotes = 8;
// Just past sudo's 5-minute timestamp_timeout: every password step prompts.
constexpr uint64_t kPastAuthWindowSec = 301;

int RoundsPerThread(Workload w, int nthreads) {
  return w == Workload::kAppsParallel ? kAppsParallelRounds / nthreads : kAppsRounds;
}

uint64_t NextRand(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
}

Errno ErrnoOf(const auto& r) { return r.ok() ? Errno::kOk : r.error().code(); }

// --- Ledger: per-thread op accounting and spans -----------------------------

struct Span {
  uint64_t unit = 0;           // spans of one unit share this id
  const char* name = nullptr;  // op kind, or "unit:<mix or group>" (static strings)
  uint64_t start = 0;
  uint64_t end = 0;
};

class Ledger {
 public:
  explicit Ledger(bool traced) : traced_(traced) {
    if (traced_) {
      spans_.reserve(1 << 16);
    }
  }

  // `failure` is empty when the op's outcome was the expected one.
  void Record(OpKind kind, uint64_t t0, uint64_t t1, const std::string& failure) {
    const uint64_t ns = t1 - t0;
    op_.Record(ns);
    kinds_[static_cast<size_t>(kind)].Record(ns);
    ++ops_;
    if (!failure.empty()) {
      ++failed_;
      Note(std::string(OpKindName(kind)) + ": " + failure);
    }
    if (traced_) {
      AddSpan(Span{unit_, OpKindName(kind), t0, t1});
    }
  }

  void BeginUnit(const char* unit_name) {
    ++unit_;
    unit_name_ = unit_name;
    unit_start_ = traced_ ? MonotonicNanos() : 0;
  }
  void EndUnit() {
    ++units_;
    if (traced_) {
      AddSpan(Span{unit_, unit_name_, unit_start_, MonotonicNanos()});
    }
  }

  void Note(std::string what) {
    if (notes_.size() < kMaxFailureNotes) {
      notes_.push_back(std::move(what));
    }
  }
  void Fail(std::string what) {
    ++failed_;
    Note(std::move(what));
  }

  void set_unit_base(uint64_t base) { unit_ = base; }
  uint64_t ops() const { return ops_; }
  uint64_t failed() const { return failed_; }
  uint64_t units() const { return units_; }
  const LatencyHist& op_hist() const { return op_; }
  const LatencyHist& kind_hist(OpKind kind) const { return kinds_[static_cast<size_t>(kind)]; }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t spans_dropped() const { return spans_dropped_; }
  const std::vector<std::string>& notes() const { return notes_; }

  // Drops the warm-up's accounting; the timed region starts from zero.
  void Reset() {
    const bool traced = traced_;
    const uint64_t unit = unit_;
    *this = Ledger(traced);
    unit_ = unit;
  }

 private:
  void AddSpan(const Span& s) {
    if (spans_.size() < kMaxSpans) {
      spans_.push_back(s);
    } else {
      ++spans_dropped_;
    }
  }

  bool traced_ = false;
  uint64_t ops_ = 0;
  uint64_t failed_ = 0;
  uint64_t units_ = 0;
  uint64_t unit_ = 0;
  const char* unit_name_ = "";
  uint64_t unit_start_ = 0;
  LatencyHist op_;
  std::array<LatencyHist, kOpKindCount> kinds_;
  std::vector<Span> spans_;
  uint64_t spans_dropped_ = 0;
  std::vector<std::string> notes_;
};

// Times one harness call into the kernel and records it. `check` sees the
// raw result and returns an empty string when the outcome (errno and, where
// the op returns data, the data) is the expected one, else what went wrong.
// Only the call itself sits inside the clock reads.
template <typename Call, typename Check>
auto Drive(Ledger& ledger, OpKind kind, Call&& call, Check&& check) {
  const uint64_t t0 = MonotonicNanos();
  auto r = call();
  const uint64_t t1 = MonotonicNanos();
  ledger.Record(kind, t0, t1, check(r));
  return r;
}

// --- Layer counters ----------------------------------------------------------

// Every per-layer counter the benchmark reports, read through the layers'
// public accessors and keyed by metric name. Deltas across the timed region
// become the block's layer metrics.
using Counters = std::map<std::string, uint64_t>;

Counters ReadCounters(SimSystem& sys) {
  Kernel& k = sys.kernel();
  Counters c;
  for (protego::Sysno nr : protego::AllSysnos()) {
    const auto& s = k.syscalls().stats(nr);
    c["kernel.calls"] += s.calls.load(std::memory_order_relaxed);
    c["kernel.errors"] += s.errors.load(std::memory_order_relaxed);
    c["kernel.seccomp_denied"] += s.seccomp_denied.load(std::memory_order_relaxed);
  }
  c["kernel.audit_dropped"] = k.audit_dropped();
  c["kernel.audit_lines"] = k.audit_log().size() + k.audit_dropped();
  c["vfs.resolves"] = k.vfs().resolves();
  for (size_t h = 0; h < static_cast<size_t>(protego::LsmHook::kCount); ++h) {
    const auto hook = static_cast<protego::LsmHook>(h);
    c[std::string("lsm.hook_calls.") + protego::LsmHookName(hook)] = k.lsm().HookInvocations(hook);
  }
  c["lsm.cache_hits"] = k.lsm().decision_cache_hits();
  c["lsm.cache_misses"] = k.lsm().decision_cache_misses();
  c["lsm.cache_bypasses"] = k.lsm().decision_cache_bypasses();
  c["lsm.fail_closed_denials"] = k.lsm().fail_closed_denials();
  c["protego.generation_delta"] = k.lsm().policy_generation();
  // The stock stack has no Protego module, auth service or daemon; their
  // counters read 0 there.
  const protego::ProtegoStats none;
  const protego::ProtegoStats& p = sys.lsm() != nullptr ? sys.lsm()->stats() : none;
  c["protego.mount_allowed"] = p.mount_allowed.load();
  c["protego.mount_denied"] = p.mount_denied.load();
  c["protego.bind_allowed"] = p.bind_allowed.load();
  c["protego.bind_denied"] = p.bind_denied.load();
  c["protego.setuid_allowed"] = p.setuid_allowed.load();
  c["protego.setuid_denied"] = p.setuid_denied.load();
  c["protego.exec_allowed"] = p.exec_transitions.load();
  c["protego.exec_denied"] = p.exec_denied.load();
  if (sys.auth() != nullptr) {
    c["services.auth_prompts"] = sys.auth()->prompts_issued();
    c["services.auth_successes"] = sys.auth()->successes();
    c["services.auth_failures"] = sys.auth()->failures();
  }
  if (sys.daemon() != nullptr) {
    c["services.daemon_syncs"] = sys.daemon()->sync_count();
    c["services.daemon_errors"] = sys.daemon()->errors().size();
  }
  c["net.nf_evaluated"] = k.net().netfilter().evaluated();
  c["net.nf_dropped"] = k.net().netfilter().dropped();
  c["net.nf_fail_closed"] = k.net().netfilter().fail_closed_drops();
  c["base.trace_events"] = k.tracer().seq();
  c["base.trace_dropped"] = k.tracer().dropped();
  c["base.trace_sampled_out"] = k.tracer().total_sampled_out();
  return c;
}

uint64_t Delta(const Counters& before, const Counters& after, const std::string& name) {
  auto a = after.find(name);
  auto b = before.find(name);
  return (a == after.end() ? 0 : a->second) - (b == before.end() ? 0 : b->second);
}

void PutCounterDeltas(const Counters& before, const Counters& after, uint64_t ops,
                      std::map<std::string, double>& out) {
  for (const auto& [name, value] : after) {
    out[name] = static_cast<double>(Delta(before, after, name));
  }
  out["vfs.resolves_per_op"] = ops == 0 ? 0 : out["vfs.resolves"] / static_cast<double>(ops);
  out.erase("vfs.resolves");
  const double hits = out["lsm.cache_hits"];
  const double misses = out["lsm.cache_misses"];
  out["lsm.cache_hit_ratio"] = hits + misses == 0 ? 0 : hits / (hits + misses);
}

// --- Apps: the four unit bodies ---------------------------------------------
//
// The same per-unit op sequences as the macro workload engine's mixes
// (compile 18 ops, web-serve 10, mail 8, setuid-burst 6), with each op timed
// and checked against the table below instead of merely counted.

enum class Mix : int { kCompile = 0, kWebServe, kMail, kSetuidBurst };
constexpr int kMixCount = 4;
constexpr const char* kMixUnitNames[kMixCount] = {"unit:compile", "unit:web-serve", "unit:mail",
                                                  "unit:setuid-burst"};

// Expected errno of each op of a unit, per stack. Under Protego the mail
// session is the unprivileged exim user, so both seteuid calls are refused
// with EPERM: the transition the paper obviates, an expected denial rather
// than a failure.
struct ExpectedOp {
  OpKind kind;
  Errno stock;
  Errno protego;
};

constexpr Errno kOk = Errno::kOk;

constexpr ExpectedOp kCompileOps[] = {
    {OpKind::kStat, kOk, kOk},  {OpKind::kStat, kOk, kOk},  {OpKind::kStat, kOk, kOk},
    {OpKind::kStat, kOk, kOk},  {OpKind::kStat, kOk, kOk},  {OpKind::kStat, kOk, kOk},
    {OpKind::kStat, kOk, kOk},  {OpKind::kStat, kOk, kOk},  {OpKind::kOpen, kOk, kOk},
    {OpKind::kRead, kOk, kOk},  {OpKind::kClose, kOk, kOk}, {OpKind::kOpen, kOk, kOk},
    {OpKind::kRead, kOk, kOk},  {OpKind::kClose, kOk, kOk}, {OpKind::kSpawn, kOk, kOk},
    {OpKind::kOpen, kOk, kOk},  {OpKind::kWrite, kOk, kOk}, {OpKind::kClose, kOk, kOk},
};
constexpr ExpectedOp kWebServeOps[] = {
    {OpKind::kSocket, kOk, kOk}, {OpKind::kBind, kOk, kOk},     {OpKind::kClose, kOk, kOk},
    {OpKind::kOpen, kOk, kOk},   {OpKind::kRead, kOk, kOk},     {OpKind::kClose, kOk, kOk},
    {OpKind::kSendTo, kOk, kOk}, {OpKind::kRecvFrom, kOk, kOk}, {OpKind::kSendTo, kOk, kOk},
    {OpKind::kRecvFrom, kOk, kOk},
};
constexpr ExpectedOp kMailOps[] = {
    {OpKind::kSetreuid, kOk, Errno::kEPERM}, {OpKind::kOpen, kOk, kOk},
    {OpKind::kWrite, kOk, kOk},              {OpKind::kClose, kOk, kOk},
    {OpKind::kRename, kOk, kOk},             {OpKind::kStat, kOk, kOk},
    {OpKind::kUnlink, kOk, kOk},             {OpKind::kSetreuid, kOk, Errno::kEPERM},
};
constexpr ExpectedOp kSetuidBurstOps[] = {
    {OpKind::kSetreuid, kOk, kOk}, {OpKind::kGetPid, kOk, kOk}, {OpKind::kStat, kOk, kOk},
    {OpKind::kSetreuid, kOk, kOk}, {OpKind::kGetPid, kOk, kOk}, {OpKind::kStat, kOk, kOk},
};

struct MixTable {
  const ExpectedOp* ops;
  size_t size;
};
constexpr MixTable kMixTables[kMixCount] = {
    {kCompileOps, std::size(kCompileOps)},
    {kWebServeOps, std::size(kWebServeOps)},
    {kMailOps, std::size(kMailOps)},
    {kSetuidBurstOps, std::size(kSetuidBurstOps)},
};

constexpr uint64_t kOpsPerRound = std::size(kCompileOps) + std::size(kWebServeOps) +
                                  std::size(kMailOps) + std::size(kSetuidBurstOps);

// Fixture contents the units read back and compare.
struct AppFixtures {
  std::vector<std::string> headers;  // /usr/include/hdrN.h
  std::vector<std::string> pages;    // /var/www/pageN.html
  std::vector<std::string> requests; // "GET /pageN.html"
  std::string header_body = std::string(512, 'h');
  std::string page_body = std::string(1024, 'R');
  std::string reply_body = std::string(1024, 'R');
  std::string object_code = "object-code";
  std::string mail_body = "Received: by protego-sim; benchmark message body\n";
  std::string passwd_path = "/etc/passwd";
};

// One driving thread: a session per mix (the users the macro engine uses on
// each stack) and the thread-private resources its units touch.
struct AppThread {
  int index = 0;
  Task* sessions[kMixCount] = {};
  Uid burst_home = 0;
  int srv_fd = -1;
  int cli_fd = -1;
  uint16_t srv_port = 0;
  uint16_t cli_port = 0;
  uint16_t churn_port = 0;
  std::string spool_tmp;
  std::string spool_final;
  std::string obj_path;
  uint64_t rng = 0;
  uint64_t finish_ns = 0;
  std::unique_ptr<Ledger> ledger;
};

const char* AppUser(Mix mix, bool protego) {
  switch (mix) {
    case Mix::kCompile: return "alice";
    case Mix::kWebServe: return protego ? "www-data" : "root";
    case Mix::kMail: return protego ? "exim" : "root";
    case Mix::kSetuidBurst: return "root";
  }
  return "root";
}

class AppUnit {
 public:
  AppUnit(AppThread& t, Mix mix, bool protego)
      : t_(t), table_(kMixTables[static_cast<int>(mix)]), protego_(protego) {
    t_.ledger->BeginUnit(kMixUnitNames[static_cast<int>(mix)]);
  }
  ~AppUnit() {
    if (next_ != table_.size) {
      t_.ledger->Fail("unit issued a different op count than its table");
    }
    t_.ledger->EndUnit();
  }

  // Next op of the unit: errno must match the table; `data_ok` adds the
  // check on returned data for ops that return any.
  template <typename Call, typename DataOk>
  void Op(Call&& call, DataOk&& data_ok) {
    (void)Run(call, data_ok);
  }
  template <typename Call>
  void Op(Call&& call) {
    (void)Run(call, AnyData);
  }
  // Open-style op: hands -1 on to the dependent ops when it fails, so the
  // unit's op count never depends on outcomes.
  template <typename Call>
  int OpFd(Call&& call) {
    Result<int> r = Run(call, AnyData);
    return r.ok() ? r.value() : -1;
  }

 private:
  static constexpr auto AnyData = [](const auto&) { return true; };

  template <typename Call, typename DataOk>
  auto Run(Call&& call, DataOk&& data_ok) {
    const ExpectedOp& e = table_.ops[next_++];
    const Errno expect = protego_ ? e.protego : e.stock;
    return Drive(*t_.ledger, e.kind, call, [&](const auto& r) -> std::string {
      const Errno got = ErrnoOf(r);
      if (got != expect) {
        return std::string("expected ") + protego::ErrnoName(expect) + ", got " +
               protego::ErrnoName(got);
      }
      return expect != kOk || data_ok(r) ? "" : "unexpected data";
    });
  }

  AppThread& t_;
  MixTable table_;
  bool protego_;
  size_t next_ = 0;
};

// Result-shaped wrapper for getpid, which returns a plain int.
Result<int> GetPidResult(Kernel& k, const Task& s) {
  const int pid = k.GetPid(s);
  if (pid < 0) {
    return protego::Error(Errno::kEPERM, "getpid");
  }
  return pid;
}

void CompileUnit(Kernel& k, AppThread& t, const AppFixtures& f, bool protego) {
  Task& s = *t.sessions[static_cast<int>(Mix::kCompile)];
  AppUnit u(t, Mix::kCompile, protego);
  for (int i = 0; i < 8; ++i) {
    const std::string& hdr = f.headers[NextRand(t.rng) % f.headers.size()];
    u.Op([&] { return k.Stat(s, hdr); });
  }
  for (int i = 0; i < 2; ++i) {
    const std::string& hdr = f.headers[NextRand(t.rng) % f.headers.size()];
    const int fd = u.OpFd([&] { return k.Open(s, hdr, protego::kORdOnly); });
    u.Op([&] { return k.Read(s, fd); }, [&](const auto& r) { return r.value() == f.header_body; });
    u.Op([&] { return k.Close(s, fd); });
  }
  s.stdout_buf.clear();
  u.Op([&] { return k.Spawn(s, "/bin/sh", {"sh", "-c", "cc"}, {}); },
       [](const auto& r) { return r.value() == 0; });
  const int ofd = u.OpFd(
      [&] { return k.Open(s, t.obj_path, protego::kOWrOnly | protego::kOCreat, 0644); });
  u.Op([&] { return k.Write(s, ofd, f.object_code); });
  u.Op([&] { return k.Close(s, ofd); });
}

void WebServeUnit(Kernel& k, AppThread& t, const AppFixtures& f, bool protego) {
  Task& s = *t.sessions[static_cast<int>(Mix::kWebServe)];
  AppUnit u(t, Mix::kWebServe, protego);
  const int churn =
      u.OpFd([&] { return k.SocketCall(s, protego::kAfInet, protego::kSockDgram, 0); });
  u.Op([&] { return k.BindCall(s, churn, t.churn_port); });
  u.Op([&] { return k.Close(s, churn); });

  const size_t n = NextRand(t.rng) % f.pages.size();
  const int fd = u.OpFd([&] { return k.Open(s, f.pages[n], protego::kORdOnly); });
  u.Op([&] { return k.Read(s, fd); }, [&](const auto& r) { return r.value() == f.page_body; });
  u.Op([&] { return k.Close(s, fd); });

  protego::Packet request;
  request.l4_proto = protego::kProtoUdp;
  request.dst_ip = protego::kLocalhostIp;
  request.dst_port = t.srv_port;
  request.payload = f.requests[n];
  protego::Packet reply;
  reply.l4_proto = protego::kProtoUdp;
  reply.dst_ip = protego::kLocalhostIp;
  reply.dst_port = t.cli_port;
  reply.payload = f.reply_body;
  auto payload_is = [](const std::string& want) {
    return [&want](const auto& r) { return r.value().has_value() && r.value()->payload == want; };
  };
  u.Op([&] { return k.SendCall(s, t.cli_fd, std::move(request)); });
  u.Op([&] { return k.RecvCall(s, t.srv_fd); }, payload_is(f.requests[n]));
  u.Op([&] { return k.SendCall(s, t.srv_fd, std::move(reply)); });
  u.Op([&] { return k.RecvCall(s, t.cli_fd); }, payload_is(f.reply_body));
}

void MailUnit(Kernel& k, AppThread& t, const AppFixtures& f, bool protego) {
  Task& s = *t.sessions[static_cast<int>(Mix::kMail)];
  AppUnit u(t, Mix::kMail, protego);
  const Uid recipient = static_cast<Uid>(1000 + NextRand(t.rng) % 3);
  u.Op([&] { return k.Seteuid(s, recipient); });
  const int fd = u.OpFd(
      [&] { return k.Open(s, t.spool_tmp, protego::kOWrOnly | protego::kOCreat, 0600); });
  u.Op([&] { return k.Write(s, fd, f.mail_body); });
  u.Op([&] { return k.Close(s, fd); });
  u.Op([&] { return k.Rename(s, t.spool_tmp, t.spool_final); });
  u.Op([&] { return k.Stat(s, t.spool_final); },
       [&](const auto& r) { return r.value().size == f.mail_body.size(); });
  u.Op([&] { return k.Unlink(s, t.spool_final); });
  u.Op([&] { return k.Seteuid(s, 0); });
}

void SetuidBurstUnit(Kernel& k, AppThread& t, const AppFixtures& f, bool protego) {
  Task& s = *t.sessions[static_cast<int>(Mix::kSetuidBurst)];
  AppUnit u(t, Mix::kSetuidBurst, protego);
  const Uid target = static_cast<Uid>(1000 + NextRand(t.rng) % 3);
  u.Op([&] { return k.Seteuid(s, target); });
  u.Op([&] { return GetPidResult(k, s); });
  u.Op([&] { return k.Stat(s, f.passwd_path); });
  u.Op([&] { return k.Seteuid(s, t.burst_home); });
  u.Op([&] { return GetPidResult(k, s); });
  u.Op([&] { return k.Stat(s, f.passwd_path); });
}

// One round: each mix once, in an order drawn from the thread's stream, so
// the mixes interleave unit by unit in fixed proportions.
void AppRound(Kernel& k, AppThread& t, const AppFixtures& f, bool protego) {
  std::array<int, kMixCount> order = {0, 1, 2, 3};
  for (int i = kMixCount - 1; i > 0; --i) {
    std::swap(order[static_cast<size_t>(i)],
              order[static_cast<size_t>(NextRand(t.rng) % static_cast<uint64_t>(i + 1))]);
  }
  for (int m : order) {
    switch (static_cast<Mix>(m)) {
      case Mix::kCompile: CompileUnit(k, t, f, protego); break;
      case Mix::kWebServe: WebServeUnit(k, t, f, protego); break;
      case Mix::kMail: MailUnit(k, t, f, protego); break;
      case Mix::kSetuidBurst: SetuidBurstUnit(k, t, f, protego); break;
    }
  }
}

// --- Admin session -----------------------------------------------------------

// Step groups. The media group keeps its three steps in order (mount, read
// the disc, unmount); every other group is one step. The session plays
// decks: each deck holds every group kAdminDeck[g] times, shuffled by the
// seeded stream, so every block and every seed runs the steps in the same
// proportions and only their order varies. The counts keep each step kind
// under half of the session's time (password hashing makes passwd and
// sudo-with-password the expensive steps).
enum class AdminGroup : int {
  kMedia = 0,
  kDeniedMount,
  kPing,
  kSudo,
  kSudoAuth,
  kPasswd,
  kEditFstab,
  kEditSudoers,
};
constexpr int kAdminGroupCount = 8;
constexpr int kAdminDeck[kAdminGroupCount] = {8, 6, 6, 6, 2, 1, 2, 2};
constexpr const char* kAdminGroupNames[kAdminGroupCount] = {
    "unit:media", "unit:mount_denied", "unit:ping", "unit:sudo",
    "unit:sudo_auth", "unit:passwd", "unit:edit_fstab", "unit:edit_sudoers"};

constexpr const char* kCdromReadme = "CD-ROM contents: protego-install-media\n";
constexpr const char* kFstabExtra = "/dev/sdb2 /media/extra vfat rw,user\n";
constexpr const char* kSudoersExtra = "charlie ALL=(root) NOPASSWD: /usr/bin/uptime\n";
constexpr int kDeniedMountExit = 32;

struct AdminCtx {
  SimSystem* sys = nullptr;
  Kernel* k = nullptr;
  bool protego = false;
  Task* alice = nullptr;
  Task* bob = nullptr;
  Task* charlie = nullptr;
  Task* root = nullptr;
  std::string fstab_base;
  std::string sudoers_base;
  bool fstab_extra = false;
  bool sudoers_extra = false;
  bool bob_alt_password = false;
  size_t fstab_rules = 0;    // published mount rules without the extra entry
  size_t sudoers_rules = 0;  // published delegation rules without the extra entry
  uint64_t rng = 0;
  uint64_t edits = 0;           // root edits issued
  uint64_t expected_bumps = 0;  // policy generations those steps must publish
  std::unique_ptr<Ledger> ledger;
};

AdminCtx NewAdminCtx(SimSystem& sys, Task& root, bool protego, bool traced) {
  AdminCtx a;
  a.sys = &sys;
  a.k = &sys.kernel();
  a.protego = protego;
  a.root = &root;
  a.fstab_base = a.k->vfs().ReadFile("/etc/fstab").value_or("");
  a.sudoers_base = a.k->vfs().ReadFile("/etc/sudoers").value_or("");
  if (protego) {
    a.fstab_rules = sys.lsm()->mount_policy().size();
    a.sudoers_rules = sys.lsm()->delegation().rules.size();
  }
  a.ledger = std::make_unique<Ledger>(traced);
  return a;
}

// One utility invocation through the session's shell, timed and checked on
// exit code, stdout and leftover terminal input (a prompt that did not fire
// would leave a queued password behind).
void Utility(AdminCtx& a, OpKind kind, Task& who, const std::string& path,
             std::vector<std::string> argv, int want_exit,
             const std::function<bool(const std::string&)>& out_ok) {
  (void)Drive(*a.ledger, kind, [&] { return a.sys->RunCapture(who, path, std::move(argv)); },
              [&](const SimSystem::RunOutput& out) -> std::string {
                const bool drained = !who.terminal->ReadLine().has_value();
                who.terminal->ClearOutput();
                if (out.error == Errno::kOk && out.exit_code == want_exit && out_ok(out.out) &&
                    drained) {
                  return "";
                }
                return "exit " + std::to_string(out.exit_code) + " errno " +
                       protego::ErrnoName(out.error) + (drained ? "" : ", input left");
              });
}

bool Any(const std::string&) { return true; }
bool IsRoot(const std::string& out) { return out.find("uid=0") != std::string::npos; }

// Root toggles a harmless entry in /etc/fstab or /etc/sudoers. Under
// Protego the write fires the monitor daemon's watch, which parses the file,
// writes /proc/protego and publishes a new policy generation before the
// write returns; the op's time is edit-to-published.
void RootEdit(AdminCtx& a, bool fstab) {
  Kernel& k = *a.k;
  bool& extra = fstab ? a.fstab_extra : a.sudoers_extra;
  extra = !extra;
  const std::string& base = fstab ? a.fstab_base : a.sudoers_base;
  const std::string content = extra ? base + (fstab ? kFstabExtra : kSudoersExtra) : base;
  const char* path = fstab ? "/etc/fstab" : "/etc/sudoers";
  const uint64_t gen_before = k.lsm().policy_generation();
  auto r = Drive(*a.ledger, OpKind::kEdit,
                 [&] { return k.WriteWholeFile(*a.root, path, content); },
                 [](const auto& w) { return w.ok() ? "" : w.error().ToString(); });
  ++a.edits;
  if (!r.ok() || !a.protego) {
    return;
  }
  ++a.expected_bumps;
  // Published: the generation moved and the live policy holds the edit.
  const size_t want = (fstab ? a.fstab_rules : a.sudoers_rules) + (extra ? 1 : 0);
  const size_t have = fstab ? a.sys->lsm()->mount_policy().size()
                            : a.sys->lsm()->delegation().rules.size();
  const bool published = k.lsm().policy_generation() == gen_before + 1 && have == want;
  if (!published) {
    a.ledger->Fail(std::string("edit of ") + path + " not published");
  }
}

void AdminStep(AdminCtx& a, AdminGroup g) {
  Kernel& k = *a.k;
  switch (g) {
    case AdminGroup::kMedia:
      Utility(a, OpKind::kMount, *a.alice, "/bin/mount", {"mount", "/dev/cdrom"}, 0, Any);
      Utility(a, OpKind::kCat, *a.alice, "/bin/cat", {"cat", "/media/cdrom/README"}, 0,
              [](const std::string& out) { return out == kCdromReadme; });
      Utility(a, OpKind::kUmount, *a.alice, "/bin/umount", {"umount", "/media/cdrom"}, 0, Any);
      break;
    case AdminGroup::kDeniedMount:
      Utility(a, OpKind::kMountDenied, *a.bob, "/bin/mount", {"mount", "/dev/sda2"},
              kDeniedMountExit, Any);
      break;
    case AdminGroup::kPing:
      Utility(a, OpKind::kPing, *a.bob, "/bin/ping", {"ping", "10.0.0.2", "1"}, 0, Any);
      break;
    case AdminGroup::kSudo:
      Utility(a, OpKind::kSudo, *a.charlie, "/usr/bin/sudo", {"sudo", "/usr/bin/id"}, 0, IsRoot);
      break;
    case AdminGroup::kSudoAuth:
      k.clock().Advance(kPastAuthWindowSec);
      a.alice->terminal->QueueInput("alicepw");
      Utility(a, OpKind::kSudoAuth, *a.alice, "/usr/bin/sudo", {"sudo", "/usr/bin/id"}, 0,
              IsRoot);
      break;
    case AdminGroup::kPasswd: {
      // bob toggles between two passwords; the next toggle re-verifies the
      // one this step set, so a lost update shows as a failure.
      k.clock().Advance(kPastAuthWindowSec);
      a.bob->terminal->QueueInput(a.bob_alt_password ? "bobpw2" : "bobpw");
      a.bob->terminal->QueueInput(a.bob_alt_password ? "bobpw" : "bobpw2");
      a.bob_alt_password = !a.bob_alt_password;
      Utility(a, OpKind::kPasswd, *a.bob, "/usr/bin/passwd", {"passwd"}, 0, Any);
      if (a.protego) {
        // The fragment rewrite is a truncate and a write, two watch events;
        // the daemon republishes the user db on each.
        a.expected_bumps += 2;
      }
      break;
    }
    case AdminGroup::kEditFstab:
      RootEdit(a, true);
      break;
    case AdminGroup::kEditSudoers:
      RootEdit(a, false);
      break;
  }
}

std::vector<AdminGroup> ShuffledDeck(uint64_t& rng) {
  std::vector<AdminGroup> deck;
  for (int g = 0; g < kAdminGroupCount; ++g) {
    deck.insert(deck.end(), static_cast<size_t>(kAdminDeck[g]), static_cast<AdminGroup>(g));
  }
  for (size_t i = deck.size() - 1; i > 0; --i) {
    std::swap(deck[i], deck[NextRand(rng) % (i + 1)]);
  }
  return deck;
}

uint64_t OpsPerDeck() {
  uint64_t ops = 0;
  for (int g = 0; g < kAdminGroupCount; ++g) {
    ops += static_cast<uint64_t>(kAdminDeck[g]) * (g == static_cast<int>(AdminGroup::kMedia) ? 3 : 1);
  }
  return ops;
}

uint64_t GroupsPerDeck() {
  uint64_t groups = 0;
  for (int n : kAdminDeck) {
    groups += static_cast<uint64_t>(n);
  }
  return groups;
}

// --- Traced-run layer probes -------------------------------------------------

// Median over a few repetitions of the mean cost of `fn` over `iters` calls.
template <typename Fn>
double TimeNs(int iters, Fn&& fn) {
  std::vector<double> reps;
  for (int rep = 0; rep < 5; ++rep) {
    const uint64_t t0 = MonotonicNanos();
    for (int i = 0; i < iters; ++i) {
      fn(i);
    }
    reps.push_back(static_cast<double>(MonotonicNanos() - t0) / iters);
  }
  return MedianOf(reps);
}

// Times Vfs::Resolve, the inode_permission and sb_mount hooks and the two
// config parsers on the workload's own inputs. Runs after the timed region,
// single-threaded, on the block's kernel.
void ProbeLayers(SimSystem& sys, Task& session, const std::vector<std::string>& paths,
                 std::map<std::string, double>& out) {
  Kernel& k = sys.kernel();
  out["vfs.resolve_ns"] = TimeNs(2000, [&](int i) {
    (void)k.vfs().Resolve(paths[static_cast<size_t>(i) % paths.size()]);
  });
  std::vector<protego::Vnode*> nodes;
  std::vector<const std::string*> node_paths;
  for (const std::string& p : paths) {
    auto n = k.vfs().Resolve(p);
    if (n.ok()) {
      nodes.push_back(n.value());
      node_paths.push_back(&p);
    }
  }
  if (!nodes.empty()) {
    out["lsm.inode_permission_ns"] = TimeNs(2000, [&](int i) {
      const size_t j = static_cast<size_t>(i) % nodes.size();
      (void)k.lsm().InodePermission(session, *node_paths[j], nodes[j]->inode(), protego::kMayRead);
    });
  }
  protego::MountRequest req{"/dev/cdrom", "/media/cdrom", "iso9660", {"ro"}};
  out["lsm.sb_mount_ns"] = TimeNs(2000, [&](int) { (void)k.lsm().SbMount(session, req); });

  const std::string fstab = k.vfs().ReadFile("/etc/fstab").value_or("");
  const std::string sudoers = k.vfs().ReadFile("/etc/sudoers").value_or("");
  const std::vector<std::string> fragments = {
      k.vfs().ReadFile("/etc/sudoers.d/protego").value_or("")};
  out["config.fstab_parse_ns"] =
      TimeNs(200, [&](int) { (void)protego::ParseFstab(fstab); });
  out["config.sudoers_parse_ns"] =
      TimeNs(200, [&](int) { (void)protego::ParseSudoersWithFragments(sudoers, fragments); });
}

// --- Invariants --------------------------------------------------------------

// State a block must leave behind, whatever ran: descriptors closed, block
// accounting consistent, the mount table back at its boot-time shape.
void CheckEndState(SimSystem& sys, const std::vector<Task*>& sessions, size_t mounts_baseline,
                   Ledger& ledger) {
  Kernel& k = sys.kernel();
  for (Task* s : sessions) {
    if (s->fds.size() != 0) {
      ledger.Fail("session " + s->comm + " left " + std::to_string(s->fds.size()) + " fds open");
    }
  }
  auto audit = k.vfs().AuditBlockAccounting();
  if (!audit.ok()) {
    ledger.Fail("vfs block accounting: " + audit.error().ToString());
  }
  if (k.vfs().mounts().size() != mounts_baseline) {
    ledger.Fail("mount table not back at baseline");
  }
}

void PutNotes(const Ledger& l, BlockResult& out) {
  for (const std::string& n : l.notes()) {
    if (out.failures.size() < kMaxFailureNotes) {
      out.failures.push_back(n);
    }
  }
}

// The timed region's op latencies, overall and per op kind.
void PutHists(const Ledger& l, BlockResult& out) {
  out.hists["op"].Merge(l.op_hist());
  for (size_t i = 0; i < kOpKindCount; ++i) {
    const OpKind kind = static_cast<OpKind>(i);
    if (l.kind_hist(kind).count() != 0) {
      out.hists[std::string("kind.") + OpKindName(kind)].Merge(l.kind_hist(kind));
    }
  }
}

void PutProfile(const Kernel& k, uint64_t ops, std::map<std::string, double>& out) {
  for (size_t i = 0; i < protego::kLayerCount; ++i) {
    const auto layer = static_cast<protego::Layer>(i);
    out[std::string("self_ns_per_op.") + protego::LayerName(layer)] =
        ops == 0 ? 0
                 : static_cast<double>(k.profiler().Totals(layer).self_ns) /
                       static_cast<double>(ops);
  }
}

void WriteSpans(const std::string& path, const std::vector<const Ledger*>& ledgers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return;
  }
  std::fprintf(f, "# unit\tname\tstart_ns\tend_ns\n");
  for (const Ledger* l : ledgers) {
    for (const Span& s : l->spans()) {
      std::fprintf(f, "%llu\t%s\t%llu\t%llu\n", static_cast<unsigned long long>(s.unit), s.name,
                   static_cast<unsigned long long>(s.start), static_cast<unsigned long long>(s.end));
    }
  }
  std::fclose(f);
}

// --- Blocks ------------------------------------------------------------------

void PinThisThread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

BlockResult RunAppsBlock(const BlockSpec& spec) {
  BlockResult res;
  const bool protego = spec.mode == SimMode::kProtego;
  const int nthreads = spec.workload == Workload::kAppsParallel ? std::max(1, spec.threads) : 1;
  const int rounds = RoundsPerThread(spec.workload, nthreads);

  const uint64_t setup_t0 = MonotonicNanos();
  SimSystem sys(spec.mode);
  Kernel& k = sys.kernel();
  Task& root = sys.Login("root");
  AppFixtures f;
  (void)k.vfs().EnsureDirs("/usr/include");
  for (int i = 0; i < 6; ++i) {
    f.headers.push_back("/usr/include/hdr" + std::to_string(i) + ".h");
    (void)k.WriteWholeFile(root, f.headers.back(), f.header_body);
  }
  (void)k.vfs().EnsureDirs("/var/www");
  for (int i = 0; i < 4; ++i) {
    f.pages.push_back("/var/www/page" + std::to_string(i) + ".html");
    f.requests.push_back("GET /page" + std::to_string(i) + ".html");
    (void)k.WriteWholeFile(root, f.pages.back(), f.page_body);
  }
  (void)k.vfs().EnsureDirs("/var/spool/wl");
  const size_t mounts_baseline = k.vfs().mounts().size();

  std::vector<AppThread> threads(static_cast<size_t>(nthreads));
  std::vector<Task*> all_sessions;
  for (int t = 0; t < nthreads; ++t) {
    AppThread& at = threads[static_cast<size_t>(t)];
    at.index = t;
    for (int m = 0; m < kMixCount; ++m) {
      at.sessions[m] = &sys.Login(AppUser(static_cast<Mix>(m), protego));
      all_sessions.push_back(at.sessions[m]);
    }
    at.burst_home = at.sessions[static_cast<int>(Mix::kSetuidBurst)]->cred.euid;
    at.obj_path = "/tmp/wlobj" + std::to_string(t) + ".o";
    const std::string dir = "/var/spool/wl/q" + std::to_string(t);
    (void)k.vfs().EnsureDirs(dir);
    (void)k.Chmod(root, dir, 01777);
    at.spool_tmp = dir + "/in.tmp";
    at.spool_final = dir + "/msg";
    at.srv_port = static_cast<uint16_t>(8000 + t);
    at.cli_port = static_cast<uint16_t>(18000 + t);
    at.churn_port = static_cast<uint16_t>(12000 + t);
    Task& web = *at.sessions[static_cast<int>(Mix::kWebServe)];
    auto srv = k.SocketCall(web, protego::kAfInet, protego::kSockDgram, 0);
    auto cli = k.SocketCall(web, protego::kAfInet, protego::kSockDgram, 0);
    if (!srv.ok() || !cli.ok() || !k.BindCall(web, srv.value(), at.srv_port).ok() ||
        !k.BindCall(web, cli.value(), at.cli_port).ok()) {
      res.failures.push_back("web-serve socket fixtures failed");
      res.scalars["failed"] += 1;
    }
    at.srv_fd = srv.value_or(-1);
    at.cli_fd = cli.value_or(-1);
    at.ledger = std::make_unique<Ledger>(spec.traced);
    at.ledger->set_unit_base(static_cast<uint64_t>(t) << 40);
  }
  res.scalars["setup_s"] = static_cast<double>(MonotonicNanos() - setup_t0) / 1e9;

  if (spec.traced) {
    k.profiler().set_enabled(true);
  }

  std::vector<int> cpus;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) {
        cpus.push_back(c);
      }
    }
  }

  // Runs `rounds` rounds on every thread from a fresh copy of each thread's
  // stream; serial blocks call the body directly, parallel blocks hand one
  // body per thread to the ThreadScheduler the way ExecMode::kParallel does.
  auto drive = [&](int rounds, uint64_t stream_base) {
    for (AppThread& at : threads) {
      at.rng = StreamSeed(spec.seed, stream_base + static_cast<uint64_t>(at.index));
    }
    auto body = [&](AppThread& at) {
      for (int r = 0; r < rounds; ++r) {
        AppRound(k, at, f, protego);
      }
      at.finish_ns = MonotonicNanos();
    };
    if (spec.workload == Workload::kAppsSerial) {
      body(threads[0]);
      return;
    }
    protego::conc::ThreadScheduler sched;
    k.set_scheduler(&sched);
    for (AppThread& at : threads) {
      sched.StartTask(at.sessions[0]->pid, [&body, &at, &cpus] {
        // One CPU per thread: left to itself the OS sometimes stacks the
        // threads on one CPU, where they run one at a time and the block
        // measures no contention at all.
        if (!cpus.empty()) {
          PinThisThread(cpus[static_cast<size_t>(at.index) % cpus.size()]);
        }
        body(at);
      });
    }
    sched.Join();
    k.set_scheduler(nullptr);
  };

  // Untimed warm-up, from streams of its own.
  drive(kAppsWarmupRounds, 1000);
  uint64_t warm_failed = 0;
  for (AppThread& at : threads) {
    warm_failed += at.ledger->failed();
    PutNotes(*at.ledger, res);
    at.ledger->Reset();
  }

  if (spec.traced) {
    k.profiler().Reset();
  }
  const Counters before = ReadCounters(sys);
  const uint64_t t0 = MonotonicNanos();
  drive(rounds, 0);
  const uint64_t t1 = MonotonicNanos();
  const Counters after = ReadCounters(sys);

  // Block-level checks land in their own ledger so every failure is
  // counted exactly once.
  Ledger block(false);
  uint64_t ops = 0;
  uint64_t first_finish = ~uint64_t{0};
  uint64_t last_finish = 0;
  for (AppThread& at : threads) {
    ops += at.ledger->ops();
    first_finish = std::min(first_finish, at.finish_ns);
    last_finish = std::max(last_finish, at.finish_ns);
    if (at.ledger->ops() != static_cast<uint64_t>(rounds) * kOpsPerRound ||
        at.ledger->units() != static_cast<uint64_t>(rounds) * kMixCount) {
      block.Fail("op count differs from units x ops per unit");
    }
  }
  if (Delta(before, after, "kernel.calls") < ops) {
    block.Fail("gate saw fewer syscalls than the harness issued");
  }
  if (Delta(before, after, "protego.generation_delta") != 0) {
    block.Fail("policy generation moved without an edit");
  }
  const double wall = static_cast<double>(t1 - t0) / 1e9;
  res.scalars["ops"] = static_cast<double>(ops);
  res.scalars["wall_s"] = wall;
  res.scalars["ops_per_s"] = static_cast<double>(ops) / wall;
  res.scalars["conc.threads"] = nthreads;
  res.scalars["conc.task_finish_spread"] =
      static_cast<double>(last_finish - t0) / static_cast<double>(first_finish - t0);
  PutCounterDeltas(before, after, ops, res.scalars);
  if (spec.traced) {
    PutProfile(k, ops, res.scalars);
    k.profiler().set_enabled(false);
    std::vector<std::string> paths = f.headers;
    paths.insert(paths.end(), f.pages.begin(), f.pages.end());
    paths.push_back(f.passwd_path);
    ProbeLayers(sys, *threads[0].sessions[static_cast<int>(Mix::kCompile)], paths, res.scalars);
  }

  // Root edits beside the finished apps: edit-to-published latency on a
  // kernel that has just served the mix. Not part of the op stream. With
  // several threads the probe visits each thread's CPU in turn, so its
  // figures average over the same CPUs as the ops did.
  AdminCtx edits = NewAdminCtx(sys, root, protego, false);
  for (int i = 0; i < kEditProbe; ++i) {
    if (nthreads > 1 && !cpus.empty() && i % (kEditProbe / nthreads) == 0) {
      PinThisThread(cpus[static_cast<size_t>(i / (kEditProbe / nthreads)) % cpus.size()]);
    }
    RootEdit(edits, true);
  }
  res.hists["edit"].Merge(edits.ledger->op_hist());

  for (AppThread& at : threads) {
    Task& web = *at.sessions[static_cast<int>(Mix::kWebServe)];
    (void)k.Close(web, at.srv_fd);
    (void)k.Close(web, at.cli_fd);
  }
  CheckEndState(sys, all_sessions, mounts_baseline, block);

  uint64_t failed = warm_failed + block.failed() + edits.ledger->failed();
  for (AppThread& at : threads) {
    failed += at.ledger->failed();
    PutNotes(*at.ledger, res);
    PutHists(*at.ledger, res);
  }
  PutNotes(block, res);
  PutNotes(*edits.ledger, res);
  res.scalars["failed"] += static_cast<double>(failed);
  res.scalars["edits"] = kEditProbe;
  res.scalars["vfs.orphans_end"] = static_cast<double>(k.vfs().orphan_count());
  res.scalars["vfs.bytes_used_end"] = static_cast<double>(k.vfs().bytes_used());
  if (protego) {
    res.scalars["protego.rules"] = static_cast<double>(sys.lsm()->PolicyRuleCount());
  }
  if (!spec.span_path.empty()) {
    std::vector<const Ledger*> ls;
    for (const AppThread& at : threads) {
      ls.push_back(at.ledger.get());
    }
    WriteSpans(spec.span_path, ls);
  }
  uint64_t spans_dropped = 0;
  for (const AppThread& at : threads) {
    spans_dropped += at.ledger->spans_dropped();
  }
  res.scalars["spans_dropped"] = static_cast<double>(spans_dropped);
  return res;
}

BlockResult RunAdminBlock(const BlockSpec& spec) {
  BlockResult res;
  const bool protego = spec.mode == SimMode::kProtego;

  const uint64_t setup_t0 = MonotonicNanos();
  SimSystem sys(spec.mode);
  Kernel& k = sys.kernel();
  AdminCtx a = NewAdminCtx(sys, sys.Login("root"), protego, spec.traced);
  a.alice = &sys.Login("alice");
  a.bob = &sys.Login("bob");
  a.charlie = &sys.Login("charlie");
  const size_t mounts_baseline = k.vfs().mounts().size();
  res.scalars["setup_s"] = static_cast<double>(MonotonicNanos() - setup_t0) / 1e9;

  if (spec.traced) {
    k.profiler().set_enabled(true);
  }

  // Untimed warm-up, from a stream of its own.
  a.rng = StreamSeed(spec.seed, 1000);
  for (int d = 0; d < kAdminWarmupDecks; ++d) {
    for (AdminGroup g : ShuffledDeck(a.rng)) {
      AdminStep(a, g);
    }
  }
  const uint64_t warm_failed = a.ledger->failed();
  PutNotes(*a.ledger, res);
  a.ledger->Reset();
  a.edits = 0;
  a.expected_bumps = 0;

  if (spec.traced) {
    k.profiler().Reset();
  }
  a.rng = StreamSeed(spec.seed, 0);
  const Counters before = ReadCounters(sys);
  const uint64_t t0 = MonotonicNanos();
  for (int d = 0; d < kAdminDecks; ++d) {
    for (AdminGroup g : ShuffledDeck(a.rng)) {
      a.ledger->BeginUnit(kAdminGroupNames[static_cast<int>(g)]);
      AdminStep(a, g);
      a.ledger->EndUnit();
    }
  }
  const uint64_t t1 = MonotonicNanos();
  const Counters after = ReadCounters(sys);

  const uint64_t ops = a.ledger->ops();
  if (a.ledger->units() != kAdminDecks * GroupsPerDeck() ||
      ops != kAdminDecks * OpsPerDeck()) {
    a.ledger->Fail("op count differs from decks x ops per deck");
  }
  if (Delta(before, after, "kernel.calls") < ops) {
    a.ledger->Fail("gate saw fewer syscalls than the harness issued");
  }
  const uint64_t generations = Delta(before, after, "protego.generation_delta");
  if (generations != a.expected_bumps) {
    a.ledger->Fail("policy generation moved " + std::to_string(generations) + " times for " +
                   std::to_string(a.expected_bumps) + " policy edits");
  }
  const double wall = static_cast<double>(t1 - t0) / 1e9;
  res.scalars["ops"] = static_cast<double>(ops);
  res.scalars["wall_s"] = wall;
  res.scalars["ops_per_s"] = static_cast<double>(ops) / wall;
  res.scalars["edits"] = static_cast<double>(a.edits);
  res.scalars["conc.threads"] = 1;
  res.scalars["conc.task_finish_spread"] = 1;
  PutCounterDeltas(before, after, ops, res.scalars);
  if (spec.traced) {
    PutProfile(k, ops, res.scalars);
    k.profiler().set_enabled(false);
    ProbeLayers(sys, *a.alice,
                {"/etc/fstab", "/etc/sudoers", "/bin/mount", "/usr/bin/sudo", "/dev/cdrom",
                 "/etc/shadows/bob", "/usr/bin/passwd", "/bin/ping"},
                res.scalars);
  }
  CheckEndState(sys, {a.alice, a.bob, a.charlie, a.root}, mounts_baseline, *a.ledger);

  res.hists["edit"].Merge(a.ledger->kind_hist(OpKind::kEdit));
  PutNotes(*a.ledger, res);
  PutHists(*a.ledger, res);
  res.scalars["failed"] += static_cast<double>(warm_failed + a.ledger->failed());
  res.scalars["vfs.orphans_end"] = static_cast<double>(k.vfs().orphan_count());
  res.scalars["vfs.bytes_used_end"] = static_cast<double>(k.vfs().bytes_used());
  if (protego) {
    res.scalars["protego.rules"] = static_cast<double>(sys.lsm()->PolicyRuleCount());
  }
  if (!spec.span_path.empty()) {
    WriteSpans(spec.span_path, {a.ledger.get()});
  }
  res.scalars["spans_dropped"] = static_cast<double>(a.ledger->spans_dropped());
  return res;
}

// This process's peak resident set (VmHWM). A block runs in a process of
// its own, so this is the block's peak: boot, fixtures, warm-up and the
// timed region together.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

}  // namespace

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kAppsSerial: return "apps-serial";
    case Workload::kAppsParallel: return "apps-parallel";
    case Workload::kAdminSession: return "admin-session";
  }
  return "?";
}

std::optional<Workload> WorkloadFromName(std::string_view name) {
  for (Workload w : {Workload::kAppsSerial, Workload::kAppsParallel, Workload::kAdminSession}) {
    if (name == WorkloadName(w)) {
      return w;
    }
  }
  return std::nullopt;
}

const char* OpKindName(OpKind kind) {
  static constexpr const char* kNames[kOpKindCount] = {
      "stat",   "open",   "read",         "write", "close", "rename", "unlink", "setreuid",
      "getpid", "socket", "bind",         "sendto", "recvfrom", "spawn", "mount", "umount",
      "mount_denied", "cat", "ping", "sudo", "sudo_auth", "passwd", "edit"};
  const size_t i = static_cast<size_t>(kind);
  return i < kOpKindCount ? kNames[i] : "?";
}

uint64_t PlannedOps(const BlockSpec& spec) {
  switch (spec.workload) {
    case Workload::kAppsSerial:
      return static_cast<uint64_t>(kAppsRounds) * kOpsPerRound;
    case Workload::kAppsParallel: {
      const int nthreads = std::max(1, spec.threads);
      return static_cast<uint64_t>(RoundsPerThread(spec.workload, nthreads)) * kOpsPerRound *
             static_cast<uint64_t>(nthreads);
    }
    case Workload::kAdminSession:
      return kAdminDecks * OpsPerDeck();
  }
  return 0;
}

BlockResult RunBlock(const BlockSpec& spec) {
  BlockResult res =
      spec.workload == Workload::kAdminSession ? RunAdminBlock(spec) : RunAppsBlock(spec);
  res.scalars["peak_rss_mb"] = PeakRssMb();
  res.scalars["op_p50_us"] = res.hists["op"].Quantile(0.5) / 1e3;
  return res;
}

}  // namespace perfbench
