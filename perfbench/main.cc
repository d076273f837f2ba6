// perfbench: the repository benchmark harness.
//
//   perfbench --workload <apps-serial|apps-parallel|admin-session>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//             [--commit <id>]
//
// Runs blocks (see workloads.h) until --seconds have passed, each in a
// fresh process (this binary re-executed with --block), so that a crash in
// one block is counted as that block's ops failing instead of taking the run
// down, and so that each block's peak RSS is its own. With --trace 0 it alternates
// Protego and stock-Linux blocks (the order flips every pair, so both stacks
// see the same host noise) and reports the end-to-end metrics. With --trace 1
// it alternates untraced and traced Protego blocks and reports the per-layer
// metrics plus the tracing overhead. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Exit status 1 when any
// correctness check failed.

#include <sched.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/stats.h"
#include "perfbench/workloads.h"
#include "src/base/clock.h"

namespace perfbench {
namespace {

struct Args {
  Workload workload = Workload::kAppsSerial;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build";
  std::string commit = "unknown";
  // Block-process mode (internal): run one block, write its serialized
  // result to result_path.
  std::string block;  // "protego", "linux" or "traced"; empty = harness mode
  int threads = 1;
  std::string span_path;
  std::string result_path;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <apps-serial|apps-parallel|"
               "admin-session> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--commit <id>]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      auto w = WorkloadFromName(value);
      if (!w) {
        Usage(("unknown workload " + value).c_str());
      }
      a.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (!(a.seconds > 0)) {
        Usage("--seconds must be positive");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        Usage("--trace takes 0 or 1");
      }
      a.trace = value == "1";
    } else if (flag == "--out-dir") {
      a.out_dir = value;
    } else if (flag == "--commit") {
      a.commit = value;
    } else if (flag == "--block") {
      if (value != "protego" && value != "linux" && value != "traced") {
        Usage("--block takes protego, linux or traced");
      }
      a.block = value;
    } else if (flag == "--threads") {
      a.threads = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--span-path") {
      a.span_path = value;
    } else if (flag == "--result") {
      a.result_path = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("bad number for " + flag).c_str());
    }
  }
  if (!have_workload) {
    Usage("--workload is required");
  }
  return a;
}

// One finished block as the parent sees it.
struct Block {
  BlockSpec spec;
  int slot = 0;  // concurrent block slot (CPU) it ran in
  int seq = 0;   // its index among that slot's blocks
  std::string result_path;
  BlockResult result;
  bool crashed = false;
  std::string crash_cause;
};

std::string Serialize(const BlockResult& r) {
  std::string out;
  char buf[64];
  for (const auto& [name, v] : r.scalars) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += "S " + name + " " + buf + "\n";
  }
  for (const auto& [name, h] : r.hists) {
    out += "H " + name + " " + h.Encode() + "\n";
  }
  for (const std::string& f : r.failures) {
    std::string line = f;
    for (char& c : line) {
      if (c == '\n') {
        c = ' ';
      }
    }
    out += "F " + line + "\n";
  }
  out += "END\n";
  return out;
}

bool Deserialize(const std::string& text, BlockResult& r) {
  std::istringstream in(text);
  std::string line;
  bool ended = false;
  while (std::getline(in, line)) {
    if (line == "END") {
      ended = true;
      break;
    }
    if (line.size() < 2) {
      return false;
    }
    const std::string body = line.substr(2);
    const size_t sp = body.find(' ');
    if (line[0] == 'F') {
      r.failures.push_back(body);
    } else if (sp == std::string::npos) {
      return false;
    } else if (line[0] == 'S') {
      r.scalars[body.substr(0, sp)] = std::strtod(body.c_str() + sp + 1, nullptr);
    } else if (line[0] == 'H') {
      if (!r.hists[body.substr(0, sp)].Decode(body.substr(sp + 1))) {
        return false;
      }
    } else {
      return false;
    }
  }
  return ended;
}

// Starts one block in a fresh process (this binary re-executed with
// --block), pinned to `cpu` when cpu >= 0. The child writes its serialized
// result to `result_path`.
pid_t StartBlock(const BlockSpec& spec, int cpu, const std::string& result_path) {
  const std::vector<std::string> child_args = {
      "perfbench",
      "--workload",
      WorkloadName(spec.workload),
      "--seed",
      std::to_string(spec.seed),
      "--block",
      spec.traced ? "traced" : spec.mode == protego::SimMode::kProtego ? "protego" : "linux",
      "--threads",
      std::to_string(spec.threads),
      "--span-path",
      spec.span_path,
      "--result",
      result_path,
  };
  std::vector<char*> child_argv;
  for (const std::string& a : child_args) {
    child_argv.push_back(const_cast<char*>(a.c_str()));
  }
  child_argv.push_back(nullptr);
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid == 0) {
    if (cpu >= 0) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      (void)sched_setaffinity(0, sizeof set, &set);
    }
    execv("/proc/self/exe", child_argv.data());
    _exit(127);
  }
  return pid;
}

// Reads a finished block's result; a crash, a nonzero exit or an unreadable
// result marks the block crashed.
void CollectBlock(Block& b, int status) {
  std::string text;
  if (std::FILE* f = std::fopen(b.result_path.c_str(), "r")) {
    char buf[1 << 16];
    size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
      text.append(buf, n);
    }
    std::fclose(f);
  }
  std::remove(b.result_path.c_str());
  if (WIFSIGNALED(status)) {
    b.crashed = true;
    b.crash_cause = std::string("block killed by signal ") + strsignal(WTERMSIG(status));
  } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    b.crashed = true;
    b.crash_cause = "block exited with status " + std::to_string(WEXITSTATUS(status));
  } else if (!Deserialize(text, b.result)) {
    b.crashed = true;
    b.crash_cause = "block result unreadable";
  }
}

// --- Reporting ---------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

// All the digits for the result line, ten for the report.
std::string FormatNumber(double v, int digits) {
  if (!std::isfinite(v)) {
    v = 0;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", digits, v);
  return buf;
}

std::vector<double> ScalarOf(const std::vector<const Block*>& blocks, const std::string& name) {
  std::vector<double> out;
  for (const Block* b : blocks) {
    auto it = b->result.scalars.find(name);
    if (it != b->result.scalars.end()) {
      out.push_back(it->second);
    }
  }
  return out;
}

// Histograms merged over a group of blocks; the blocks themselves keep only
// their scalars, so a long run's memory stays flat.
using HistGroup = std::map<std::string, LatencyHist>;

LatencyHist HistOf(const HistGroup& group, const std::string& name) {
  auto it = group.find(name);
  return it == group.end() ? LatencyHist() : it->second;
}

bool IsProtegoUntraced(const BlockSpec& spec) {
  return spec.mode == protego::SimMode::kProtego && !spec.traced;
}

// "median (IQR q1..q3, n=N)" of a per-block or per-pair sample.
std::string Spread(const std::vector<double>& v, double scale, const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%.4g%s (IQR %.4g..%.4g, n=%zu)", MedianOf(v) * scale, unit,
                QuantileOf(v, 0.25) * scale, QuantileOf(v, 0.75) * scale, v.size());
  return buf;
}

std::string RepeatCheck(const std::vector<const Block*>& blocks, const char* name) {
  const std::vector<double> v = ScalarOf(blocks, name);
  for (double x : v) {
    if (x != v.front()) {
      return std::string(name) + " differs between blocks of one seed";
    }
  }
  return "";
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (!args.block.empty()) {
    BlockSpec spec;
    spec.workload = args.workload;
    spec.seed = args.seed;
    spec.threads = args.threads;
    spec.mode = args.block == "linux" ? protego::SimMode::kLinux : protego::SimMode::kProtego;
    spec.traced = args.block == "traced";
    spec.span_path = args.span_path;
    const std::string text = Serialize(RunBlock(spec));
    std::FILE* f = std::fopen(args.result_path.c_str(), "w");
    if (f == nullptr) {
      return 3;
    }
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && ok ? 0 : 3;
  }
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    CPU_SET(0, &allowed);
  }
  const int nproc = std::max(1, CPU_COUNT(&allowed));
  const int threads = args.workload == Workload::kAppsParallel ? std::min(4, nproc) : 1;

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", WorkloadName(args.workload),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  mkdir(args.out_dir.c_str(), 0755);
  // One spans file per workload, overwritten by each traced run.
  const std::string span_path =
      args.trace ? args.out_dir + "/spans-" + WorkloadName(args.workload) + ".tsv" : "";

  // Block schedule. Serial workloads run one block per CPU at a time (up
  // to four), each pinned to its CPU: on a shared virtual host each CPU
  // slows down and speeds up on its own over seconds, and sampling all of
  // them at once keeps a run's figures from hanging on one CPU's luck.
  // apps-parallel runs one block at a time (its threads pin themselves).
  // Every slot alternates the two block kinds (trace 0: Protego and stock;
  // trace 1: untraced and traced Protego) and neighbouring slots start on
  // opposite kinds, so both kinds see the same CPUs and the same moments.
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE && cpus.size() < 4; ++c) {
    if (CPU_ISSET(c, &allowed)) {
      cpus.push_back(c);
    }
  }
  const int slots = args.workload == Workload::kAppsParallel ? 1 : static_cast<int>(cpus.size());
  std::deque<Block> blocks;
  std::map<pid_t, Block*> running;
  HistGroup protego_hists;  // untraced Protego blocks
  HistGroup other_hists;    // stock (trace 0) or traced Protego (trace 1) blocks
  std::vector<int> started(static_cast<size_t>(slots), 0);
  const uint64_t start = protego::MonotonicNanos();
  auto elapsed = [&] { return static_cast<double>(protego::MonotonicNanos() - start) / 1e9; };
  bool spans_assigned = false;
  auto launch = [&](int slot) {
    Block& b = blocks.emplace_back();
    b.slot = slot;
    b.seq = started[static_cast<size_t>(slot)]++;
    const bool first_kind = (slot + b.seq) % 2 == 0;
    b.spec.workload = args.workload;
    b.spec.seed = args.seed;
    b.spec.threads = threads;
    if (args.trace) {
      b.spec.mode = protego::SimMode::kProtego;
      b.spec.traced = !first_kind;
      if (b.spec.traced && !spans_assigned) {
        b.spec.span_path = span_path;
        spans_assigned = true;
      }
    } else {
      b.spec.mode = first_kind ? protego::SimMode::kProtego : protego::SimMode::kLinux;
    }
    b.result_path = args.out_dir + "/block-" + std::to_string(getpid()) + "-" +
                    std::to_string(blocks.size()) + ".txt";
    const pid_t pid =
        StartBlock(b.spec, slots > 1 ? cpus[static_cast<size_t>(slot)] : -1, b.result_path);
    if (pid < 0) {
      b.crashed = true;
      b.crash_cause = "fork failed";
      return;
    }
    running[pid] = &b;
  };
  std::printf("host: nproc=%d threads=%d concurrent_blocks=%d build=%s compiler=%s commit=%s\n",
              nproc, threads, slots, PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              args.commit.c_str());
  for (int slot = 0; slot < slots; ++slot) {
    launch(slot);
  }
  while (!running.empty()) {
    int status = 0;
    const pid_t pid = waitpid(-1, &status, 0);
    if (pid < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    auto it = running.find(pid);
    if (it == running.end()) {
      continue;
    }
    Block& b = *it->second;
    running.erase(it);
    CollectBlock(b, status);
    HistGroup& group = IsProtegoUntraced(b.spec) ? protego_hists : other_hists;
    for (const auto& [name, h] : b.result.hists) {
      group[name].Merge(h);
    }
    b.result.hists.clear();
    if (elapsed() < args.seconds || started[static_cast<size_t>(b.slot)] < 2) {
      launch(b.slot);
    }
  }
  const double measured_s = elapsed();

  std::vector<const Block*> pb;  // untraced Protego blocks that completed
  std::vector<const Block*> ob;  // stock (trace 0) or traced Protego (trace 1) blocks that completed
  size_t crashed = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, int> problems;  // distinct failure -> blocks that reported it
  for (const Block& b : blocks) {
    if (b.crashed) {
      ++crashed;
      const uint64_t planned = PlannedOps(b.spec);
      attempted += planned;
      failed += planned;
      ++problems[std::string(protego::SimModeName(b.spec.mode)) + ": " + b.crash_cause];
      continue;
    }
    (IsProtegoUntraced(b.spec) ? pb : ob).push_back(&b);
    const auto& s = b.result.scalars;
    const uint64_t ops = static_cast<uint64_t>(s.at("ops"));
    const uint64_t probe_edits = args.workload == Workload::kAdminSession
                                     ? 0
                                     : static_cast<uint64_t>(s.at("edits"));
    attempted += ops + probe_edits;
    failed += static_cast<uint64_t>(s.at("failed"));
    for (const std::string& f : b.result.failures) {
      ++problems[std::string(protego::SimModeName(b.spec.mode)) + ": " + f];
    }
  }
  if (args.workload != Workload::kAppsParallel) {
    // A seed fixes the whole op stream of serial workloads, so their layer
    // counts must repeat exactly from block to block.
    for (const auto* group : {&pb, &ob}) {
      for (const char* name : {"kernel.calls", "kernel.errors", "lsm.hook_calls.inode_permission",
                               "vfs.resolves_per_op"}) {
        const std::string why = RepeatCheck(*group, name);
        if (!why.empty()) {
          ++problems[why];
          ++failed;
        }
      }
    }
  }

  std::printf("blocks: %zu in %.2f s (%zu Protego untraced, %zu %s, %zu crashed)\n",
              blocks.size(), measured_s, pb.size(), ob.size(),
              args.trace ? "Protego traced" : "stock", crashed);
  for (const Block& b : blocks) {
    if (b.crashed) {
      continue;
    }
    const auto& s = b.result.scalars;
    std::printf("block %-7s ops/s %.6g  p50 %.4g us  wall %.3f s  setup %.4f s  rss %.1f MB\n",
                b.spec.traced ? "traced" : protego::SimModeName(b.spec.mode), s.at("ops_per_s"),
                s.at("op_p50_us"), s.at("wall_s"), s.at("setup_s"), s.at("peak_rss_mb"));
  }
  for (const auto& [what, n] : problems) {
    std::printf("FAILED: %s (%d block%s)\n", what.c_str(), n, n == 1 ? "" : "s");
  }

  std::vector<Metric> metrics;
  auto add = [&](const std::string& name, const std::string& unit, double value) {
    metrics.push_back({name, unit, value});
  };

  if (!args.trace) {
    const LatencyHist op = HistOf(protego_hists, "op");
    const LatencyHist stock_op = HistOf(other_hists, "op");
    const LatencyHist edit = HistOf(protego_hists, "edit");
    const std::vector<double> rate = ScalarOf(pb, "ops_per_s");
    const std::vector<double> stock_rate = ScalarOf(ob, "ops_per_s");
    add("ops_per_s", "1/s", MedianOf(rate));
    add("op_p50_us", "us", op.Quantile(0.50) / 1e3);
    add("op_p99_us", "us", op.Quantile(0.99) / 1e3);
    add("stock_ops_per_s", "1/s", MedianOf(stock_rate));
    add("stock_op_p50_us", "us", stock_op.Quantile(0.50) / 1e3);
    add("edit_p50_us", "us", edit.Quantile(0.50) / 1e3);
    add("edit_p99_us", "us", edit.Quantile(0.99) / 1e3);
    add("setup_s", "s", MedianOf(ScalarOf(pb, "setup_s")));
    const std::vector<double> rss = ScalarOf(pb, "peak_rss_mb");
    add("peak_rss_mb", "MB", rss.empty() ? 0 : *std::max_element(rss.begin(), rss.end()));
    add("ok_frac", "ratio",
        attempted == 0 ? 0 : 1.0 - static_cast<double>(failed) / static_cast<double>(attempted));

    std::printf("protego: ops/s %s; op latency n=%llu; edits n=%llu\n",
                Spread(rate, 1, "").c_str(), static_cast<unsigned long long>(op.count()),
                static_cast<unsigned long long>(edit.count()));
    std::printf("stock:   ops/s %s; op latency n=%llu\n", Spread(stock_rate, 1, "").c_str(),
                static_cast<unsigned long long>(stock_op.count()));
    // The paper's relative overhead, per adjacent Protego/stock pair. A
    // derived value with its spread, not a gated metric.
    std::vector<double> overhead;
    std::map<std::pair<int, int>, const Block*> by_slot;
    for (const Block& b : blocks) {
      by_slot[{b.slot, b.seq}] = &b;
    }
    for (const auto& [key, b] : by_slot) {
      auto next = by_slot.find({key.first, key.second + 1});
      if (key.second % 2 != 0 || next == by_slot.end() || b->crashed || next->second->crashed) {
        continue;
      }
      const Block* p = b->spec.mode == protego::SimMode::kProtego ? b : next->second;
      const Block* st = p == b ? next->second : b;
      overhead.push_back(1.0 - p->result.scalars.at("ops_per_s") /
                                   st->result.scalars.at("ops_per_s"));
    }
    std::printf("overhead (1 - protego/stock ops/s, per pair): %s\n",
                Spread(overhead, 100, "%").c_str());
    std::printf("failed_frac: %.6g (%llu of %llu)\n",
                attempted == 0 ? 0 : static_cast<double>(failed) / static_cast<double>(attempted),
                static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted));
  } else {
    // Per-layer metrics: counts, probe timings and profiler self times from
    // the traced blocks (medians over blocks); per-syscall and per-utility
    // latencies from the untraced blocks of this run, whose ops the harness
    // times the same way without the profiler inflating them.
    auto med = [&](const std::string& name) { return MedianOf(ScalarOf(ob, name)); };
    auto count = [&](const std::string& name) { add(name, "count", med(name)); };
    count("kernel.calls");
    count("kernel.errors");
    count("kernel.seccomp_denied");
    for (const char* sys : {"stat", "open", "read", "write", "close", "rename", "unlink",
                            "setreuid", "getpid", "socket", "bind", "sendto", "recvfrom",
                            "spawn"}) {
      const LatencyHist h = HistOf(protego_hists, std::string("kind.") + sys);
      add(std::string("kernel.") + sys + "_p50_ns", "ns", h.Quantile(0.50));
      add(std::string("kernel.") + sys + "_p99_ns", "ns", h.Quantile(0.99));
    }
    count("kernel.audit_lines");
    count("kernel.audit_dropped");
    add("vfs.resolves_per_op", "ratio", med("vfs.resolves_per_op"));
    add("vfs.resolve_ns", "ns", med("vfs.resolve_ns"));
    count("vfs.orphans_end");
    add("vfs.bytes_used_end", "bytes", med("vfs.bytes_used_end"));
    for (const char* hook : {"inode_permission", "sb_mount", "sb_umount", "socket_create",
                             "socket_bind", "task_fix_setuid", "bprm_check"}) {
      count(std::string("lsm.hook_calls.") + hook);
    }
    count("lsm.cache_hits");
    count("lsm.cache_misses");
    count("lsm.cache_bypasses");
    add("lsm.cache_hit_ratio", "ratio", med("lsm.cache_hit_ratio"));
    count("lsm.fail_closed_denials");
    add("lsm.inode_permission_ns", "ns", med("lsm.inode_permission_ns"));
    add("lsm.sb_mount_ns", "ns", med("lsm.sb_mount_ns"));
    count("protego.generation_delta");
    for (const char* what : {"mount", "bind", "setuid", "exec"}) {
      count(std::string("protego.") + what + "_allowed");
      count(std::string("protego.") + what + "_denied");
    }
    count("protego.rules");
    add("config.fstab_parse_ns", "ns", med("config.fstab_parse_ns"));
    add("config.sudoers_parse_ns", "ns", med("config.sudoers_parse_ns"));
    count("services.auth_prompts");
    count("services.auth_successes");
    count("services.auth_failures");
    count("services.daemon_syncs");
    count("services.daemon_errors");
    for (const char* util : {"mount", "umount", "mount_denied", "cat", "ping", "sudo",
                             "sudo_auth", "passwd"}) {
      const LatencyHist h = HistOf(protego_hists, std::string("kind.") + util);
      add(std::string("userland.") + util + "_p50_us", "us", h.Quantile(0.50) / 1e3);
      add(std::string("userland.") + util + "_p99_us", "us", h.Quantile(0.99) / 1e3);
    }
    count("net.nf_evaluated");
    count("net.nf_dropped");
    count("net.nf_fail_closed");
    count("base.trace_events");
    count("base.trace_dropped");
    count("base.trace_sampled_out");
    count("conc.threads");
    add("conc.task_finish_spread", "ratio", med("conc.task_finish_spread"));
    for (const char* layer : {"gate", "seccomp", "dac", "lsm", "decision_cache", "vfs",
                              "netfilter", "fault_registry", "observer"}) {
      add(std::string("self_ns_per_op.") + layer, "ns", med(std::string("self_ns_per_op.") + layer));
    }
    const double traced_rate = MedianOf(ScalarOf(ob, "ops_per_s"));
    const double untraced_rate = MedianOf(ScalarOf(pb, "ops_per_s"));
    add("trace.traced_ops_per_s", "1/s", traced_rate);
    add("trace.untraced_ops_per_s", "1/s", untraced_rate);
    add("trace.overhead_frac", "ratio", untraced_rate == 0 ? 0 : 1.0 - traced_rate / untraced_rate);
    add("failed_frac", "ratio",
        attempted == 0 ? 0 : static_cast<double>(failed) / static_cast<double>(attempted));
    std::printf("tracing overhead: traced %.4g ops/s vs untraced %.4g ops/s (%+.2f%%)\n",
                traced_rate, untraced_rate,
                untraced_rate == 0 ? 0 : 100.0 * (1.0 - traced_rate / untraced_rate));
    std::vector<double> dropped = ScalarOf(ob, "spans_dropped");
    std::printf("spans of the first traced block: %s (%.0f dropped past the in-memory cap)\n",
                span_path.c_str(), dropped.empty() ? 0.0 : dropped.front());
  }

  for (const Metric& m : metrics) {
    std::printf("  %-34s %14s %s\n", m.name.c_str(), FormatNumber(m.value, 10).c_str(),
                m.unit.c_str());
  }
  const bool correct = failed == 0 && !pb.empty() && !ob.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", " : "") + std::string("\"") + JsonEscape(metrics[i].name) +
            "\": {\"value\": " + FormatNumber(metrics[i].value, 17) + ", \"unit\": \"" +
            JsonEscape(metrics[i].unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
