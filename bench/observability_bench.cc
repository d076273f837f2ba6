// Observability overhead through the per-syscall dispatch pipeline, emitted
// as BENCH_observability.json. This bench is SELF-GATING: it exits nonzero
// when the always-on budget is blown, so CI runs it as a hard check.
//
// Configurations (gate always on, stats always counted):
//   tracing-off   tracer master switch off — the dispatch-word fast path
//                 with every observability bit clear. The baseline; within
//                 noise of BENCH_syscall_gate's stats config by construction
//                 (same gate, no tracer work).
//   default       the "always-on" production shape: tracer on, but the
//                 traced set narrowed to the control-plane syscalls the
//                 paper's operator actually audits (mount/umount/execve/
//                 clone/setuid-class), 1-in-16 head sampling, exemplars on.
//                 Data-plane syscalls (stat, getpid) resolve a dispatch word
//                 with the trace bit clear. BUDGET: stat-class overhead <5%.
//   sampled-all   every syscall traced at a 1-in-16 head-sampling rate —
//                 full-coverage statistical tracing.
//   all-on        every syscall traced, every event kept (the pre-dispatch
//                 "before" row; was ~10% on stat, ~240% on getpid).
//
// Workloads: getpid(2) (null syscall), stat(2) (path resolution — the
// paper's stat-class row), and a policy-denied mount(2) (hook-heaviest
// path, and always in the traced set under `default`).
//
// A macro section runs the web-serve mix with the layer profiler armed and
// enforces the attribution identity: summed per-layer self time within 10%
// of the end-to-end root time. The metrics blob embedded in the JSON is the
// size-bounded sorted excerpt (MetricsRegistry::JsonExcerpt), not the full
// export, so bench diffs stay reviewable.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "src/base/clock.h"
#include "src/sim/system.h"
#include "src/workload/workload.h"

namespace protego {
namespace {

// The control-plane syscalls the `default` config keeps in the traced set.
constexpr Sysno kControlPlane[] = {
    Sysno::kMount,    Sysno::kUmount2, Sysno::kExecve,    Sysno::kClone,
    Sysno::kSetuid,   Sysno::kSetgid,  Sysno::kSetreuid,  Sysno::kSetgroups,
    Sysno::kUnshare,  Sysno::kSeccomp,
};

struct TraceConfig {
  const char* name;
  bool master;        // tracer master switch
  bool trace_all;     // true = all syscalls traced, false = control-plane set
  uint32_t sample_rate;  // head-sampling rate on every point (0 = keep all)
};

constexpr TraceConfig kConfigs[] = {
    {"tracing-off", false, true, 0},
    {"default", true, false, 16},
    {"sampled-all", true, true, 16},
    {"all-on", true, true, 0},
};

void Apply(Kernel& k, const TraceConfig& cfg) {
  Tracer& tracer = k.tracer();
  tracer.set_enabled(cfg.master);
  for (size_t i = 0; i < kTracepointCount; ++i) {
    tracer.set_point_enabled(static_cast<TracepointId>(i), true);
  }
  tracer.set_sample_seed(42);
  tracer.set_all_sample_rates(cfg.sample_rate);
  SyscallGate& gate = k.syscalls();
  gate.SetAllSyscallsTraced(cfg.trace_all);
  if (!cfg.trace_all) {
    for (Sysno nr : kControlPlane) {
      gate.SetSyscallTraced(nr, true);
    }
  }
}

template <typename Fn>
double TimeOnePass(Fn&& fn, int iters) {
  uint64_t t0 = MonotonicNanos();
  for (int i = 0; i < iters; ++i) {
    fn();
  }
  uint64_t t1 = MonotonicNanos();
  return static_cast<double>(t1 - t0) / iters;
}

// Median of an odd-sized sample (kReps is odd).
double Median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

struct Row {
  std::string workload;
  std::string config;
  double ns_per_op = 0;     // median over reps
  double overhead_pct = 0;  // median paired overhead vs tracing-off, same rep
};

struct Check {
  std::string name;
  bool pass = false;
  std::string detail;
};

}  // namespace
}  // namespace protego

int main(int argc, char** argv) {
  using namespace protego;
  const char* out_path = argc > 1 ? argv[1] : "BENCH_observability.json";
  constexpr int kIters = 200000;
  // The gate reads the median of per-rep pairs, and a pair only cancels a
  // host-speed swing that covers both of its passes. With 9 reps one swing
  // could move the median past the budget; with 31 it takes several. Longer
  // passes instead (50 ms) let more swings land inside one pair, not fewer.
  constexpr int kReps = 31;

  SimSystem sys(SimMode::kProtego);
  Task& task = sys.Login("alice");
  Kernel& k = sys.kernel();

  struct Workload {
    const char* name;
    int iters;
    std::function<void()> op;
  };
  volatile int sink = 0;
  std::vector<Workload> workloads;
  workloads.push_back({"getpid", kIters, [&] { sink = k.GetPid(task); }});
  workloads.push_back({"stat", kIters / 10, [&] { (void)k.Stat(task, "/etc/hosts"); }});
  workloads.push_back(
      {"mount-denied", kIters / 10,
       [&] { (void)k.Mount(task, "/dev/sda1", "/mnt", "ext4", {}); }});

  std::vector<Row> rows;
  double default_stat_overhead = 0;
  constexpr size_t kNumConfigs = sizeof(kConfigs) / sizeof(kConfigs[0]);
  for (const Workload& w : workloads) {
    // Interleave the configs WITHIN each rep (off, default, sampled, all-on,
    // off, default, ...) rather than measuring each config's reps back to
    // back, and score each config by the MEDIAN over reps of its paired
    // per-rep overhead (t[c] - t[off]) / t[off]. A clock-speed wobble or a
    // burst of host load then hits both sides of a pair alike and cancels;
    // the median discards the reps where it did not. Measured sequentially,
    // or as best-of-N per config, one lucky baseline pass reads as a 5%
    // "overhead" on every other config. Odd reps run the configs in reverse
    // order, so a drift within a rep favours no config over the baseline.
    std::vector<double> times[kNumConfigs];
    std::vector<double> paired[kNumConfigs];
    for (int r = 0; r < kReps; ++r) {
      double t[kNumConfigs];
      for (size_t i = 0; i < kNumConfigs; ++i) {
        const size_t c = r % 2 == 0 ? i : kNumConfigs - 1 - i;
        Apply(k, kConfigs[c]);
        k.tracer().Clear();  // ring churn priced, retention equalized
        // Per-pass warmup: settles the dispatch-word rebuild the config
        // change just invalidated and re-touches caches after the previous
        // config's pass.
        for (int i = 0; i < w.iters / 8; ++i) {
          w.op();
        }
        t[c] = TimeOnePass(w.op, w.iters);
        times[c].push_back(t[c]);
      }
      for (size_t c = 0; c < kNumConfigs; ++c) {
        paired[c].push_back((t[c] - t[0]) / t[0] * 100.0);  // kConfigs[0] is tracing-off
      }
    }
    for (size_t c = 0; c < kNumConfigs; ++c) {
      Row row;
      row.workload = w.name;
      row.config = kConfigs[c].name;
      row.ns_per_op = Median(times[c]);
      row.overhead_pct = Median(paired[c]);
      rows.push_back(row);
      if (row.workload == "stat" && row.config == "default") {
        default_stat_overhead = row.overhead_pct;
      }
      std::printf("%-12s %-12s %8.2f ns/op  %+7.1f%%\n", w.name,
                  kConfigs[c].name, row.ns_per_op, row.overhead_pct);
    }
  }
  (void)sink;
  Apply(k, kConfigs[3]);  // restore boot defaults (everything on, no sampling)

  // --- Macro attribution: where does the overhead go? ------------------------
  workload::WorkloadSpec spec;
  spec.mix = workload::Mix::kWebServe;
  spec.tasks = 4;
  spec.total_ops = 40000;
  spec.seed = 1;
  spec.trace = true;
  spec.sample_rate = 16;
  spec.profile = true;
  workload::MixReport macro = workload::RunWorkload(spec, SimMode::kProtego);
  const double attrib_ratio =
      macro.attrib_root_ns > 0
          ? static_cast<double>(macro.attrib_self_ns) /
                static_cast<double>(macro.attrib_root_ns)
          : 0;
  std::printf("web-serve attribution: self=%llu ns root=%llu ns ratio=%.4f "
              "(sampled_out=%llu)\n",
              (unsigned long long)macro.attrib_self_ns,
              (unsigned long long)macro.attrib_root_ns, attrib_ratio,
              (unsigned long long)macro.trace_sampled_out);

  // --- Self-gating checks ----------------------------------------------------
  std::vector<Check> checks;
  {
    Check c;
    c.name = "default_stat_overhead_lt_5pct";
    c.pass = default_stat_overhead < 5.0;
    c.detail = "default-config stat overhead " +
               std::to_string(default_stat_overhead) + "% (budget 5%)";
    checks.push_back(c);
  }
  {
    Check c;
    c.name = "web_serve_attribution_within_10pct";
    c.pass = attrib_ratio > 0.9 && attrib_ratio < 1.1;
    c.detail = "summed layer self/root = " + std::to_string(attrib_ratio) +
               " (budget 0.9..1.1)";
    checks.push_back(c);
  }

  bool all_pass = true;
  for (const Check& c : checks) {
    std::printf("check %-36s %s  %s\n", c.name.c_str(), c.pass ? "PASS" : "FAIL",
                c.detail.c_str());
    all_pass = all_pass && c.pass;
  }

  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"observability\",\n  \"unit\": \"ns/op\",\n");
  std::fprintf(f, "  \"reps\": %d,\n  \"sample_rate\": 16,\n  \"sample_seed\": 42,\n",
               kReps);
  std::fprintf(f, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"config\": \"%s\", \"ns_per_op\": %.2f, "
                 "\"overhead_pct\": %.1f}%s\n",
                 rows[i].workload.c_str(), rows[i].config.c_str(), rows[i].ns_per_op,
                 rows[i].overhead_pct, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"attribution\": {\"mix\": \"web-serve\", "
               "\"self_ns\": %llu, \"root_ns\": %llu, \"ratio\": %.4f, "
               "\"sampled_out\": %llu},\n",
               (unsigned long long)macro.attrib_self_ns,
               (unsigned long long)macro.attrib_root_ns, attrib_ratio,
               (unsigned long long)macro.trace_sampled_out);
  std::fprintf(f, "  \"checks\": [\n");
  for (size_t i = 0; i < checks.size(); ++i) {
    std::fprintf(f, "    {\"name\": \"%s\", \"pass\": %s, \"detail\": \"%s\"}%s\n",
                 checks[i].name.c_str(), checks[i].pass ? "true" : "false",
                 checks[i].detail.c_str(), i + 1 < checks.size() ? "," : "");
  }
  // Size-bounded, sorted metrics excerpt — reviewable in a diff, linted by
  // the test suite over the full export.
  std::fprintf(f, "  ],\n  \"metrics_excerpt\": %s\n}\n",
               k.metrics().JsonExcerpt(6).c_str());
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return all_pass ? 0 : 1;
}
