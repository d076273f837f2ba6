// The benchmark's workloads and the block that runs one of them.
//
// A block boots one SimSystem exactly as its constructor leaves it (always-on
// tracer, metrics and exemplars included), logs the sessions in, provisions
// fixtures, warms up untimed, and then drives a fixed, seeded op stream as a
// closed loop: every session issues its next op only after the previous one
// returned. Every op is timed at the harness, checked against the expected
// outcome for the stack it runs on, and charged to its kind. Layer counters
// are read from the layers' public accessors before and after the timed
// region. The same seed gives the same op stream on both stacks and in
// every block.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/stats.h"
#include "src/sim/system.h"

namespace perfbench {

enum class Workload {
  kAppsSerial,     // the four app mixes interleaved on one thread
  kAppsParallel,   // the same mix on min(4, nproc) real threads
  kAdminSession,   // deprivileged utilities + root policy edits
};

const char* WorkloadName(Workload w);
std::optional<Workload> WorkloadFromName(std::string_view name);

// What the harness times: one syscall (apps), one utility invocation or one
// root edit (admin-session).
enum class OpKind : uint8_t {
  kStat = 0,
  kOpen,
  kRead,
  kWrite,
  kClose,
  kRename,
  kUnlink,
  kSetreuid,
  kGetPid,
  kSocket,
  kBind,
  kSendTo,
  kRecvFrom,
  kSpawn,
  kMount,
  kUmount,
  kMountDenied,
  kCat,
  kPing,
  kSudo,
  kSudoAuth,
  kPasswd,
  kEdit,
  kCount,
};

inline constexpr size_t kOpKindCount = static_cast<size_t>(OpKind::kCount);

const char* OpKindName(OpKind kind);

struct BlockSpec {
  Workload workload = Workload::kAppsSerial;
  protego::SimMode mode = protego::SimMode::kProtego;
  uint64_t seed = 1;
  int threads = 1;  // driving threads (apps-parallel), 1 otherwise
  // Traced blocks record harness spans, enable the kernel's LayerProfiler and
  // time the VFS, LSM and config layers on the workload's inputs.
  bool traced = false;
  // Where a traced block writes its spans; empty = keep them in memory only.
  std::string span_path;
};

// What one block measured. Scalars carry the block's own totals and the
// per-layer counter deltas under their metric names; histograms are per-op
// latencies in nanoseconds ("op", "edit", "kind.<op kind>").
struct BlockResult {
  std::map<std::string, double> scalars;
  std::map<std::string, LatencyHist> hists;
  std::vector<std::string> failures;  // first few mismatches, for the report
};

// Ops one block issues (timed region only), known before it runs: the
// crash accounting charges them all as failed when a block dies.
uint64_t PlannedOps(const BlockSpec& spec);

BlockResult RunBlock(const BlockSpec& spec);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
