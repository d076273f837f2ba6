// google-benchmark registration of the key syscall paths, for profiling-
// grade statistics (the paper-style comparison table lives in
// table5_lmbench). Run with --benchmark_filter=... as usual.

#include <benchmark/benchmark.h>

#include "src/net/ioctl_codes.h"
#include "src/sim/system.h"

namespace protego {
namespace {

SimMode ModeOf(const benchmark::State& state) {
  return state.range(0) == 0 ? SimMode::kLinux : SimMode::kProtego;
}

void SetModeLabel(benchmark::State& state) {
  state.SetLabel(state.range(0) == 0 ? "linux" : "protego");
}

void BM_Stat(benchmark::State& state) {
  SimSystem sys(ModeOf(state));
  Task& task = sys.Login("alice");
  SetModeLabel(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.kernel().Stat(task, "/etc/hosts"));
  }
}
BENCHMARK(BM_Stat)->Arg(0)->Arg(1);

void BM_OpenClose(benchmark::State& state) {
  SimSystem sys(ModeOf(state));
  Task& task = sys.Login("alice");
  SetModeLabel(state);
  for (auto _ : state) {
    auto fd = sys.kernel().Open(task, "/etc/hosts", kORdOnly);
    (void)sys.kernel().Close(task, fd.value());
  }
}
BENCHMARK(BM_OpenClose)->Arg(0)->Arg(1);

void BM_MountUmount(benchmark::State& state) {
  SimSystem sys(ModeOf(state));
  Task& task = sys.Login("root");
  SetModeLabel(state);
  for (auto _ : state) {
    (void)sys.kernel().Mount(task, "/dev/cdrom", "/media/cdrom", "iso9660", {"ro"});
    (void)sys.kernel().Umount(task, "/media/cdrom");
  }
}
BENCHMARK(BM_MountUmount)->Arg(0)->Arg(1);

void BM_Setuid(benchmark::State& state) {
  SimSystem sys(ModeOf(state));
  Task& task = sys.Login("root");
  SetModeLabel(state);
  for (auto _ : state) {
    (void)sys.kernel().Setuid(task, kRootUid);
  }
}
BENCHMARK(BM_Setuid)->Arg(0)->Arg(1);

void BM_Bind(benchmark::State& state) {
  SimSystem sys(ModeOf(state));
  Task& task = sys.Login("root");
  SetModeLabel(state);
  for (auto _ : state) {
    auto fd = sys.kernel().SocketCall(task, kAfInet, kSockStream, 0);
    (void)sys.kernel().BindCall(task, fd.value(), 8080);
    (void)sys.kernel().Close(task, fd.value());
  }
}
BENCHMARK(BM_Bind)->Arg(0)->Arg(1);

void BM_Ioctl(benchmark::State& state) {
  SimSystem sys(ModeOf(state));
  Task& task = sys.Login("root");
  int fd = sys.kernel().Open(task, "/dev/ppp", kORdWr).value();
  (void)sys.kernel().Ioctl(task, fd, kPppIocNewUnit, "");
  SetModeLabel(state);
  for (auto _ : state) {
    (void)sys.kernel().Ioctl(task, fd, kPppIocSFlags, "0 novj");
  }
}
BENCHMARK(BM_Ioctl)->Arg(0)->Arg(1);

void BM_SpawnId(benchmark::State& state) {
  SimSystem sys(ModeOf(state));
  Task& task = sys.Login("alice");
  SetModeLabel(state);
  for (auto _ : state) {
    task.stdout_buf.clear();
    task.terminal->ClearOutput();
    (void)sys.kernel().Spawn(task, "/usr/bin/id", {"id"}, {});
  }
}
BENCHMARK(BM_SpawnId)->Arg(0)->Arg(1);

// Null syscall (getpid) through the gate: Arg encodes the gate config —
// 0 = gate disabled (no-gate baseline), 1 = gate on with tracing off,
// 2 = gate on with tracing on. Measures pure entry-path overhead.
void BM_GetPidGate(benchmark::State& state) {
  SimSystem sys(SimMode::kProtego);
  Task& task = sys.Login("alice");
  SyscallGate& gate = sys.syscalls();
  switch (state.range(0)) {
    case 0:
      gate.set_enabled(false);
      state.SetLabel("no-gate");
      break;
    case 1:
      sys.kernel().tracer().set_enabled(false);
      state.SetLabel("gate+stats");
      break;
    default:
      sys.kernel().tracer().set_enabled(true);
      state.SetLabel("gate+stats+trace");
      break;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.kernel().GetPid(task));
  }
}
BENCHMARK(BM_GetPidGate)->Arg(0)->Arg(1)->Arg(2);

void BM_UdpLoopback(benchmark::State& state) {
  SimSystem sys(ModeOf(state));
  Task& task = sys.Login("alice");
  Kernel& k = sys.kernel();
  int server = k.SocketCall(task, kAfInet, kSockDgram, 0).value();
  (void)k.BindCall(task, server, 7001);
  int client = k.SocketCall(task, kAfInet, kSockDgram, 0).value();
  SetModeLabel(state);
  for (auto _ : state) {
    Packet p;
    p.l4_proto = kProtoUdp;
    p.dst_ip = kLocalhostIp;
    p.dst_port = 7001;
    (void)k.SendCall(task, client, p);
    (void)k.RecvCall(task, server);
  }
}
BENCHMARK(BM_UdpLoopback)->Arg(0)->Arg(1);

}  // namespace
}  // namespace protego

BENCHMARK_MAIN();
