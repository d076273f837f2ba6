// The netfilter engine: ordered rule chains evaluated against every packet.
//
// Includes the paper's ~100-line extension for raw sockets (§4.1.1): rules
// can match on whether a packet was constructed via a raw/packet socket and
// on whether its claimed TCP/UDP source port is owned by a different user's
// socket (the spoofing case Protego's default ruleset drops).

#ifndef SRC_NET_NETFILTER_H_
#define SRC_NET_NETFILTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/base/attribution.h"
#include "src/base/tracepoint.h"
#include "src/fault/fault.h"
#include "src/net/packet.h"

namespace protego {

enum class NfChain {
  kOutput,
  kInput,
};

enum class NfVerdict {
  kAccept,
  kDrop,
};

// Rule match criteria; unset fields match anything.
struct NfMatch {
  std::optional<int> l4_proto;
  std::optional<int> icmp_type;
  std::optional<uint16_t> dst_port_min;
  std::optional<uint16_t> dst_port_max;
  std::optional<Uid> sender_uid;

  // --- Protego raw-socket extensions ---
  // Match only packets built through raw/packet sockets.
  std::optional<bool> from_raw_socket;
  // Match packets whose TCP/UDP source port is bound by a socket belonging
  // to a different uid than the sender (spoofing attempt).
  bool src_port_owned_by_other = false;
};

struct NfRule {
  NfChain chain = NfChain::kOutput;
  NfMatch match;
  NfVerdict verdict = NfVerdict::kAccept;
  std::string comment;
};

class Netfilter {
 public:
  // Resolves (proto, port) to the uid owning a bound socket, if any.
  // Installed by the Network so the spoofing match can consult port state.
  using PortOwnerFn = std::function<std::optional<Uid>(int proto, uint16_t port)>;

  void set_port_owner_fn(PortOwnerFn fn) { port_owner_ = std::move(fn); }

  // Attaches the kernel-wide tracer: every Evaluate() emits a kNetfilter
  // event (chain, verdict, matched rule) under the calling syscall's span.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  // Per-layer latency attribution: chain evaluation runs under a
  // `netfilter` frame.
  void set_profiler(LayerProfiler* profiler) { profiler_ = profiler; }

  // Attaches the fault-injection registry. A fault at the netfilter_eval
  // site makes the chain fail CLOSED: the packet is dropped without
  // consulting any rule (counted in fail_closed_drops()).
  void set_faults(FaultRegistry* faults) { faults_ = faults; }

  // Appends a rule to its chain (iptables -A).
  void Append(NfRule rule);

  // Inserts at the head of its chain (iptables -I).
  void Insert(NfRule rule);

  // Removes all rules whose comment equals `comment`; returns count.
  int DeleteByComment(const std::string& comment);

  void Flush();
  size_t RuleCount(NfChain chain) const;

  // Returns a copy so callers never iterate concurrently with a rule edit.
  std::vector<NfRule> rules() const {
    std::shared_lock<std::shared_mutex> lk(rules_mu_);
    return rules_;
  }

  // Runs `packet` through `chain`; first matching rule decides, default
  // policy ACCEPT.
  NfVerdict Evaluate(NfChain chain, const Packet& packet) const;

  // One rule per line, in evaluation order (iptables -L).
  std::string ListRules() const;

  // Counters for tests/benchmarks.
  uint64_t evaluated() const { return evaluated_.load(std::memory_order_relaxed); }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  // Packets dropped because a fault was injected mid-evaluation (subset of
  // dropped()).
  uint64_t fail_closed_drops() const {
    return fail_closed_drops_.load(std::memory_order_relaxed);
  }

 private:
  bool Matches(const NfMatch& match, const Packet& packet) const;

  const char* ChainName(NfChain chain) const;

  // Rule edits (the iptables control path) take rules_mu_ unique; Evaluate
  // walks the chain under a shared lock, so packet evaluation from many
  // task threads proceeds concurrently. The port-owner callback runs with
  // the shared lock held — it reads Network's port table under the
  // Network::mu_ the calling Send() already holds, without re-locking it;
  // Network never calls back into rule edits, so the order Network::mu_ ->
  // rules_mu_ is acyclic.
  mutable std::shared_mutex rules_mu_;
  std::vector<NfRule> rules_;
  PortOwnerFn port_owner_;
  Tracer* tracer_ = nullptr;
  LayerProfiler* profiler_ = nullptr;
  FaultRegistry* faults_ = nullptr;
  mutable std::atomic<uint64_t> evaluated_{0};
  mutable std::atomic<uint64_t> dropped_{0};
  mutable std::atomic<uint64_t> fail_closed_drops_{0};
};

// Wire grammar for rules crossing the kernel boundary (the iptables
// control path). Token form, e.g.:
//   "chain=OUTPUT proto=udp dport=33434: raw=1 verdict=DROP comment=x"
// dport accepts "min:max", "min:" (open top), or a single port.
Result<NfRule> ParseNfRule(std::string_view spec);
std::string SerializeNfRule(const NfRule& rule);

}  // namespace protego

#endif  // SRC_NET_NETFILTER_H_
