#include "src/net/network.h"

#include <algorithm>

namespace protego {

Network::Network() {
  // Netfilter evaluates only inside Send, DeliverLocal and Evaluate, which
  // hold mu_, so the spoofed-source match reads the port table unlocked.
  netfilter_.set_port_owner_fn(
      [this](int proto, uint16_t port) { return PortOwnerLocked(proto, port, 0); });
  // Loopback is always routable.
  (void)routes_.Add(RouteEntry{MakeIp(127, 0, 0, 0), 8, 0, "lo", kRootUid});
  local_addrs_.push_back(kLocalhostIp);
}

Socket& Network::CreateSocket(int family, int type, int protocol, Uid owner,
                              const std::string& owner_binary, int netns) {
  std::lock_guard<RwLock> lk(mu_);
  auto sock = std::make_unique<Socket>();
  sock->id = next_socket_id_++;
  sock->family = family;
  sock->type = type;
  sock->protocol = protocol;
  sock->owner = owner;
  sock->owner_binary = owner_binary;
  sock->netns = netns;
  Socket* raw = sock.get();
  sockets_.emplace(raw->id, std::move(sock));
  return *raw;
}

Socket* Network::FindSocket(int id) {
  std::shared_lock<RwLock> lk(mu_);
  return FindSocketLocked(id);
}

Socket* Network::FindSocketLocked(int id) const {
  auto it = sockets_.find(id);
  return it == sockets_.end() ? nullptr : it->second.get();
}

void Network::RefSocket(int id) {
  std::lock_guard<RwLock> lk(mu_);
  Socket* sock = FindSocketLocked(id);
  if (sock != nullptr) {
    ++sock->refcount;
  }
}

void Network::DestroySocket(int id) {
  std::lock_guard<RwLock> lk(mu_);
  Socket* sock = FindSocketLocked(id);
  if (sock != nullptr && --sock->refcount <= 0) {
    sockets_.erase(id);
  }
}

Result<Unit> Network::Bind(Socket& sock, uint16_t port) {
  std::lock_guard<RwLock> lk(mu_);
  if (port == 0) {
    return Error(Errno::kEINVAL, "bind to port 0");
  }
  int proto = sock.type == kSockStream ? kProtoTcp : kProtoUdp;
  if (PortOwnerLocked(proto, port, sock.netns).has_value()) {
    return Error(Errno::kEADDRINUSE);
  }
  sock.bound_port = port;
  return OkUnit();
}

Result<Unit> Network::Listen(Socket& sock) {
  std::lock_guard<RwLock> lk(mu_);
  if (sock.type != kSockStream) {
    return Error(Errno::kEOPNOTSUPP);
  }
  if (sock.bound_port == 0) {
    return Error(Errno::kEINVAL, "listen on unbound socket");
  }
  sock.listening = true;
  return OkUnit();
}

std::optional<Uid> Network::PortOwner(int proto, uint16_t port, int netns) const {
  std::shared_lock<RwLock> lk(mu_);
  return PortOwnerLocked(proto, port, netns);
}

std::optional<Uid> Network::PortOwnerLocked(int proto, uint16_t port, int netns) const {
  for (const auto& [id, sock] : sockets_) {
    int sock_proto = sock->type == kSockStream ? kProtoTcp : kProtoUdp;
    if (sock->netns == netns && sock->bound_port == port && sock_proto == proto &&
        (sock->type == kSockStream || sock->type == kSockDgram)) {
      return sock->owner;
    }
  }
  return std::nullopt;
}

Result<Unit> Network::Connect(Socket& sock, Ipv4 dst, uint16_t port) {
  std::lock_guard<RwLock> lk(mu_);
  if (sock.type != kSockStream) {
    return Error(Errno::kEOPNOTSUPP);
  }
  if (!IsLocalAddressLocked(dst)) {
    if (!routes_.Lookup(dst).has_value()) {
      return Error(Errno::kENETUNREACH, IpToString(dst));
    }
    const RemoteHost* host = FindHostLocked(dst);
    if (host == nullptr) {
      return Error(Errno::kEHOSTUNREACH, IpToString(dst));
    }
    if (std::find(host->tcp_listening.begin(), host->tcp_listening.end(), port) ==
        host->tcp_listening.end()) {
      return Error(Errno::kECONNREFUSED);
    }
  } else {
    // Local destination: someone must be listening.
    bool found = false;
    for (const auto& [id, other] : sockets_) {
      if (other->listening && other->bound_port == port) {
        found = true;
        break;
      }
    }
    if (!found) {
      return Error(Errno::kECONNREFUSED);
    }
  }
  sock.peer_ip = dst;
  sock.peer_port = port;
  sock.connected = true;
  return OkUnit();
}

bool Network::IsLocalAddress(Ipv4 ip) const {
  std::shared_lock<RwLock> lk(mu_);
  return IsLocalAddressLocked(ip);
}

bool Network::IsLocalAddressLocked(Ipv4 ip) const {
  return std::find(local_addrs_.begin(), local_addrs_.end(), ip) != local_addrs_.end();
}

void Network::AddRemoteHost(RemoteHost host) {
  std::lock_guard<RwLock> lk(mu_);
  hosts_.push_back(std::move(host));
}

const RemoteHost* Network::FindHost(Ipv4 ip) const {
  std::shared_lock<RwLock> lk(mu_);
  return FindHostLocked(ip);
}

const RemoteHost* Network::FindHostLocked(Ipv4 ip) const {
  for (const RemoteHost& host : hosts_) {
    if (host.ip == ip) {
      return &host;
    }
  }
  return nullptr;
}

PppChannel& Network::NewPppUnit() {
  std::lock_guard<RwLock> lk(mu_);
  PppChannel chan;
  chan.unit = static_cast<int>(ppp_units_.size());
  ppp_units_.push_back(chan);
  return ppp_units_.back();
}

PppChannel* Network::FindPppUnit(int unit) {
  std::shared_lock<RwLock> lk(mu_);
  if (unit < 0 || static_cast<size_t>(unit) >= ppp_units_.size()) {
    return nullptr;
  }
  return &ppp_units_[unit];
}

std::optional<Packet> Network::RemoteRespond(const RemoteHost& host, const Packet& packet) {
  // TTL check first: traceroute probes expire in transit.
  if (packet.ttl < host.hops_away) {
    Packet reply;
    reply.l4_proto = kProtoIcmp;
    reply.icmp_type = kIcmpTimeExceeded;
    // The expiring router is modeled as the first `ttl` hops toward the host.
    reply.src_ip = host.ip - (host.hops_away - packet.ttl);
    reply.dst_ip = packet.src_ip;
    reply.payload = packet.payload;
    return reply;
  }
  switch (packet.l4_proto) {
    case kProtoIcmp:
      if (packet.icmp_type == kIcmpEchoRequest && host.replies_icmp_echo) {
        Packet reply;
        reply.l4_proto = kProtoIcmp;
        reply.icmp_type = kIcmpEchoReply;
        reply.src_ip = host.ip;
        reply.dst_ip = packet.src_ip;
        reply.payload = packet.payload;
        return reply;
      }
      return std::nullopt;
    case kProtoArp:
      if (host.replies_arp) {
        Packet reply;
        reply.l4_proto = kProtoArp;
        reply.src_ip = host.ip;
        reply.dst_ip = packet.src_ip;
        reply.payload = "arp-reply";
        return reply;
      }
      return std::nullopt;
    case kProtoUdp: {
      if (std::find(host.udp_echo.begin(), host.udp_echo.end(), packet.dst_port) !=
          host.udp_echo.end()) {
        Packet reply;
        reply.l4_proto = kProtoUdp;
        reply.src_ip = host.ip;
        reply.dst_ip = packet.src_ip;
        reply.src_port = packet.dst_port;
        reply.dst_port = packet.src_port;
        reply.payload = packet.payload;
        return reply;
      }
      // Closed UDP port: port unreachable (traceroute's terminal signal).
      Packet reply;
      reply.l4_proto = kProtoIcmp;
      reply.icmp_type = kIcmpDestUnreachable;
      reply.src_ip = host.ip;
      reply.dst_ip = packet.src_ip;
      reply.payload = packet.payload;
      return reply;
    }
    default:
      return std::nullopt;
  }
}

void Network::DeliverLocal(const Packet& packet, int netns) {
  // Netfilter tables are per-namespace; fresh sandbox namespaces have none.
  if (netns == 0 && netfilter_.Evaluate(NfChain::kInput, packet) == NfVerdict::kDrop) {
    return;
  }
  for (auto& [id, sock] : sockets_) {
    if (sock->netns != netns) {
      continue;
    }
    bool match = false;
    if (sock->type == kSockRaw || sock->family == kAfPacket) {
      // Raw sockets see matching-protocol traffic (ICMP sniffing for ping).
      match = sock->protocol == 0 || sock->protocol == packet.l4_proto;
    } else {
      int proto = sock->type == kSockStream ? kProtoTcp : kProtoUdp;
      match = proto == packet.l4_proto && sock->bound_port == packet.dst_port;
    }
    if (match) {
      sock->rx_queue.push_back(packet);
      packets_delivered_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

Result<Unit> Network::Send(Socket& sock, Packet packet) {
  std::lock_guard<RwLock> lk(mu_);
  packet.sender_uid = sock.owner;
  packet.from_raw_socket = (sock.type == kSockRaw || sock.family == kAfPacket);
  if (!packet.from_raw_socket && sock.bound_port != 0) {
    packet.src_port = sock.bound_port;
  }
  packets_sent_.fetch_add(1, std::memory_order_relaxed);

  // A sandbox network namespace contains only its own loopback: local
  // delivery within the namespace works, the outside world does not exist
  // (§6: "a fake network with no routes to the outside world").
  if (sock.netns != 0) {
    if (packet.dst_ip == kLocalhostIp) {
      DeliverLocal(packet, sock.netns);
      return OkUnit();
    }
    return Error(Errno::kENETUNREACH, "no routes in this network namespace");
  }

  if (netfilter_.Evaluate(NfChain::kOutput, packet) == NfVerdict::kDrop) {
    // Silent drop, as on Linux: the syscall succeeds, the packet vanishes.
    return OkUnit();
  }

  if (IsLocalAddressLocked(packet.dst_ip)) {
    DeliverLocal(packet, /*netns=*/0);
    return OkUnit();
  }

  if (!routes_.Lookup(packet.dst_ip).has_value()) {
    return Error(Errno::kENETUNREACH, IpToString(packet.dst_ip));
  }

  const RemoteHost* host = FindHostLocked(packet.dst_ip);
  if (host == nullptr) {
    return OkUnit();  // routable but nobody home: packet lost
  }
  std::optional<Packet> reply = RemoteRespond(*host, packet);
  if (reply.has_value()) {
    reply->sender_uid = 0;
    if (netfilter_.Evaluate(NfChain::kInput, *reply) == NfVerdict::kAccept) {
      sock.rx_queue.push_back(std::move(*reply));
      packets_delivered_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return OkUnit();
}

NfVerdict Network::Evaluate(NfChain chain, const Packet& packet) const {
  std::shared_lock<RwLock> lk(mu_);
  return netfilter_.Evaluate(chain, packet);
}

std::optional<Packet> Network::Receive(Socket& sock) {
  std::lock_guard<RwLock> lk(mu_);
  if (sock.rx_queue.empty()) {
    return std::nullopt;
  }
  Packet p = std::move(sock.rx_queue.front());
  sock.rx_queue.erase(sock.rx_queue.begin());
  return p;
}

}  // namespace protego
