#include "src/sim/system.h"

#include "src/base/hash.h"
#include "src/base/log.h"
#include "src/base/strings.h"
#include "src/lsm/apparmor.h"
#include "src/lsm/capability_module.h"
#include "src/net/ioctl_codes.h"
#include "src/protego/default_rules.h"
#include "src/protego/proc_iface.h"
#include "src/userland/daemon_utils.h"
#include "src/userland/install.h"

namespace protego {

namespace {

// Aborts on bootstrap failure: a half-built machine is useless and every
// caller would just crash later with a worse message.
template <typename T>
void Must(const Result<T>& r, const char* what) {
  if (!r.ok()) {
    LogError(std::string("SimSystem bootstrap: ") + what + ": " + r.error().ToString());
    abort();
  }
}

}  // namespace

const char* SimModeName(SimMode mode) {
  switch (mode) {
    case SimMode::kLinux: return "linux";
    case SimMode::kSetcap: return "setcap";
    case SimMode::kProtego: return "protego";
  }
  return "?";
}

SimSystem::SimSystem(SimMode mode) : mode_(mode) {
  // LSM stack: commoncap first (as on Linux), then AppArmor, then Protego.
  kernel_.lsm().Register(std::make_unique<CapabilityModule>());
  auto apparmor = std::make_unique<AppArmorModule>(&kernel_.audit_ring());
  apparmor_ = apparmor.get();
  kernel_.lsm().Register(std::move(apparmor));
  if (mode_ == SimMode::kProtego) {
    auto lsm = std::make_unique<ProtegoLsm>(&kernel_);
    lsm_ = lsm.get();
    kernel_.lsm().Register(std::move(lsm));
  }

  users_ = {
      {"root", 0, 0, "rootpw", "/bin/sh"},
      {"alice", 1000, 1000, "alicepw", "/bin/sh"},
      {"bob", 1001, 1001, "bobpw", "/bin/sh"},
      {"charlie", 1002, 1002, "charliepw", "/bin/sh"},
      {"exim", kEximUid, 101, "", "/bin/sh"},
      {"www-data", kWwwDataUid, 33, "", "/bin/sh"},
  };

  // Namespace semantics track the kernel version the mode models: the
  // stock baseline is Linux 3.6 (pre-3.8: sandboxing needs setuid root);
  // the Protego system assumes the 3.8+ semantics §4.6 points to.
  kernel_.set_unprivileged_userns_enabled(mode_ == SimMode::kProtego);

  BootstrapFilesystem();
  BootstrapUsers();
  BootstrapConfigs();
  BootstrapDevices();
  BootstrapNetwork();
  BootstrapProcFiles();
  Must(InstallUserland(&kernel_, mode_ == SimMode::kProtego, mode_ == SimMode::kSetcap),
       "userland");

  if (mode_ == SimMode::kProtego) {
    Must(InstallProtegoProcFiles(&kernel_, lsm_), "proc interface");
    InstallDefaultRawSocketRules(&kernel_.net().netfilter());
    auth_ = std::make_unique<AuthService>(&kernel_);
    Must(auth_->Install(), "auth service");
    daemon_ = std::make_unique<MonitorDaemon>(&kernel_);
    Must(daemon_->Start(), "monitor daemon");
  }
}

void SimSystem::BootstrapFilesystem() {
  Vfs& vfs = kernel_.vfs();
  for (const char* dir :
       {"/etc", "/etc/ppp", "/etc/ssh", "/etc/sudoers.d", "/dev", "/proc", "/sys", "/home",
        "/media", "/media/cdrom", "/media/usb", "/var", "/var/run", "/var/run/sudo",
        "/var/mail", "/var/log", "/tmp", "/bin", "/sbin", "/usr", "/usr/bin", "/usr/sbin",
        "/usr/lib", "/mnt"}) {
    Must(vfs.EnsureDirs(dir), dir);
  }
  // World-writable sticky temp dir; group-mail spool dir (§4.4's
  // "file system permissions" technique).
  Must(vfs.Resolve("/tmp"), "/tmp");
  vfs.Resolve("/tmp").value()->inode().mode = kIfDir | 01777;
  Vnode* mail = vfs.Resolve("/var/mail").value();
  mail->inode().gid = kMailGid;
  mail->inode().mode = kIfDir | 0775;
  Must(vfs.CreateFile("/etc/hosts", 0644, kRootUid, kRootGid,
                      "127.0.0.1 localhost\n10.0.0.2 gateway\n"),
       "/etc/hosts");
  Must(vfs.CreateFile("/etc/shells", 0644, kRootUid, kRootGid, "/bin/sh\n/bin/bash\n"),
       "/etc/shells");
  Must(vfs.CreateFile("/etc/ssh/ssh_host_key", 0600, kRootUid, kRootGid,
                      "SIMULATED-HOST-PRIVATE-KEY-0xc0ffee\n"),
       "host key");
  Must(vfs.CreateFile("/var/log/syslog", 0640, kRootUid, kRootGid, ""), "syslog");
  // The at spool: group-writable by `daemon` so the setgid at(1) can queue
  // jobs without any root involvement (§3.1).
  Must(vfs.EnsureDirs("/var/spool/atjobs"), "at spool");
  {
    Vnode* spool = vfs.Resolve("/var/spool/atjobs").value();
    spool->inode().gid = 1;  // daemon
    spool->inode().mode = kIfDir | 0770;
  }
}

void SimSystem::BootstrapUsers() {
  Vfs& vfs = kernel_.vfs();
  // Group database: per-user primary groups plus the shared system groups.
  struct GroupSpec {
    const char* name;
    Gid gid;
    std::vector<std::string> members;  // first member is the group admin
    const char* password;              // newgrp password-protected groups
  };
  std::vector<GroupSpec> groups = {
      {"root", 0, {}, ""},
      {"alice", 1000, {}, ""},
      {"bob", 1001, {}, ""},
      {"charlie", 1002, {}, ""},
      {"exim", 101, {}, ""},
      {"www-data", 33, {}, ""},
      {"daemon", 1, {}, ""},
      {"mail", kMailGid, {"exim"}, ""},
      {"staff", 50, {"alice"}, "staffpw"},  // password-protected (newgrp)
      {"admin", 115, {"alice"}, ""},
  };

  std::vector<PasswdEntry> passwd;
  std::vector<ShadowEntry> shadow;
  std::vector<GroupEntry> group_entries;

  for (const SimUser& u : users_) {
    PasswdEntry p;
    p.name = u.name;
    p.uid = u.uid;
    p.gid = u.gid;
    p.gecos = u.name;
    p.home = u.uid == 0 ? "/root" : "/home/" + u.name;
    p.shell = u.shell;
    passwd.push_back(p);

    ShadowEntry s;
    s.name = u.name;
    s.hash = u.password.empty() ? "!" : CryptPassword(u.password, MakeSalt(u.uid + 7));
    shadow.push_back(s);

    if (u.uid != 0) {
      Must(vfs.EnsureDirs(p.home), "home");
      vfs.Resolve(p.home).value()->inode().uid = u.uid;
      vfs.Resolve(p.home).value()->inode().gid = u.gid;
      // Mail spool: owner + group mail, group-writable so a deprivileged
      // mail server (group mail) can deliver.
      Must(vfs.CreateFile("/var/mail/" + u.name, 0660, u.uid, kMailGid, ""), "spool");
    }
  }
  for (const GroupSpec& g : groups) {
    GroupEntry e;
    e.name = g.name;
    e.gid = g.gid;
    e.members = g.members;
    e.password_hash = g.password[0] == '\0' ? "" : CryptPassword(g.password, MakeSalt(g.gid + 3));
    group_entries.push_back(e);
  }

  // Legacy shared databases (both modes need them; in Protego mode the
  // monitoring daemon keeps them in sync with the fragments).
  Must(vfs.CreateFile("/etc/passwd", 0644, kRootUid, kRootGid, SerializePasswd(passwd)),
       "/etc/passwd");
  Must(vfs.CreateFile("/etc/shadow", 0600, kRootUid, kRootGid, SerializeShadow(shadow)),
       "/etc/shadow");
  Must(vfs.CreateFile("/etc/group", 0644, kRootUid, kRootGid, SerializeGroup(group_entries)),
       "/etc/group");

  if (mode_ == SimMode::kProtego) {
    // Fragmented databases (§4.4): one record per file, owner-writable;
    // the directories are root-owned so users cannot add accounts.
    for (const char* dir : {"/etc/passwds", "/etc/shadows", "/etc/groups"}) {
      Must(vfs.CreateDir(dir, 0755, kRootUid, kRootGid), dir);
    }
    for (const PasswdEntry& p : passwd) {
      Must(vfs.CreateFile("/etc/passwds/" + p.name, 0644, p.uid, p.gid, p.ToLine() + "\n"),
           "passwd fragment");
    }
    for (const ShadowEntry& s : shadow) {
      Uid owner = 0;
      for (const PasswdEntry& p : passwd) {
        if (p.name == s.name) {
          owner = p.uid;
        }
      }
      Must(vfs.CreateFile("/etc/shadows/" + s.name, 0600, owner, owner, s.ToLine() + "\n"),
           "shadow fragment");
    }
    for (const GroupEntry& g : group_entries) {
      // The fragment is owned by the group administrator (first member).
      Uid admin = kRootUid;
      if (!g.members.empty()) {
        for (const PasswdEntry& p : passwd) {
          if (p.name == g.members[0]) {
            admin = p.uid;
          }
        }
      }
      Must(vfs.CreateFile("/etc/groups/" + g.name, 0644, admin, g.gid, g.ToLine() + "\n"),
           "group fragment");
    }
  }
}

void SimSystem::BootstrapConfigs() {
  Vfs& vfs = kernel_.vfs();
  // /etc/fstab: the administrator permits users to mount the CD-ROM and
  // the USB stick; /mnt/backup is root-only.
  Must(vfs.CreateFile("/etc/fstab", 0644, kRootUid, kRootGid,
                      "/dev/sda1 / ext4 defaults\n"
                      "/dev/cdrom /media/cdrom iso9660 ro,user\n"
                      "/dev/sdb1 /media/usb vfat rw,users\n"
                      "/dev/sda2 /mnt/backup ext4 rw\n"
                      "fuse /home/*/mnt fuse rw,user\n"),
       "/etc/fstab");

  // /etc/sudoers: the system delegation policy. The Protego extension
  // rules live in sudoers.d fragments.
  Must(vfs.CreateFile("/etc/sudoers", 0440, kRootUid, kRootGid,
                      "Defaults timestamp_timeout=5\n"
                      "Defaults env_keep=\"PATH TERM HOME USER LANG\"\n"
                      "%admin ALL=(ALL) ALL\n"
                      "bob ALL=(alice) /usr/bin/lpr /home/alice/*\n"
                      "charlie ALL=(root) NOPASSWD: /usr/bin/id\n"),
       "/etc/sudoers");
  // su/login semantics and the policies explicated from other setuid
  // binaries (§4.3: "policies currently encoded in setuid binaries are
  // explicated in additional /etc/sudoers rules").
  Must(vfs.CreateFile("/etc/sudoers.d/protego", 0440, kRootUid, kRootGid,
                      "# su/login: anyone may become a user whose password they know\n"
                      "ALL ALL=(ALL) TARGETPW: ALL\n"
                      "# newgrp: password-protected groups\n"
                      "Group_Auth staff\n"
                      "# ssh-keysign may read the host key without privilege\n"
                      "File_Delegate /usr/lib/ssh-keysign /etc/ssh/ssh_host_key r\n"
                      "# trusted services read shadow fragments\n"
                      "File_Delegate /sbin/protego-auth /etc/shadows/* r\n"
                      "File_Delegate /sbin/protego-auth /etc/groups/* r\n"
                      "File_Delegate /sbin/protego-monitord /etc/shadows/* r\n"
                      "# reading a shadow fragment requires fresh authentication\n"
                      "Reauth_Read /etc/shadows/*\n"),
       "sudoers.d/protego");

  // /etc/bind (§4.1.3): SMTP belongs to exim, HTTP to www-data.
  Must(vfs.CreateFile("/etc/bind", 0644, kRootUid, kRootGid,
                      StrFormat("25 /usr/sbin/eximd %u\n80 /usr/sbin/httpd %u\n", kEximUid,
                                kWwwDataUid)),
       "/etc/bind");

  // /etc/ppp/options (§4.1.2).
  Must(vfs.CreateFile("/etc/ppp/options", 0644, kRootUid, kRootGid,
                      "userroutes\nuserdialout\n"),
       "ppp options");
}

void SimSystem::BootstrapDevices() {
  Vfs& vfs = kernel_.vfs();
  Must(vfs.CreateFile("/dev/null", 0666, kRootUid, kRootGid, ""), "/dev/null");
  Must(vfs.CreateDevice("/dev/sda1", 0660, kRootUid, kRootGid, true, 8, 1), "/dev/sda1");
  Must(vfs.CreateDevice("/dev/sda2", 0660, kRootUid, kRootGid, true, 8, 2), "/dev/sda2");
  Must(vfs.CreateDevice("/dev/sda3", 0660, kRootUid, kRootGid, true, 8, 3), "/dev/sda3");
  Must(vfs.CreateDevice("/dev/cdrom", 0660, kRootUid, kRootGid, true, 11, 0), "/dev/cdrom");
  Must(vfs.CreateDevice("/dev/sdb1", 0660, kRootUid, kRootGid, true, 8, 17), "/dev/sdb1");
  // §4.1.2: Protego makes /dev/ppp more permissive, replacing a capability
  // check with device-file permissions.
  Must(vfs.CreateDevice("/dev/ppp", mode_ == SimMode::kProtego ? 0666 : 0600, kRootUid,
                        kRootGid, false, 108, 0),
       "/dev/ppp");

  // Filesystem images for mountable media.
  kernel_.RegisterFsType("iso9660", [](const std::string& source) -> Result<MountPopulator> {
    if (source != "/dev/cdrom") {
      return Error(Errno::kENODEV, source);
    }
    return MountPopulator([](Vnode* root) {
      Inode readme;
      readme.mode = kIfReg | 0444;
      readme.data = "CD-ROM contents: protego-install-media\n";
      (void)root->AddChild("README", std::move(readme));
    });
  });
  kernel_.RegisterFsType("vfat", [](const std::string& source) -> Result<MountPopulator> {
    if (source != "/dev/sdb1") {
      return Error(Errno::kENODEV, source);
    }
    return MountPopulator([](Vnode* root) {
      Inode photo;
      photo.mode = kIfReg | 0666;
      photo.data = "JFIF photo.jpg\n";
      (void)root->AddChild("photo.jpg", std::move(photo));
    });
  });
  kernel_.RegisterFsType("ext4", [](const std::string& source) -> Result<MountPopulator> {
    (void)source;
    return MountPopulator(nullptr);
  });
  kernel_.RegisterFsType("tmpfs", [](const std::string& source) -> Result<MountPopulator> {
    (void)source;
    return MountPopulator(nullptr);
  });
  kernel_.RegisterFsType("fuse", [](const std::string& source) -> Result<MountPopulator> {
    (void)source;
    return MountPopulator([](Vnode* root) {
      Inode hello;
      hello.mode = kIfReg | 0644;
      hello.data = "fuse says hello\n";
      (void)root->AddChild("hello", std::move(hello));
    });
  });
  kernel_.RegisterFsType("nfs", [](const std::string& source) -> Result<MountPopulator> {
    (void)source;
    return MountPopulator(nullptr);
  });

  // PPP driver (char 108:0): unit allocation, session options, connect.
  ProtegoLsm* lsm = lsm_;
  Kernel* kernel = &kernel_;
  kernel_.RegisterIoctlHandler(108, 0, [kernel, lsm](Task& task, uint32_t request,
                                                     const std::string& arg,
                                                     HookVerdict verdict) -> Result<std::string> {
    bool admin = kernel->Capable(task, Capability::kNetAdmin);
    if (!admin && verdict != HookVerdict::kAllow) {
      return Error(Errno::kEPERM, "ppp configuration requires CAP_NET_ADMIN");
    }
    switch (request) {
      case kPppIocNewUnit: {
        PppChannel& chan = kernel->net().NewPppUnit();
        chan.configured_by = task.cred.ruid;
        return StrFormat("unit=%d", chan.unit);
      }
      case kPppIocSFlags:
      case kPppIocSCompress: {
        auto fields = SplitWhitespace(arg);
        if (fields.size() < 2) {
          return Error(Errno::kEINVAL, "expected: <unit> <option>");
        }
        auto unit = ParseUint(fields[0]);
        PppChannel* chan = unit ? kernel->net().FindPppUnit(static_cast<int>(*unit)) : nullptr;
        if (chan == nullptr) {
          return Error(Errno::kENXIO, "no such ppp unit");
        }
        if (chan->in_use && chan->configured_by != task.cred.ruid && !admin) {
          return Error(Errno::kEBUSY, "ppp unit in use");
        }
        // Unprivileged callers may only set safe session options (§4.1.2).
        if (!admin) {
          // ppp_options() returns a copy of the current policy snapshot's
          // table (RCU accessors are by-value); default options when no LSM.
          PppOptions options;
          if (lsm != nullptr) {
            options = lsm->ppp_options();
          }
          if (!options.IsSafeOption(fields[1])) {
            return Error(Errno::kEPERM, "option '" + fields[1] + "' is privileged");
          }
        }
        chan->configured = true;
        if (fields[1] == "bsdcomp" || fields[1] == "deflate") {
          chan->compression = true;
        }
        return std::string("ok");
      }
      case kPppIocConnect: {
        auto fields = SplitWhitespace(arg);
        if (fields.size() != 3) {
          return Error(Errno::kEINVAL, "expected: <unit> <local> <remote>");
        }
        auto unit = ParseUint(fields[0]);
        PppChannel* chan = unit ? kernel->net().FindPppUnit(static_cast<int>(*unit)) : nullptr;
        if (chan == nullptr) {
          return Error(Errno::kENXIO, "no such ppp unit");
        }
        auto local = ParseIpv4(fields[1]);
        auto remote = ParseIpv4(fields[2]);
        if (!local || !remote) {
          return Error(Errno::kEINVAL, "bad address");
        }
        chan->local_ip = *local;
        chan->remote_ip = *remote;
        chan->in_use = true;
        kernel->net().AddLocalAddress(*local);
        return std::string("connected");
      }
      default:
        return Error(Errno::kENOTTY);
    }
  });

  // Video control state (§4.5). Pre-KMS (Linux mode): a root-only file the
  // setuid X server writes directly. KMS (Protego mode): world-writable
  // because the KERNEL validates and context-switches video state.
  Must(vfs.EnsureDirs("/sys/video"), "/sys/video");
  if (mode_ == SimMode::kLinux) {
    Must(vfs.CreateFile("/sys/video/mode", 0600, kRootUid, kRootGid, "1024x768\n"),
         "video mode");
  } else {
    SyntheticOps kms_ops;
    auto mode_state = std::make_shared<std::string>("1024x768\n");
    kms_ops.read = [mode_state]() { return *mode_state; };
    kms_ops.write = [mode_state](std::string_view data) -> Result<Unit> {
      // KMS validates the requested mode; userspace cannot wedge the card.
      std::string_view body = Trim(data);
      size_t x = body.find('x');
      if (x == std::string_view::npos || !ParseUint(body.substr(0, x)) ||
          !ParseUint(body.substr(x + 1))) {
        return Error(Errno::kEINVAL, "bad video mode");
      }
      *mode_state = std::string(body) + "\n";
      return OkUnit();
    };
    Must(vfs.CreateSynthetic("/sys/video/mode", 0666, std::move(kms_ops)), "video mode");
  }

  // dm-crypt volume: dm-0 is an encrypted /dev/sda3.
  dmcrypt_ = std::make_shared<DmCryptTable>();
  dmcrypt_->AddVolume({"dm-0", "/dev/sda3", "deadbeefcafef00d"});
  Must(InstallDmCrypt(&kernel_, dmcrypt_), "dmcrypt");
}

void SimSystem::BootstrapNetwork() {
  Network& net = kernel_.net();
  net.AddLocalAddress(kSimLocalIp);
  Must(net.routes().Add(RouteEntry{MakeIp(10, 0, 0, 0), 24, 0, "eth0", kRootUid}), "lan route");
  Must(net.routes().Add(RouteEntry{MakeIp(93, 184, 216, 0), 24, kSimGatewayIp, "eth0",
                                   kRootUid}),
       "web route");

  RemoteHost gateway;
  gateway.ip = kSimGatewayIp;
  gateway.name = "gateway";
  gateway.hops_away = 1;
  gateway.udp_echo = {7};
  net.AddRemoteHost(gateway);

  RemoteHost mail_peer;
  mail_peer.ip = kSimMailPeerIp;
  mail_peer.name = "mail-peer";
  mail_peer.hops_away = 1;
  mail_peer.tcp_listening = {25};
  net.AddRemoteHost(mail_peer);

  RemoteHost web;
  web.ip = kSimWebServerIp;
  web.name = "example.com";
  web.hops_away = 4;
  web.tcp_listening = {80, 443};
  net.AddRemoteHost(web);
}

void SimSystem::BootstrapProcFiles() {
  Vfs& vfs = kernel_.vfs();
  Vfs* vfs_ptr = &vfs;
  SyntheticOps mounts_ops;
  mounts_ops.read = [vfs_ptr]() {
    std::string out;
    for (const auto& m : vfs_ptr->mounts()) {
      out += StrFormat("%s %s %s %s %u\n", m->source.c_str(), m->mountpoint.c_str(),
                       m->fstype.c_str(),
                       m->options.empty() ? "defaults" : Join(m->options, ",").c_str(),
                       m->mounter);
    }
    return out;
  };
  Must(vfs.CreateSynthetic("/proc/mounts", 0444, std::move(mounts_ops)), "/proc/mounts");

  Network* net = &kernel_.net();
  SyntheticOps route_ops;
  route_ops.read = [net]() {
    std::string out;
    for (const RouteEntry& e : net->routes().entries()) {
      out += StrFormat("%s/%d %s %s %u\n", IpToString(e.dst).c_str(), e.prefix_len,
                       IpToString(e.gateway).c_str(), e.dev.c_str(), e.added_by);
    }
    return out;
  };
  Must(vfs.CreateSynthetic("/proc/net/route", 0444, std::move(route_ops)), "/proc/net/route");
}

const SimUser* SimSystem::FindUser(const std::string& name) const {
  for (const SimUser& u : users_) {
    if (u.name == name) {
      return &u;
    }
  }
  return nullptr;
}

Task& SimSystem::Login(const std::string& user) {
  const SimUser* u = FindUser(user);
  if (u == nullptr) {
    LogError("SimSystem::Login: no such user " + user);
    abort();
  }
  terminals_.push_back(std::make_unique<Terminal>());
  Cred cred = Cred::ForUser(u->uid, u->gid);
  // Supplementary groups from the group database.
  auto group_file = kernel_.vfs().ReadFile("/etc/group");
  if (group_file.ok()) {
    auto groups = ParseGroup(group_file.value());
    if (groups.ok()) {
      for (const GroupEntry& g : groups.value()) {
        for (const std::string& m : g.members) {
          if (m == user) {
            cred.groups.push_back(g.gid);
          }
        }
      }
    }
  }
  Task& task = kernel_.CreateTask(user + "-shell", cred, terminals_.back().get());
  task.exe_path = "/bin/sh";
  task.cwd = u->uid == 0 ? "/root" : "/home/" + user;
  if (!kernel_.vfs().Resolve(task.cwd).ok()) {
    task.cwd = "/";
  }
  return task;
}

Result<int> SimSystem::Run(Task& session, const std::string& path, std::vector<std::string> argv,
                           std::map<std::string, std::string> env) {
  if (env.find("PATH") == env.end()) {
    env["PATH"] = "/usr/bin:/bin:/usr/sbin:/sbin";
  }
  if (argv.empty()) {
    argv.push_back(path);
  }
  return kernel_.Spawn(session, path, std::move(argv), std::move(env));
}

SimSystem::RunOutput SimSystem::RunCapture(Task& session, const std::string& path,
                                           std::vector<std::string> argv,
                                           std::map<std::string, std::string> env) {
  session.stdout_buf.clear();
  session.stderr_buf.clear();
  RunOutput out;
  auto code = Run(session, path, std::move(argv), std::move(env));
  if (code.ok()) {
    out.exit_code = code.value();
  } else {
    out.error = code.error().code();
  }
  out.out = session.stdout_buf;
  out.err = session.stderr_buf;
  return out;
}

}  // namespace protego
