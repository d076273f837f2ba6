#include "src/userland/delegation_utils.h"

#include "src/base/hash.h"
#include "src/base/strings.h"
#include "src/config/sudoers.h"
#include "src/userland/coverage.h"
#include "src/userland/util.h"

namespace protego {

namespace {

std::vector<std::string> Positionals(const ProcessContext& ctx) {
  std::vector<std::string> out;
  for (size_t i = 1; i < ctx.argv.size(); ++i) {
    if (!StartsWith(ctx.argv[i], "--")) {
      out.push_back(ctx.argv[i]);
    }
  }
  return out;
}

// --- Stock (setuid-root) policy machinery: what Protego deprivileges -----------

Result<SudoersPolicy> StockReadSudoers(ProcessContext& ctx) {
  ASSIGN_OR_RETURN(std::string main_content, ctx.kernel.ReadWholeFile(ctx.task, "/etc/sudoers"));
  std::vector<std::string> fragments;
  auto names = ctx.kernel.ReadDir(ctx.task, "/etc/sudoers.d");
  if (names.ok()) {
    for (const std::string& name : names.value()) {
      auto frag = ctx.kernel.ReadWholeFile(ctx.task, "/etc/sudoers.d/" + name);
      if (frag.ok()) {
        fragments.push_back(frag.take());
      }
    }
  }
  return ParseSudoersWithFragments(main_content, fragments);
}

bool StockSudoSubjectMatches(ProcessContext& ctx, const SudoRule& rule,
                             const std::string& user_name) {
  if (rule.user == "ALL" || rule.user == user_name) {
    return true;
  }
  if (!rule.user.empty() && rule.user[0] == '%') {
    auto group = LookupGroup(ctx, rule.user.substr(1));
    if (group.has_value()) {
      for (const std::string& m : group->members) {
        if (m == user_name) {
          return true;
        }
      }
    }
  }
  return false;
}

// Stock password check against /etc/shadow (readable because euid == 0),
// honoring the sudo timestamp file.
bool StockAuthenticate(ProcessContext& ctx, const std::string& account_name,
                       uint64_t timeout_sec, bool use_timestamp) {
  uint64_t now = ctx.kernel.clock().Now();
  std::string ts_path = StrFormat("/var/run/sudo/%u", ctx.task.cred.ruid);
  if (use_timestamp) {
    auto ts = ctx.kernel.ReadWholeFile(ctx.task, ts_path);
    if (ts.ok()) {
      auto last = ParseUint(Trim(ts.value()));
      if (last && now - *last <= timeout_sec) {
        return true;
      }
    }
  }
  auto shadow = ctx.kernel.ReadWholeFile(ctx.task, "/etc/shadow");
  if (!shadow.ok()) {
    return false;
  }
  std::string hash;
  for (const std::string& line : Split(shadow.value(), '\n')) {
    auto f = Split(line, ':');
    if (f.size() >= 2 && f[0] == account_name) {
      hash = f[1];
      break;
    }
  }
  if (hash.empty() || hash[0] == '!') {
    return false;
  }
  for (int attempt = 0; attempt < 3; ++attempt) {
    ctx.Out("[sudo] password for " + account_name + ": ");
    auto password = ctx.ReadLine();
    if (!password.has_value()) {
      return false;
    }
    if (VerifyPassword(*password, hash)) {
      if (use_timestamp) {
        (void)ctx.kernel.WriteWholeFile(ctx.task, ts_path, StrFormat("%llu",
                                        (unsigned long long)now), false, 0600);
      }
      return true;
    }
    ctx.Out("Sorry, try again.\n");
  }
  return false;
}

void SanitizeEnv(std::map<std::string, std::string>* env,
                 const std::vector<std::string>& keep) {
  for (auto it = env->begin(); it != env->end();) {
    bool kept = false;
    for (const std::string& k : keep) {
      if (it->first == k) {
        kept = true;
        break;
      }
    }
    it = kept ? std::next(it) : env->erase(it);
  }
}

}  // namespace

std::string ResolveBinaryPath(ProcessContext& ctx, const std::string& name) {
  if (!name.empty() && name[0] == '/') {
    return name;
  }
  for (const char* dir : {"/usr/bin", "/bin", "/usr/sbin", "/sbin"}) {
    std::string candidate = std::string(dir) + "/" + name;
    if (ctx.kernel.Stat(ctx.task, candidate).ok()) {
      return candidate;
    }
  }
  return name;
}

void DeclareDelegationCoverage() {
  Coverage::Get().Declare(
      "sudo", {"parse_args", "resolve_target", "resolve_command", "read_sudoers", "match_rule",
               "check_timestamp", "authenticate", "sanitize_env", "do_setuid", "do_exec",
               "report_ok", "err_usage", "err_no_user", "err_not_allowed", "err_auth",
               "err_exec", "exploit_env"});
  Coverage::Get().Declare("sudoedit", {"parse_args", "read_content", "delegate", "report_ok",
                                       "err_usage", "err_denied"});
  Coverage::Get().Declare("su", {"parse_args", "resolve_target", "authenticate", "do_setuid",
                                 "run_command", "report_ok", "err_no_user", "err_auth",
                                 "err_setuid"});
  Coverage::Get().Declare("newgrp", {"parse_args", "resolve_group", "member_check",
                                     "group_password", "do_setgid", "report_ok", "err_usage",
                                     "err_no_group", "err_denied"});
}

ProgramMain MakeSudoMain(bool protego_mode) {
  return [protego_mode](ProcessContext& ctx) -> int {
    Cov("sudo", "parse_args");
    std::vector<std::string> args = Positionals(ctx);
    if (args.empty()) {
      Cov("sudo", "err_usage");
      ctx.Err("usage: sudo [--user=<user>] command [args]\n");
      return 1;
    }

    // Environment handling — sudo's historically vulnerable surface
    // (CVE-2002-0184 prompt overflow, CVE-2009-0034 group matching, ...).
    if (ExploitTriggered(ctx, "CVE-2001-0279") || ExploitTriggered(ctx, "CVE-2002-0043") ||
        ExploitTriggered(ctx, "CVE-2002-0184") || ExploitTriggered(ctx, "CVE-2009-0034") ||
        ExploitTriggered(ctx, "CVE-2010-2956")) {
      Cov("sudo", "exploit_env");
      return ExploitPayload(ctx);
    }

    Cov("sudo", "resolve_target");
    std::string target_name = ctx.Flag("user").value_or("root");
    auto target = LookupUser(ctx, target_name);
    if (!target.has_value()) {
      Cov("sudo", "err_no_user");
      ctx.Err("sudo: unknown user: " + target_name + "\n");
      return 1;
    }
    Cov("sudo", "resolve_command");
    std::string command_path = ResolveBinaryPath(ctx, args[0]);
    std::vector<std::string> command_argv = args;
    command_argv[0] = command_path;
    std::string command_line = Join(command_argv, " ");

    if (!protego_mode) {
      // Stock sudo: the trusted binary IS the policy engine.
      if (ctx.task.cred.euid != kRootUid) {
        ctx.Err("sudo: must be setuid root\n");
        return 1;
      }
      Cov("sudo", "read_sudoers");
      auto invoker = LookupUserByUid(ctx, ctx.task.cred.ruid);
      auto policy = StockReadSudoers(ctx);
      if (!invoker.has_value() || !policy.ok()) {
        ctx.Err("sudo: cannot read policy\n");
        return 1;
      }
      Cov("sudo", "match_rule");
      // Prefer NOPASSWD grants, then invoker-password, then target-password.
      auto rule_score = [](const SudoRule& r) {
        return r.nopasswd ? 3 : (r.targetpw ? 1 : 2);
      };
      const SudoRule* granted = nullptr;
      for (const SudoRule& rule : policy.value().rules) {
        if (StockSudoSubjectMatches(ctx, rule, invoker->name) &&
            rule.RunasMatches(target->name) && rule.CommandMatches(command_line) &&
            (granted == nullptr || rule_score(rule) > rule_score(*granted))) {
          granted = &rule;
        }
      }
      if (granted == nullptr) {
        Cov("sudo", "err_not_allowed");
        ctx.Err(StrFormat("sudo: %s is not allowed to run '%s' as %s\n",
                          invoker->name.c_str(), command_line.c_str(), target->name.c_str()));
        return 1;
      }
      if (!granted->nopasswd) {
        Cov("sudo", "check_timestamp");
        Cov("sudo", "authenticate");
        std::string account = granted->targetpw ? target->name : invoker->name;
        if (!StockAuthenticate(ctx, account, policy.value().timestamp_timeout_sec,
                               /*use_timestamp=*/!granted->targetpw)) {
          Cov("sudo", "err_auth");
          ctx.Err("sudo: authentication failure\n");
          return 1;
        }
      }
      Cov("sudo", "sanitize_env");
      std::map<std::string, std::string> env = ctx.env;
      SanitizeEnv(&env, policy.value().env_keep);
      Cov("sudo", "do_setuid");
      // Group first, then uid — dropping uid first would discard the
      // CAP_SETGID needed for the group switch ("Setuid Demystified").
      (void)ctx.kernel.Setgid(ctx.task, target->gid);
      auto s = ctx.kernel.Setuid(ctx.task, target->uid);
      if (!s.ok()) {
        ctx.Err("sudo: setuid: " + s.error().ToString() + "\n");
        return 1;
      }
      Cov("sudo", "do_exec");
      auto code = ctx.kernel.Spawn(ctx.task, command_path, command_argv, env);
      if (!code.ok()) {
        Cov("sudo", "err_exec");
        ctx.Err("sudo: " + command_path + ": " + code.error().ToString() + "\n");
        return 1;
      }
      Cov("sudo", "report_ok");
      return code.value();
    }

    // Protego sudo: request the transition; the kernel owns the policy.
    Cov("sudo", "do_setuid");
    auto s = ctx.kernel.Setuid(ctx.task, target->uid);
    if (!s.ok()) {
      Cov("sudo", "err_not_allowed");
      ctx.Err(StrFormat("sudo: you are not allowed to run commands as %s\n",
                        target->name.c_str()));
      return 1;
    }
    Cov("sudo", "do_exec");
    auto code = ctx.kernel.Spawn(ctx.task, command_path, command_argv, ctx.env);
    if (!code.ok()) {
      Cov("sudo", "err_exec");
      ctx.Err(StrFormat("sudo: %s: %s\n", command_line.c_str(),
                        code.error().ToString().c_str()));
      return 1;
    }
    Cov("sudo", "report_ok");
    return code.value();
  };
}

ProgramMain MakeSudoeditMain(bool protego_mode) {
  return [protego_mode](ProcessContext& ctx) -> int {
    Cov("sudoedit", "parse_args");
    std::vector<std::string> args = Positionals(ctx);
    if (args.empty()) {
      Cov("sudoedit", "err_usage");
      ctx.Err("usage: sudoedit <file>\n");
      return 1;
    }
    if (ExploitTriggered(ctx, "CVE-2004-1689")) {
      return ExploitPayload(ctx);
    }
    Cov("sudoedit", "read_content");
    auto content = ctx.ReadLine();
    if (!content.has_value()) {
      ctx.Err("sudoedit: no content provided\n");
      return 1;
    }
    // Editing as root is delegated through tee, so the sudoers command rule
    // is enforced on the actual write.
    Cov("sudoedit", "delegate");
    std::vector<std::string> argv = {"sudo", "--user=root", "/usr/bin/tee", args[0], *content};
    auto code = ctx.kernel.Spawn(ctx.task, protego_mode ? "/usr/bin/sudo" : "/usr/bin/sudo",
                                 argv, ctx.env);
    if (!code.ok() || code.value() != 0) {
      Cov("sudoedit", "err_denied");
      ctx.Err("sudoedit: editing " + args[0] + " denied\n");
      return 1;
    }
    Cov("sudoedit", "report_ok");
    ctx.Out("sudoedit: wrote " + args[0] + "\n");
    return 0;
  };
}

ProgramMain MakeSuMain(bool protego_mode) {
  return [protego_mode](ProcessContext& ctx) -> int {
    Cov("su", "parse_args");
    std::vector<std::string> args = Positionals(ctx);
    std::string target_name = args.empty() ? "root" : args[0];
    if (ExploitTriggered(ctx, "CVE-2000-0996") || ExploitTriggered(ctx, "CVE-2002-0816")) {
      return ExploitPayload(ctx);
    }
    Cov("su", "resolve_target");
    auto target = LookupUser(ctx, target_name);
    if (!target.has_value()) {
      Cov("su", "err_no_user");
      ctx.Err("su: user " + target_name + " does not exist\n");
      return 1;
    }

    if (!protego_mode) {
      if (ctx.task.cred.euid != kRootUid) {
        ctx.Err("su: must be setuid root\n");
        return 1;
      }
      // su asks for the TARGET user's password (unless invoked by root).
      if (ctx.task.cred.ruid != kRootUid) {
        Cov("su", "authenticate");
        if (!StockAuthenticate(ctx, target->name, 0, /*use_timestamp=*/false)) {
          Cov("su", "err_auth");
          ctx.Err("su: Authentication failure\n");
          return 1;
        }
      }
      (void)ctx.kernel.Setgid(ctx.task, target->gid);
    }

    Cov("su", "do_setuid");
    auto s = ctx.kernel.Setuid(ctx.task, target->uid);
    if (!s.ok()) {
      Cov("su", "err_setuid");
      ctx.Err("su: Authentication failure\n");
      return 1;
    }
    // Run the command — or the target's login shell — as the new identity.
    // (In Protego mode the transition may be deferred; it lands at this
    // exec, which is why su always execs.)
    Cov("su", "run_command");
    std::vector<std::string> argv;
    if (args.size() > 1) {
      argv.assign(args.begin() + 1, args.end());
      argv[0] = ResolveBinaryPath(ctx, argv[0]);
    } else {
      argv = {target->shell.empty() ? "/bin/sh" : target->shell};
    }
    auto code = ctx.kernel.Spawn(ctx.task, argv[0], argv, ctx.env);
    if (!code.ok()) {
      Cov("su", "err_setuid");
      ctx.Err("su: Authentication failure\n");
      return 1;
    }
    Cov("su", "report_ok");
    return code.value();
  };
}

ProgramMain MakeNewgrpMain(bool protego_mode) {
  return [protego_mode](ProcessContext& ctx) -> int {
    Cov("newgrp", "parse_args");
    std::vector<std::string> args = Positionals(ctx);
    if (args.empty()) {
      Cov("newgrp", "err_usage");
      ctx.Err("usage: newgrp <group>\n");
      return 1;
    }
    if (ExploitTriggered(ctx, "CVE-1999-0050") || ExploitTriggered(ctx, "CVE-2000-0730") ||
        ExploitTriggered(ctx, "CVE-2000-0755") || ExploitTriggered(ctx, "CVE-2001-0379") ||
        ExploitTriggered(ctx, "CVE-2004-1328") || ExploitTriggered(ctx, "CVE-2005-0816")) {
      return ExploitPayload(ctx);
    }
    Cov("newgrp", "resolve_group");
    auto group = LookupGroup(ctx, args[0]);
    if (!group.has_value()) {
      Cov("newgrp", "err_no_group");
      ctx.Err("newgrp: group '" + args[0] + "' does not exist\n");
      return 1;
    }

    if (!protego_mode) {
      if (ctx.task.cred.euid != kRootUid) {
        ctx.Err("newgrp: must be setuid root\n");
        return 1;
      }
      Cov("newgrp", "member_check");
      auto self = LookupUserByUid(ctx, ctx.task.cred.ruid);
      bool member = false;
      if (self.has_value()) {
        for (const std::string& m : group->members) {
          if (m == self->name) {
            member = true;
            break;
          }
        }
      }
      if (!member) {
        Cov("newgrp", "group_password");
        bool ok = false;
        if (!group->password_hash.empty() && group->password_hash[0] != '!') {
          for (int attempt = 0; attempt < 3 && !ok; ++attempt) {
            ctx.Out("Password: ");
            auto password = ctx.ReadLine();
            if (!password.has_value()) {
              break;
            }
            ok = VerifyPassword(*password, group->password_hash);
          }
        }
        if (!ok) {
          Cov("newgrp", "err_denied");
          ctx.Err("newgrp: Permission denied\n");
          (void)ctx.kernel.Setuid(ctx.task, ctx.task.cred.ruid);
          return 1;
        }
      }
      auto r = ctx.kernel.Setgid(ctx.task, group->gid);
      (void)ctx.kernel.Setuid(ctx.task, ctx.task.cred.ruid);
      if (!r.ok()) {
        ctx.Err("newgrp: " + r.error().ToString() + "\n");
        return 1;
      }
      Cov("newgrp", "do_setgid");
      Cov("newgrp", "report_ok");
      ctx.Out(StrFormat("newgrp: now gid=%u(%s)\n", ctx.task.cred.egid, group->name.c_str()));
      return 0;
    }

    Cov("newgrp", "do_setgid");
    auto r = ctx.kernel.Setgid(ctx.task, group->gid);
    if (!r.ok()) {
      Cov("newgrp", "err_denied");
      ctx.Err("newgrp: Permission denied\n");
      return 1;
    }
    Cov("newgrp", "report_ok");
    ctx.Out(StrFormat("newgrp: now gid=%u(%s)\n", ctx.task.cred.egid, group->name.c_str()));
    return 0;
  };
}

ProgramMain MakeLoginMain(bool protego_mode) {
  return [protego_mode](ProcessContext& ctx) -> int {
    std::vector<std::string> args = Positionals(ctx);
    if (args.empty()) {
      ctx.Err("usage: login <user>\n");
      return 1;
    }
    auto target = LookupUser(ctx, args[0]);
    if (!target.has_value()) {
      ctx.Err("login: unknown user\n");
      return 1;
    }
    if (!protego_mode) {
      if (ctx.task.cred.euid != kRootUid) {
        ctx.Err("login: must run as root\n");
        return 1;
      }
      if (!StockAuthenticate(ctx, target->name, 0, /*use_timestamp=*/false)) {
        ctx.Err("Login incorrect\n");
        return 1;
      }
      (void)ctx.kernel.Setgid(ctx.task, target->gid);
    }
    auto s = ctx.kernel.Setuid(ctx.task, target->uid);
    if (!s.ok()) {
      ctx.Err("Login incorrect\n");
      return 1;
    }
    // Start the session shell; a deferred Protego transition lands here.
    std::string shell = target->shell.empty() ? "/bin/sh" : target->shell;
    auto code = ctx.kernel.Spawn(ctx.task, shell, {shell}, ctx.env);
    if (!code.ok()) {
      ctx.Err("Login incorrect\n");
      return 1;
    }
    ctx.Out(StrFormat("Welcome %s\n", target->name.c_str()));
    return code.value();
  };
}

}  // namespace protego

namespace protego {

ProgramMain MakePkexecMain(bool protego_mode) {
  ProgramMain sudo_main = MakeSudoMain(protego_mode);
  return [sudo_main](ProcessContext& ctx) -> int {
    // PolicyKit's historical holes: argv handling (CVE-2011-1485 race,
    // CVE-2011-4945, dbus activation helper CVE-2012-3524).
    if (ExploitTriggered(ctx, "CVE-2011-1485") || ExploitTriggered(ctx, "CVE-2011-4945") ||
        ExploitTriggered(ctx, "CVE-2012-3524")) {
      return ExploitPayload(ctx);
    }
    std::vector<std::string> argv = {"sudo", "--user=root"};
    for (size_t i = 1; i < ctx.argv.size(); ++i) {
      argv.push_back(ctx.argv[i]);
    }
    ctx.argv = std::move(argv);
    return sudo_main(ctx);
  };
}

}  // namespace protego
