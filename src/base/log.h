// Minimal logger: warnings and errors go to stderr. Security audit events
// (LSM denials, setuid transitions, policy reloads) do not pass through
// here; they go to the owning kernel's audit ring (Kernel::Audit).

#ifndef SRC_BASE_LOG_H_
#define SRC_BASE_LOG_H_

#include <string>

namespace protego {

void LogWarn(const std::string& message);
void LogError(const std::string& message);

}  // namespace protego

#endif  // SRC_BASE_LOG_H_
