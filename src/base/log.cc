#include "src/base/log.h"

#include <cstdio>

namespace protego {

void LogWarn(const std::string& message) { std::fprintf(stderr, "[WARN] %s\n", message.c_str()); }

void LogError(const std::string& message) {
  std::fprintf(stderr, "[ERROR] %s\n", message.c_str());
}

}  // namespace protego
