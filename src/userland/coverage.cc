#include "src/userland/coverage.h"

#include <algorithm>

namespace protego {

Coverage& Coverage::Get() {
  static Coverage instance;
  return instance;
}

void Coverage::Declare(const std::string& binary, std::vector<std::string> blocks) {
  std::lock_guard<std::mutex> lk(mu_);
  PerBinary& pb = data_[binary];
  if (pb.declared.empty()) {
    pb.declared = std::move(blocks);
  }
}

void Coverage::Hit(const std::string& binary, const std::string& block) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = data_.find(binary);
  if (it == data_.end()) {
    return;
  }
  if (std::find(it->second.declared.begin(), it->second.declared.end(), block) !=
      it->second.declared.end()) {
    it->second.hit.insert(block);
  }
}

double Coverage::Percent(const std::string& binary) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = data_.find(binary);
  if (it == data_.end() || it->second.declared.empty()) {
    return 0.0;
  }
  return 100.0 * static_cast<double>(it->second.hit.size()) /
         static_cast<double>(it->second.declared.size());
}

std::vector<std::string> Coverage::MissedBlocks(const std::string& binary) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> missed;
  auto it = data_.find(binary);
  if (it == data_.end()) {
    return missed;
  }
  for (const std::string& b : it->second.declared) {
    if (it->second.hit.count(b) == 0) {
      missed.push_back(b);
    }
  }
  return missed;
}

std::vector<std::string> Coverage::Binaries() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> out;
  for (const auto& [name, pb] : data_) {
    out.push_back(name);
  }
  return out;
}

void Coverage::ResetHits() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [name, pb] : data_) {
    pb.hit.clear();
  }
}

}  // namespace protego
