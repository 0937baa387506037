#include "support/peak_rss.hpp"

#include <cstdio>
#include <cstring>

namespace drrg::support {

double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      std::sscanf(line + 6, "%llu", &kib);
      break;
    }
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

}  // namespace drrg::support
