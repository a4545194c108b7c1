#include "common.hpp"

#include <sys/resource.h>

#include <fstream>
#include <stdexcept>

namespace perfbench {

double peak_rss_mb() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double process_cpu_s() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  const auto s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::error_code ec;
  const auto size = std::filesystem::file_size(p, ec);
  if (!in || ec) throw std::runtime_error("cannot read " + p.string());
  // One allocation of the final size: the serve WAL images are megabytes,
  // and a stream copy would hold them several times over at once.
  std::string s(static_cast<std::size_t>(size), '\0');
  if (!in.read(s.data(), static_cast<std::streamsize>(s.size()))) {
    throw std::runtime_error("cannot read " + p.string());
  }
  return s;
}

}  // namespace perfbench
