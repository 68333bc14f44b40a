#include "ookami/numa/numa.hpp"

#include <algorithm>

namespace ookami::numa {

int domain_of_thread(const perf::NumaTopology& topo, int thread) {
  // Compact binding: threads 0..cores_per_domain-1 on domain 0, etc.
  return std::min(thread / topo.cores_per_domain, topo.domains - 1);
}

PageMap::PageMap(perf::NumaTopology topo, Placement policy, std::size_t page_bytes)
    : topo_(topo), policy_(policy), page_bytes_(page_bytes) {}

int PageMap::domain_of_thread(int thread, int nthreads) const {
  (void)nthreads;
  return numa::domain_of_thread(topo_, thread);
}

void PageMap::touch(std::size_t addr, int thread, int nthreads) {
  const std::size_t page = addr / page_bytes_;
  if (page >= page_domain_.size()) page_domain_.resize(page + 1, -1);
  if (page_domain_[page] >= 0) return;  // already placed
  switch (policy_) {
    case Placement::kFirstTouch:
      page_domain_[page] = domain_of_thread(thread, nthreads);
      break;
    case Placement::kAllOnDomain0:
      page_domain_[page] = 0;
      break;
    case Placement::kInterleave:
      page_domain_[page] = static_cast<int>(interleave_next_++ % static_cast<std::size_t>(topo_.domains));
      break;
  }
}

int PageMap::domain_of(std::size_t addr) const {
  const std::size_t page = addr / page_bytes_;
  return page < page_domain_.size() ? page_domain_[page] : -1;
}

std::vector<std::size_t> PageMap::pages_per_domain() const {
  std::vector<std::size_t> count(static_cast<std::size_t>(topo_.domains), 0);
  for (int d : page_domain_) {
    if (d >= 0) ++count[static_cast<std::size_t>(d)];
  }
  return count;
}

StreamReport stream_triad(const perf::MachineModel& m, Placement policy, std::size_t n,
                          int threads) {
  PageMap pages(m.numa, policy, 65536);
  const std::size_t bytes_per_elem = 3 * sizeof(double);  // read b, c; write a
  const std::size_t array_bytes = n * sizeof(double);

  // Initialization phase: static chunks, each thread first-touches its
  // slice of all three arrays (array base addresses are page-disjoint).
  auto chunk = [&](int t) {
    const std::size_t per = n / static_cast<std::size_t>(threads);
    const std::size_t begin = per * static_cast<std::size_t>(t);
    const std::size_t end = t == threads - 1 ? n : begin + per;
    return std::pair{begin, end};
  };
  for (int arr = 0; arr < 3; ++arr) {
    const std::size_t base = static_cast<std::size_t>(arr) * (array_bytes + pages.page_bytes());
    for (int t = 0; t < threads; ++t) {
      const auto [b, e] = chunk(t);
      for (std::size_t addr = base + b * 8; addr < base + e * 8; addr += pages.page_bytes()) {
        pages.touch(addr, t, threads);
      }
      pages.touch(base + (e * 8 > 0 ? e * 8 - 1 : 0), t, threads);
    }
  }

  // Sweep phase: accumulate traffic per (controller) and per (link).
  const int domains = m.numa.domains;
  std::vector<double> controller_bytes(static_cast<std::size_t>(domains), 0.0);
  std::vector<double> link_bytes(static_cast<std::size_t>(domains), 0.0);  // remote traffic into d
  for (int arr = 0; arr < 3; ++arr) {
    const std::size_t base = static_cast<std::size_t>(arr) * (array_bytes + pages.page_bytes());
    for (int t = 0; t < threads; ++t) {
      const auto [b, e] = chunk(t);
      const int td = pages.domain_of_thread(t, threads);
      for (std::size_t i = b; i < e; i += pages.page_bytes() / 8) {
        const std::size_t span = std::min(pages.page_bytes() / 8, e - i);
        const int pd = pages.domain_of(base + i * 8);
        const double bytes = static_cast<double>(span) * bytes_per_elem / 3.0;
        controller_bytes[static_cast<std::size_t>(pd)] += bytes;
        if (pd != td) link_bytes[static_cast<std::size_t>(pd)] += bytes;
      }
    }
  }

  StreamReport rep;
  rep.domain_bytes.assign(controller_bytes.begin(), controller_bytes.end());
  double worst = 0.0;
  for (int d = 0; d < domains; ++d) {
    const double t_ctrl = controller_bytes[static_cast<std::size_t>(d)] / (m.numa.local_bw_gbs * 1e9);
    const double t_link = link_bytes[static_cast<std::size_t>(d)] / (m.numa.remote_bw_gbs * 1e9);
    worst = std::max({worst, t_ctrl, t_link});
  }
  // Single-thread runs cannot exceed one core's streaming bandwidth.
  const double total_bytes = static_cast<double>(n) * bytes_per_elem;
  if (threads == 1) worst = std::max(worst, total_bytes / (m.core_mem_bw_gbs * 1e9));
  rep.seconds = worst;
  rep.gbs = total_bytes / worst / 1e9;
  return rep;
}

}  // namespace ookami::numa
