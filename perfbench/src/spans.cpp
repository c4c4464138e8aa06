#include "spans.hpp"

namespace perfbench {

void SpanLog::write_chrome_trace(std::ostream& os, Clock::time_point epoch) const {
  std::lock_guard lk(mu_);
  const auto us = [epoch](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch).count();
  };
  os << "{\"traceEvents\":[";
  bool first = true;
  int tid = 0;
  for (const Track& t : tracks_) {
    for (const Span& s : t.spans()) {
      os << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid << ",\"ts\":" << us(s.start)
         << ",\"dur\":" << us(s.end) - us(s.start) << ",\"args\":{\"session\":" << s.session
         << ",\"seq\":" << s.seq << ",\"parent\":\"" << s.parent << "\"}}";
      first = false;
    }
    ++tid;
  }
  os << "\n],\"displayTimeUnit\":\"ns\"}\n";
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> SpanLog::counts() const {
  std::lock_guard lk(mu_);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> c;
  for (const Track& t : tracks_) c.emplace_back(t.spans().size(), t.dropped());
  return c;
}

}  // namespace perfbench
