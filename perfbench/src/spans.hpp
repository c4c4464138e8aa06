// The benchmark's own spans: recorded around its calls into each layer and
// written out as one Chrome trace_event file when the run ends.
//
// A span is (name, start, end, session, seq, parent). Spans of one served
// frame share (session, seq), so a frame's client.submit, its frame.rtt
// and its verify span line up in the viewer; direct layer probes use
// session 0. Each recording thread owns one Track (no locks on the hot
// path); tracks are merged only at dump time, after every thread joined.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <ostream>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";  ///< static-duration string
  Clock::time_point start;
  Clock::time_point end;
  std::uint64_t session = 0;
  std::uint32_t seq = 0;
  const char* parent = "";  ///< the span that caused this one ("" for roots)
};

/// Single-producer span buffer, capped so a long run cannot grow unbounded.
class Track {
 public:
  explicit Track(std::size_t cap) : cap_(cap) {}
  void add(const Span& s) {
    if (spans_.size() < cap_) spans_.push_back(s);
    else ++dropped_;
  }
  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::size_t cap_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// Owns every Track of a run; hands one to each recording thread.
class SpanLog {
 public:
  explicit SpanLog(std::size_t per_track_cap) : cap_(per_track_cap) {}
  /// A fresh track; the reference stays valid for the SpanLog's life.
  Track& track() {
    std::lock_guard lk(mu_);
    return tracks_.emplace_back(cap_);
  }
  /// Chrome trace_event JSON ("X" events, microseconds since `epoch`),
  /// one tid per track; args carry session, seq and parent.
  void write_chrome_trace(std::ostream& os, Clock::time_point epoch) const;
  /// Per track, in tid order: spans kept and spans dropped at the cap.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> counts() const;

 private:
  std::size_t cap_;
  mutable std::mutex mu_;
  std::deque<Track> tracks_;  ///< deque: references survive emplace_back
};

}  // namespace perfbench
