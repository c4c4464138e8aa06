// traffic_sim — replay a synthetic many-user workload against the IP farm.
//
// The ROADMAP's north star is serving heavy traffic from very many users;
// this example is that scenario in miniature and doubles as a demo of every
// farm mechanism:
//
//   * a population of users with Zipf-flavoured popularity (a few hot
//     sessions dominate, a long tail churns), arriving in waves,
//   * mixed traffic: short CBC "messages", ECB key blobs, and the
//     occasional long CTR "download" that fans out across all cores,
//   * sessions that end mid-run (end_session), forcing the LRU tables to
//     evict and re-key,
//   * continuous verification: every wave picks a random in-flight request
//     and checks it bit-exactly against the software reference.
//
// Run:  ./build/examples/traffic_sim [users] [waves]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <random>
#include <vector>

#include "farm/farm.hpp"

namespace farm = aesip::farm;

namespace {

struct User {
  farm::Key128 key{};
  std::uint64_t requests = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n_users = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 200;
  const int n_waves = argc > 2 ? std::atoi(argv[2]) : 8;

  farm::FarmConfig cfg;
  cfg.workers = 4;
  cfg.max_sessions = 64;   // far fewer than users: the binding table must evict
  cfg.queue_capacity = 64;
  farm::Farm f(cfg);

  std::printf("traffic_sim: %zu users over %d waves, farm of %d cores "
              "(%zu-session table)\n\n",
              n_users, n_waves, cfg.workers, cfg.max_sessions);

  std::mt19937 rng(2026);
  std::vector<User> users(n_users);
  for (auto& u : users)
    for (auto& b : u.key) b = static_cast<std::uint8_t>(rng());

  std::uint64_t verified = 0, mismatches = 0, total_requests = 0;
  for (int wave = 0; wave < n_waves; ++wave) {
    // Each wave: a burst of requests, popularity-skewed toward low user ids
    // (min-of-three uniform draws ~ a crude Zipf).
    std::vector<std::future<farm::Result>> inflight;
    std::vector<farm::Request> audited;
    std::vector<std::size_t> audited_idx;
    const int burst = 150;
    for (int i = 0; i < burst; ++i) {
      const std::size_t uid = std::min({rng() % n_users, rng() % n_users, rng() % n_users});
      auto& user = users[uid];
      ++user.requests;

      farm::Request req;
      req.session_id = uid;
      req.key = user.key;
      for (auto& b : req.iv) b = static_cast<std::uint8_t>(rng());
      const unsigned kind = rng() % 10;
      if (kind == 0) {  // the rare long download: CTR, fans out
        req.mode = farm::Mode::kCtr;
        req.payload.resize(96 * 16 + rng() % 16);
      } else if (kind < 6) {  // short CBC message
        req.mode = farm::Mode::kCbc;
        req.encrypt = (rng() & 1) != 0;
        req.payload.resize((1 + rng() % 4) * 16);
      } else {  // ECB blob
        req.mode = farm::Mode::kEcb;
        req.encrypt = (rng() & 1) != 0;
        req.payload.resize((1 + rng() % 2) * 16);
      }
      for (auto& b : req.payload) b = static_cast<std::uint8_t>(rng());

      if (rng() % 25 == 0) {  // audit this one bit-exactly
        audited.push_back(req);
        audited_idx.push_back(inflight.size());
      }
      inflight.push_back(f.submit(std::move(req)));
      ++total_requests;
    }

    // A few users disconnect between waves.
    for (int d = 0; d < 5; ++d) f.end_session(rng() % n_users);

    std::vector<farm::Result> results;
    results.reserve(inflight.size());
    for (auto& fut : inflight) results.push_back(fut.get());
    for (std::size_t a = 0; a < audited.size(); ++a) {
      ++verified;
      if (results[audited_idx[a]].data != farm::reference(audited[a])) ++mismatches;
    }

    const auto st = f.stats();
    std::printf("wave %d: %3zu requests in flight, key hit rate %5.1f%%, "
                "%llu evictions, queue high water %zu\n",
                wave, inflight.size(), st.key_hit_rate() * 100.0,
                static_cast<unsigned long long>(st.session_evictions), st.queue_high_water);
  }

  const auto st = f.stats();
  std::printf("\n%s\n", st.report(cfg.clock_ns).c_str());
  std::printf("audited %llu of %llu requests against aes::Aes128: %s\n",
              static_cast<unsigned long long>(verified),
              static_cast<unsigned long long>(total_requests),
              mismatches ? "MISMATCH" : "all bit-exact");

  const auto hottest =
      std::max_element(users.begin(), users.end(),
                       [](const User& a, const User& b) { return a.requests < b.requests; });
  std::printf("hottest user issued %llu requests (skew is what makes the key-slot "
              "LRU pay off)\n",
              static_cast<unsigned long long>(hottest->requests));
  return mismatches ? 1 : 0;
}
