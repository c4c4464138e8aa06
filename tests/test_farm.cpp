// Farm correctness: everything the service layer returns must be
// byte-identical to the single-threaded software reference (aes::Aes128
// driving the same mode functions), under randomized sessions and payload
// shapes, out-of-order completion, CTR fan-out reassembly, and the
// queue-full load-shedding path. Labelled `farm` in CTest so the whole
// file can run under TSan (`ctest -L farm`, see docs/farm.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <future>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "aes/cipher.hpp"
#include "aes/modes.hpp"
#include "farm/farm.hpp"
#include "farm/queue.hpp"
#include "farm/session.hpp"

namespace aes = aesip::aes;
namespace engine = aesip::engine;
namespace farm = aesip::farm;

namespace {

farm::Key128 random_key128(std::mt19937& rng) {
  farm::Key128 k;
  for (auto& b : k) b = static_cast<std::uint8_t>(rng());
  return k;
}

std::vector<std::uint8_t> random_payload(std::mt19937& rng, std::size_t bytes) {
  std::vector<std::uint8_t> p(bytes);
  for (auto& b : p) b = static_cast<std::uint8_t>(rng());
  return p;
}

/// What the farm must produce, computed the boring way.
std::vector<std::uint8_t> oracle(const farm::Request& req) {
  const aes::Rijndael cipher = aes::Rijndael::for_key(req.key.view());
  const std::span<const std::uint8_t, 16> iv(req.iv.data(), 16);
  switch (req.mode) {
    case farm::Mode::kEcb:
      return req.encrypt ? aes::ecb_encrypt(cipher, req.payload)
                         : aes::ecb_decrypt(cipher, req.payload);
    case farm::Mode::kCbc:
      return req.encrypt ? aes::cbc_encrypt(cipher, iv, req.payload)
                         : aes::cbc_decrypt(cipher, iv, req.payload);
    case farm::Mode::kCtr:
      return aes::ctr_crypt(cipher, iv, req.payload);
  }
  return {};
}

farm::Request random_request(std::mt19937& rng, std::uint64_t session,
                             const farm::Key128& key) {
  farm::Request req;
  req.session_id = session;
  req.key = key;
  req.iv = random_key128(rng);
  req.mode = static_cast<farm::Mode>(rng() % 3);
  req.encrypt = (rng() & 1) != 0;
  const std::size_t blocks = 1 + rng() % 6;
  std::size_t bytes = blocks * 16;
  if (req.mode == farm::Mode::kCtr && (rng() & 1)) bytes += rng() % 16;  // ragged tail
  req.payload = random_payload(rng, bytes);
  return req;
}

}  // namespace

// --- BoundedQueue -----------------------------------------------------------------

TEST(BoundedQueue, FifoOrderAndHighWater) {
  farm::BoundedQueue<int> q(4);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_TRUE(q.push(3));
  EXPECT_EQ(q.high_water(), 3u);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
  EXPECT_EQ(q.high_water(), 3u);  // high water survives the drain
}

TEST(BoundedQueue, TryPushRefusesWhenFull) {
  farm::BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // full: shed, don't block
  EXPECT_EQ(q.pop(), 1);
  EXPECT_TRUE(q.try_push(3));
}

TEST(BoundedQueue, CloseDrainsThenEnds) {
  farm::BoundedQueue<int> q(4);
  q.push(7);
  q.close();
  EXPECT_FALSE(q.push(8));      // no new work after close
  EXPECT_FALSE(q.try_push(9));
  EXPECT_EQ(q.pop(), 7);        // but queued work still drains
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(BoundedQueue, PopAllTakesTheWholeBacklog) {
  farm::BoundedQueue<int> q(8);
  for (int i = 1; i <= 5; ++i) ASSERT_TRUE(q.push(i));
  std::vector<int> out{0};
  ASSERT_TRUE(q.pop_all(out));
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4, 5}));  // appended, in order
  EXPECT_EQ(q.size(), 0u);
  q.close();
  EXPECT_FALSE(q.pop_all(out));
}

TEST(BoundedQueue, MpmcConservesItems) {
  farm::BoundedQueue<int> q(8);
  constexpr int kProducers = 3, kConsumers = 3, kEach = 500;
  std::atomic<long> sum{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p)
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kEach; ++i) q.push(p * kEach + i);
    });
  for (int c = 0; c < kConsumers; ++c)
    threads.emplace_back([&q, &sum] {
      while (auto v = q.pop()) sum += *v;
    });
  for (int p = 0; p < kProducers; ++p) threads[static_cast<std::size_t>(p)].join();
  q.close();
  for (int c = kProducers; c < kProducers + kConsumers; ++c)
    threads[static_cast<std::size_t>(c)].join();
  const long n = kProducers * kEach;
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

// --- SessionTable -----------------------------------------------------------------

TEST(SessionTable, KeyAffinityRoutesToSameWorker) {
  farm::SessionTable table(4, 16);
  std::mt19937 rng(1);
  const auto key = random_key128(rng);
  const auto first = table.route(1, key);
  EXPECT_FALSE(first.key_hot);
  const auto second = table.route(1, key);
  EXPECT_TRUE(second.key_hot);
  EXPECT_EQ(second.worker, first.worker);
  // A different session with the *same* key also hits the hot slot.
  const auto third = table.route(2, key);
  EXPECT_TRUE(third.key_hot);
  EXPECT_EQ(third.worker, first.worker);
}

TEST(SessionTable, LruSlotEviction) {
  farm::SessionTable table(2, 16);
  std::mt19937 rng(2);
  const auto ka = random_key128(rng), kb = random_key128(rng), kc = random_key128(rng);
  const int wa = table.route(1, ka).worker;
  const int wb = table.route(2, kb).worker;
  EXPECT_NE(wa, wb);  // two keys spread over two slots
  table.route(2, kb);  // touch b: a becomes LRU
  const auto rc = table.route(3, kc);
  EXPECT_FALSE(rc.key_hot);
  EXPECT_EQ(rc.worker, wa);  // c evicted the LRU slot (a's)
  // a's key is gone from its slot: next a request re-keys somewhere.
  EXPECT_FALSE(table.route(1, ka).key_hot);
}

TEST(SessionTable, SessionCapacityEvicts) {
  farm::SessionTable table(2, 2);
  std::mt19937 rng(3);
  for (std::uint64_t s = 0; s < 5; ++s) table.route(s, random_key128(rng));
  const auto c = table.counters();
  EXPECT_EQ(c.sessions_live, 2u);
  EXPECT_EQ(c.session_evictions, 3u);
}

// --- Farm vs reference ------------------------------------------------------------

TEST(Farm, MatchesReferenceAcrossModesDirectionsAndSessions) {
  farm::FarmConfig cfg;
  cfg.workers = 3;
  cfg.max_sessions = 8;
  farm::Farm f(cfg);

  std::mt19937 rng(42);
  constexpr int kSessions = 6;
  std::vector<farm::Key128> keys;
  for (int s = 0; s < kSessions; ++s) keys.push_back(random_key128(rng));

  // Build all requests (and expectations) first, then submit the whole burst
  // so completions genuinely interleave across workers.
  std::vector<farm::Request> reqs;
  std::vector<std::vector<std::uint8_t>> expect;
  for (int i = 0; i < 60; ++i) {
    const std::uint64_t session = rng() % kSessions;
    reqs.push_back(random_request(rng, session, keys[session]));
    expect.push_back(oracle(reqs.back()));
  }
  std::vector<std::future<farm::Result>> futures;
  for (auto& r : reqs) futures.push_back(f.submit(r));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const auto res = futures[i].get();
    EXPECT_EQ(res.data, expect[i]) << "request " << i << " mode "
                                   << farm::mode_name(reqs[i].mode)
                                   << (reqs[i].encrypt ? " enc" : " dec");
  }

  const auto st = f.stats();
  EXPECT_EQ(st.requests, reqs.size());
  EXPECT_GT(st.key_hits, 0u);  // six sessions over three cores must re-hit keys
  EXPECT_EQ(st.rejected, 0u);
  EXPECT_LE(st.queue_high_water, cfg.queue_capacity);
}

// One farm, three geometries: sessions carry 16/24/32-byte keys and every
// job runs on a matching-geometry engine (cycle engines build sibling
// engines lazily per key size), bit-exact against the per-size oracle.
TEST(Farm, MixedKeySizesMatchPerGeometryOracle) {
  for (const auto kind :
       {engine::EngineKind::kSoftware, engine::EngineKind::kBehavioral}) {
    farm::FarmConfig cfg;
    cfg.workers = 2;
    cfg.engine = kind;
    farm::Farm f(cfg);

    std::mt19937 rng(17);
    std::vector<farm::Request> reqs;
    std::vector<std::vector<std::uint8_t>> expect;
    for (int i = 0; i < 18; ++i) {
      const int bits = 128 + 64 * (i % 3);
      std::array<std::uint8_t, 32> raw{};
      for (auto& b : raw) b = static_cast<std::uint8_t>(rng());
      farm::Request req;
      req.session_id = static_cast<std::uint64_t>(i % 6);
      req.key = *farm::KeyBytes::from(
          std::span(raw).first(static_cast<std::size_t>(bits / 8)));
      EXPECT_EQ(req.key.bits(), bits);
      for (auto& b : req.iv) b = static_cast<std::uint8_t>(rng());
      req.mode = static_cast<farm::Mode>(i % 3);
      req.encrypt = (i % 2) == 0;
      req.payload.resize(req.mode == farm::Mode::kCtr ? 37 : 48);
      for (auto& b : req.payload) b = static_cast<std::uint8_t>(rng());
      expect.push_back(oracle(req));
      reqs.push_back(std::move(req));
    }
    std::vector<std::future<farm::Result>> futures;
    for (auto& r : reqs) futures.push_back(f.submit(r));
    for (std::size_t i = 0; i < futures.size(); ++i)
      EXPECT_EQ(futures[i].get().data, expect[i])
          << engine::kind_name(kind) << " request " << i << " ("
          << reqs[i].key.bits() << "-bit)";
    EXPECT_EQ(f.stats().requests, reqs.size());
  }
}

// KeyBytes itself: length-aware equality and the validating constructor.
TEST(Farm, KeyBytesLengthSemantics) {
  std::array<std::uint8_t, 16> a16{};
  std::array<std::uint8_t, 24> a24{};
  std::array<std::uint8_t, 32> a32{};
  const farm::KeyBytes k16 = a16, k24 = a24, k32 = a32;
  EXPECT_EQ(k16.bits(), 128);
  EXPECT_EQ(k24.bits(), 192);
  EXPECT_EQ(k32.bits(), 256);
  // Same bytes, different lengths: distinct keys (a session table slot
  // holding the zero AES-128 key must not hit for the zero AES-192 key).
  EXPECT_FALSE(k16 == k24);
  EXPECT_FALSE(k24 == k32);
  EXPECT_TRUE(k16 == farm::KeyBytes(a16));
  EXPECT_EQ(k24.view().size(), 24u);
  EXPECT_FALSE(farm::KeyBytes::from(std::vector<std::uint8_t>(20)).has_value());
  EXPECT_FALSE(farm::KeyBytes::from(std::vector<std::uint8_t>(0)).has_value());
  EXPECT_TRUE(farm::KeyBytes::from(std::vector<std::uint8_t>(24)).has_value());
}

TEST(Farm, CtrFanoutIsBitExactIncludingRaggedTail) {
  farm::FarmConfig cfg;
  cfg.workers = 4;
  cfg.ctr_chunk_blocks = 4;
  cfg.ctr_fanout_min_blocks = 8;
  farm::Farm f(cfg);

  std::mt19937 rng(7);
  farm::Request req;
  req.session_id = 1;
  req.mode = farm::Mode::kCtr;
  req.key = random_key128(rng);
  req.iv = random_key128(rng);
  req.payload = random_payload(rng, 40 * 16 + 11);  // 41 blocks, ragged tail
  const auto expect = oracle(req);

  const auto res = f.process(req);
  EXPECT_EQ(res.data, expect);
  EXPECT_GT(res.chunks, 1u);
  EXPECT_EQ(res.worker, -1);

  const auto st = f.stats();
  EXPECT_EQ(st.ctr_fanouts, 1u);
  EXPECT_EQ(st.ctr_chunks, 11u);  // ceil(41 / 4)
}

TEST(Farm, CtrFanoutCrossesCounterCarryBoundary) {
  // Initial counter 0x...FFFE: chunk seeds must carry into high bytes.
  farm::FarmConfig cfg;
  cfg.workers = 3;
  cfg.ctr_chunk_blocks = 2;
  cfg.ctr_fanout_min_blocks = 4;
  farm::Farm f(cfg);

  std::mt19937 rng(8);
  farm::Request req;
  req.mode = farm::Mode::kCtr;
  req.key = random_key128(rng);
  req.iv.fill(0xff);
  req.iv[15] = 0xfe;
  req.payload = random_payload(rng, 12 * 16);
  EXPECT_EQ(f.process(req).data, oracle(req));
}

TEST(Farm, OutOfOrderCompletionStaysConsistent) {
  // One huge CBC job pins a worker while small jobs on other sessions race
  // past it; every future must still resolve to its own request's bytes.
  farm::FarmConfig cfg;
  cfg.workers = 2;
  farm::Farm f(cfg);

  std::mt19937 rng(21);
  farm::Request big;
  big.session_id = 100;
  big.mode = farm::Mode::kCbc;
  big.key = random_key128(rng);
  big.iv = random_key128(rng);
  big.payload = random_payload(rng, 200 * 16);
  const auto big_expect = oracle(big);
  auto big_future = f.submit(big);

  std::vector<farm::Request> small;
  std::vector<std::vector<std::uint8_t>> small_expect;
  std::vector<std::future<farm::Result>> small_futures;
  for (int i = 0; i < 12; ++i) {
    // Distinct keys force the scheduler to spread over both workers.
    const auto key = random_key128(rng);
    small.push_back(random_request(rng, 200 + static_cast<std::uint64_t>(i), key));
    small_expect.push_back(oracle(small.back()));
    small_futures.push_back(f.submit(small.back()));
  }
  for (std::size_t i = 0; i < small_futures.size(); ++i)
    EXPECT_EQ(small_futures[i].get().data, small_expect[i]) << "small request " << i;
  EXPECT_EQ(big_future.get().data, big_expect);
}

TEST(Farm, BackpressureShedsAndAcceptedWorkCompletes) {
  farm::FarmConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 2;
  farm::Farm f(cfg);

  std::mt19937 rng(5);
  const auto key = random_key128(rng);
  std::vector<std::vector<std::uint8_t>> expect;
  std::vector<std::future<farm::Result>> accepted;
  std::uint64_t rejected = 0;
  for (int i = 0; i < 40; ++i) {
    farm::Request req;
    req.session_id = 1;
    req.mode = farm::Mode::kCbc;
    req.key = key;
    req.iv = random_key128(rng);
    req.payload = random_payload(rng, 64 * 16);  // slow enough to outpace submission
    auto exp = oracle(req);
    if (auto fut = f.try_submit(std::move(req))) {
      accepted.push_back(std::move(*fut));
      expect.push_back(std::move(exp));
    } else {
      ++rejected;
    }
  }
  ASSERT_GT(rejected, 0u) << "queue of 2 absorbed 40 back-to-back requests";
  ASSERT_FALSE(accepted.empty());
  for (std::size_t i = 0; i < accepted.size(); ++i)
    EXPECT_EQ(accepted[i].get().data, expect[i]);
  const auto st = f.stats();
  EXPECT_EQ(st.rejected, rejected);
  EXPECT_EQ(st.requests, accepted.size());
}

TEST(Farm, KeyAffinitySkipsSetupCycles) {
  farm::FarmConfig cfg;
  cfg.workers = 2;
  farm::Farm f(cfg);

  std::mt19937 rng(11);
  const auto ka = random_key128(rng), kb = random_key128(rng);
  const auto mk_req = [&](std::uint64_t session, const farm::Key128& key) {
    farm::Request req;
    req.session_id = session;
    req.mode = farm::Mode::kEcb;
    req.key = key;
    req.payload = random_payload(rng, 16);
    return req;
  };

  EXPECT_FALSE(f.process(mk_req(1, ka)).key_was_hot);  // cold: bus write + setup
  EXPECT_FALSE(f.process(mk_req(2, kb)).key_was_hot);
  std::uint64_t hot_setup = 0;
  for (int i = 0; i < 10; ++i) {
    const auto ra = f.process(mk_req(1, ka));
    const auto rb = f.process(mk_req(2, kb));
    EXPECT_TRUE(ra.key_was_hot) << i;
    EXPECT_TRUE(rb.key_was_hot) << i;
    hot_setup += ra.setup_cycles + rb.setup_cycles;
  }
  EXPECT_EQ(hot_setup, 0u);  // reuse is free — the point of the affinity table
  const auto st = f.stats();
  EXPECT_EQ(st.key_loads, 2u);
  EXPECT_EQ(st.key_hits, 20u);
}

TEST(Farm, RejectsPartialBlocksForEcbAndCbc) {
  farm::Farm f(farm::FarmConfig{.workers = 1});
  farm::Request req;
  req.mode = farm::Mode::kEcb;
  req.payload.assign(17, 0);
  EXPECT_THROW(f.submit(req), std::invalid_argument);
  req.mode = farm::Mode::kCbc;
  EXPECT_THROW((void)f.try_submit(req), std::invalid_argument);
  req.mode = farm::Mode::kCtr;  // CTR takes any length
  EXPECT_EQ(f.process(req).data.size(), 17u);
}

TEST(Farm, EmptyPayloadCompletes) {
  farm::Farm f(farm::FarmConfig{.workers = 1});
  farm::Request req;
  req.mode = farm::Mode::kEcb;
  const auto res = f.process(req);
  EXPECT_TRUE(res.data.empty());
  EXPECT_EQ(res.cycles, 0u);  // answered at once: no engine work
  EXPECT_EQ(res.setup_cycles, 0u);
  EXPECT_EQ(f.stats().requests, 1u);
}

TEST(Farm, EngineKindsProduceIdenticalResults) {
  // The same burst through a farm of each CipherEngine kind — software,
  // behavioral RTL and the synthesized gate netlist — must be
  // byte-identical to the reference and to each other. The netlist
  // workers simulate the full gate network, so the workload is small;
  // this is the concurrency face of tests/test_engine_conformance.cpp.
  std::mt19937 rng(1234);
  const auto key = random_key128(rng);
  std::vector<farm::Request> reqs;
  std::vector<std::vector<std::uint8_t>> expect;
  for (int i = 0; i < 6; ++i) {
    farm::Request req;
    req.session_id = static_cast<std::uint64_t>(i % 2);
    req.key = key;
    req.iv = random_key128(rng);
    req.mode = static_cast<farm::Mode>(i % 3);
    req.encrypt = (i & 1) != 0 || req.mode == farm::Mode::kCtr;
    req.payload = random_payload(rng, 16);
    reqs.push_back(req);
    expect.push_back(oracle(req));
  }

  for (const auto kind :
       {aesip::engine::EngineKind::kSoftware, aesip::engine::EngineKind::kBehavioral,
        aesip::engine::EngineKind::kNetlist}) {
    farm::FarmConfig cfg;
    cfg.workers = 2;
    cfg.engine = kind;
    farm::Farm f(cfg);
    std::vector<std::future<farm::Result>> futures;
    for (auto& r : reqs) futures.push_back(f.submit(r));
    for (std::size_t i = 0; i < futures.size(); ++i) {
      EXPECT_EQ(futures[i].get().data, expect[i])
          << "engine " << aesip::engine::kind_name(kind) << " request " << i;
    }
    const auto st = f.stats();
    EXPECT_EQ(st.engine, aesip::engine::kind_name(kind));
    EXPECT_EQ(st.requests, reqs.size());
    EXPECT_EQ(st.rejected, 0u);
  }
}

// --- lane packing on netlist workers ----------------------------------------------

namespace {

std::vector<std::uint8_t> random_key_bytes(std::mt19937& rng, int bits) {
  return random_payload(rng, static_cast<std::size_t>(bits / 8));
}

/// Test control over GatedEngine: the first keyed pass of every engine
/// waits until `open` is set, so everything submitted meanwhile lands in
/// one drain; keyed call number `corrupt_call` (farm-wide, 0-based) gets
/// one bit of every output block flipped.  `one_lane` makes the engines
/// report batch_lanes() == 1; every keyed call is logged.
struct PassControl {
  struct Call {
    std::vector<std::uint8_t> key;
    bool encrypt;
    std::size_t blocks;
    bool operator==(const Call&) const = default;
  };
  PassControl() {
    for (const int bits : {128, 192, 256})
      netlists[bits] = engine::make_ip_netlist(aesip::core::IpMode::kBoth, bits);
  }
  std::map<int, std::shared_ptr<const aesip::netlist::Netlist>> netlists;
  std::promise<void> open;
  std::shared_future<void> opened = open.get_future().share();
  std::atomic<int> calls{0};
  int corrupt_call = -1;
  bool one_lane = false;
  std::mutex mu;
  std::vector<Call> log;
  /// Every engine built, with its cycles() when it was built.
  std::vector<std::pair<const engine::CipherEngine*, std::uint64_t>> engines;
};

/// Netlist engines of every key size behind the test's PassControl.
class GatedEngine final : public engine::CipherEngine {
 public:
  explicit GatedEngine(PassControl& pc) : pc_(pc), cur_(&inner(128)) {
    std::lock_guard lk(pc.mu);
    pc.engines.emplace_back(this, cycles());
  }
  engine::EngineKind kind() const noexcept override { return engine::EngineKind::kNetlist; }
  aesip::core::IpMode mode() const noexcept override { return aesip::core::IpMode::kBoth; }
  std::uint64_t load_key(std::span<const std::uint8_t> key) override {
    cur_ = &inner(static_cast<int>(key.size()) * 8);
    return cur_->load_key(key);
  }
  bool key_resident(std::span<const std::uint8_t> key) const override {
    const auto it = inner_.find(static_cast<int>(key.size()) * 8);
    return it != inner_.end() && it->second->key_resident(key);
  }
  void process_batch(std::span<const std::uint8_t> in, std::span<std::uint8_t> out,
                     bool encrypt) override {
    const auto p0 = cur_->batch_stats().passes;
    cur_->process_batch(in, out, encrypt);
    batch_stats_.passes += cur_->batch_stats().passes - p0;
  }
  void process_keyed(std::span<const std::uint8_t> in, std::span<std::uint8_t> out,
                     std::span<KeySpan> spans, bool encrypt) override {
    const int call = pc_.calls++;
    {
      std::lock_guard lk(pc_.mu);
      for (const auto& s : spans)
        pc_.log.push_back({{s.key.begin(), s.key.end()}, encrypt, s.blocks});
    }
    if (first_) pc_.opened.wait();
    first_ = false;
    cur_ = &inner(static_cast<int>(spans[0].key.size()) * 8);  // one size per call
    const auto p0 = cur_->batch_stats().passes;
    cur_->process_keyed(in, out, spans, encrypt);
    batch_stats_.passes += cur_->batch_stats().passes - p0;
    if (call == pc_.corrupt_call)
      for (std::size_t b = 0; b < out.size(); b += 16) out[b] ^= 1;
  }
  std::size_t batch_lanes() const noexcept override {
    return pc_.one_lane ? 1 : cur_->batch_lanes();
  }
  /// The inner engines' cycles since each was built.
  std::uint64_t cycles() const noexcept override {
    std::uint64_t c = 0;
    for (const auto& [bits, e] : inner_) c += e->cycles();
    return c - built_cycles_;
  }
  std::uint64_t last_latency() const noexcept override { return cur_->last_latency(); }
  aesip::core::IpCounters counters() const override {
    aesip::core::IpCounters c;
    for (const auto& [bits, e] : inner_) c.key_setup_cycles += e->counters().key_setup_cycles;
    return c;  // the one counter the tests read
  }

 protected:
  std::array<std::uint8_t, 16> do_process(std::span<const std::uint8_t> block,
                                          bool encrypt) override {
    return cur_->process_block(block, encrypt);
  }

 private:
  engine::NetlistEngine& inner(int bits) {
    auto& slot = inner_[bits];
    if (!slot) {
      aesip::arch::VariantSpec spec;
      spec.key_bits = bits;
      slot = std::make_unique<engine::NetlistEngine>(pc_.netlists.at(bits), spec,
                                                     aesip::core::IpMode::kBoth);
      built_cycles_ += slot->cycles();
    }
    return *slot;
  }

  PassControl& pc_;
  std::map<int, std::unique_ptr<engine::NetlistEngine>> inner_;
  engine::NetlistEngine* cur_;
  std::uint64_t built_cycles_ = 0;
  bool first_ = true;
};

farm::FarmConfig gated_config(PassControl& pc, int workers) {
  farm::FarmConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = 512;
  cfg.engine_factory = [&pc] { return std::make_unique<GatedEngine>(pc); };
  return cfg;
}

/// Submit a one-block ECB job under `key` and wait until the pass running
/// it is blocked at the gate (the `gated`-th keyed call has started).
std::future<farm::Result> hold_gate(farm::Farm& f, PassControl& pc, const farm::KeyBytes& key,
                                    std::uint64_t session, int gated, std::mt19937& rng,
                                    farm::Request& req) {
  req.session_id = session;
  req.key = key;
  req.mode = farm::Mode::kEcb;
  req.payload = random_payload(rng, 16);
  auto fut = f.submit(req);
  while (pc.calls.load() < gated) std::this_thread::yield();
  return fut;
}

}  // namespace

// One drain on each of two netlist workers holds more blocks than a pass
// has lanes, under six keys of all three sizes, mixing ECB and CBC in both
// directions with CTR (fanned out, with a ragged last block), and a live
// engine swap lands in the middle of the burst.  Every answer must match
// the software oracle, and the packed legs must have shared passes.
TEST(Farm, PackedDrainMixesKeysSizesModesAndASwap) {
  PassControl pc;
  farm::Farm f(gated_config(pc, 2));
  std::mt19937 rng(2024);

  // Block both workers in their first pass, so the burst queues up whole.
  std::vector<farm::Request> reqs(2);
  std::vector<std::future<farm::Result>> futures;
  for (int w = 0; w < 2; ++w)
    futures.push_back(hold_gate(f, pc, random_key128(rng), 100 + static_cast<std::uint64_t>(w),
                                w + 1, rng, reqs[static_cast<std::size_t>(w)]));
  const std::size_t lanes = f.stats().batch_lanes;
  ASSERT_GT(lanes, 1u);

  std::vector<farm::KeyBytes> keys;
  for (const int bits : {128, 192, 256, 128, 192, 256})
    keys.push_back(*farm::KeyBytes::from(random_key_bytes(rng, bits)));
  std::size_t burst_blocks = 0, chain_blocks = 0;
  for (int i = 0; i < 60; ++i) {
    farm::Request req;
    req.session_id = static_cast<std::uint64_t>(i % 6);
    req.key = keys[static_cast<std::size_t>(i % 6)];
    req.iv = random_key128(rng);
    req.mode = static_cast<farm::Mode>(i / 6 % 3);
    req.encrypt = (i / 18) % 2 == 0;
    std::size_t blocks = 4 + static_cast<std::size_t>(rng() % (lanes / 16 + 8));
    if (req.mode == farm::Mode::kCbc && req.encrypt) chain_blocks += blocks = 1;  // chains stay short
    std::size_t bytes = 16 * blocks;
    if (req.mode == farm::Mode::kCtr) {
      bytes += 5;                                                       // ragged last block
      if (i % 4 == 0) bytes += 16 * f.config().ctr_fanout_min_blocks;  // fans out
    }
    req.payload = random_payload(rng, bytes);
    burst_blocks += (bytes + 15) / 16;
    reqs.push_back(std::move(req));
  }
  ASSERT_GT(burst_blocks, 2 * lanes);  // more than a pass per worker
  std::vector<std::vector<std::uint8_t>> expect;
  for (const auto& r : reqs) expect.push_back(oracle(r));

  std::future<farm::SwapReport> swap;
  for (std::size_t i = 2; i < reqs.size(); ++i) {
    futures.push_back(f.submit(reqs[i]));
    if (i == reqs.size() / 2) swap = f.swap_engine(0, engine::EngineKind::kNetlist);
  }
  pc.open.set_value();
  for (std::size_t i = 0; i < futures.size(); ++i)
    EXPECT_EQ(futures[i].get().data, expect[i]) << "request " << i;
  EXPECT_EQ(swap.get().to, "netlist");

  const auto st = f.stats();
  std::uint64_t passes = 0, blocks = 0;
  for (const auto& w : st.per_worker) {
    passes += w.passes;
    blocks += w.blocks;
  }
  EXPECT_EQ(blocks, burst_blocks + 2);
  // Unpacked, every job and fan-out chunk takes at least one pass.  Packed,
  // each (worker, key size, direction) group of the one drain takes its
  // blocks / lanes passes rounded up, beside the two gate passes and one
  // pass per CBC-encrypted block.
  const std::uint64_t groups = 2 * 3 * 2;
  EXPECT_LE(passes, 2 + chain_blocks + groups + burst_blocks / lanes);
  EXPECT_LT(passes, reqs.size());
}

// Packed accounting stays scalar-equivalent and bounded: per-job cycles
// and setup cycles add up to the worker totals and to what the engines
// actually ran, and no worker is busier than the wall clock.
TEST(Farm, PackedAccountingAddsUp) {
  PassControl pc;
  farm::Farm f(gated_config(pc, 2));
  std::mt19937 rng(31);
  std::vector<farm::Key128> keys;
  for (int k = 0; k < 5; ++k) keys.push_back(random_key128(rng));
  std::vector<farm::Request> reqs(2);
  std::vector<std::future<farm::Result>> futures;
  for (int w = 0; w < 2; ++w)
    futures.push_back(hold_gate(f, pc, keys[static_cast<std::size_t>(w)],
                                static_cast<std::uint64_t>(w), w + 1, rng,
                                reqs[static_cast<std::size_t>(w)]));
  for (int i = 0; i < 48; ++i) {
    farm::Request req = random_request(rng, static_cast<std::uint64_t>(i % 5),
                                       keys[static_cast<std::size_t>(i % 5)]);
    if (i % 16 == 3) {  // a fan-out
      req.mode = farm::Mode::kCtr;
      req.payload = random_payload(rng, 16 * 80 + 7);
    }
    futures.push_back(f.submit(req));
    reqs.push_back(std::move(req));
  }
  pc.open.set_value();
  std::uint64_t cycles = 0, setup = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const auto r = futures[i].get();
    EXPECT_EQ(r.data, oracle(reqs[i])) << "request " << i;
    cycles += r.cycles;
    setup += r.setup_cycles;
  }

  const auto st = f.stats();
  std::uint64_t worker_cycles = 0, worker_setup = 0, passes = 0;
  for (const auto& w : st.per_worker) {
    worker_cycles += w.cycles;
    worker_setup += w.setup_cycles;
    passes += w.passes;
    EXPECT_LE(w.utilization, 1.0);
  }
  std::uint64_t engine_cycles = 0, engine_setup = 0;
  {
    std::lock_guard lk(pc.mu);
    for (const auto& [e, c0] : pc.engines) {
      engine_cycles += e->cycles() - c0;
      engine_setup += e->counters().key_setup_cycles;
    }
  }
  EXPECT_EQ(cycles, worker_cycles);
  EXPECT_EQ(cycles, engine_cycles);
  EXPECT_EQ(setup, worker_setup);
  EXPECT_EQ(setup, engine_setup);
  EXPECT_GT(setup, 0u);
  EXPECT_LT(passes, reqs.size());  // legs shared passes
}

// Spot-checking under packing: one corrupted pass, sampled at 1/4.  The
// first sampled mismatch convicts the pass, so every job in it is checked
// and answered with the oracle's bytes — none of the corruption reaches a
// client — and the worker heals once.
TEST(Farm, SpotCheckConvictsTheWholePass) {
  PassControl pc;
  pc.corrupt_call = 1;  // the pass after the gate: the packed drain
  farm::FarmConfig cfg = gated_config(pc, 1);
  cfg.spot_check_fraction = 0.25;
  farm::Farm f(cfg);
  std::mt19937 rng(5);
  std::vector<farm::Key128> keys;
  for (int k = 0; k < 4; ++k) keys.push_back(random_key128(rng));

  farm::Request gate;
  auto gate_future = hold_gate(f, pc, keys[0], 0, 1, rng, gate);
  // Everything below lands in one drain, and one pass: ECB and CTR both
  // run the cipher forwards.
  std::vector<farm::Request> reqs;
  for (int i = 0; i < 32; ++i) {
    farm::Request req;
    req.session_id = static_cast<std::uint64_t>(i % 4);
    req.key = keys[static_cast<std::size_t>(i % 4)];
    req.iv = random_key128(rng);
    req.mode = i % 2 ? farm::Mode::kCtr : farm::Mode::kEcb;
    req.payload = random_payload(rng, 16);
    reqs.push_back(std::move(req));
  }
  std::vector<std::future<farm::Result>> futures;
  for (auto& r : reqs) futures.push_back(f.submit(r));
  pc.open.set_value();
  EXPECT_EQ(gate_future.get().data, oracle(gate));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const auto r = futures[i].get();
    EXPECT_EQ(r.data, oracle(reqs[i])) << "corrupted bytes reached the client, request " << i;
    EXPECT_TRUE(r.replayed) << "request " << i;
  }
  const auto st = f.stats();
  EXPECT_EQ(pc.calls.load(), 2);  // the gate pass, then one packed pass
  EXPECT_EQ(st.replayed_jobs, reqs.size());
  EXPECT_EQ(st.spot_mismatches, reqs.size());
  EXPECT_EQ(st.heals, 1u);
}

// CBC encryption is a chain, but the chains of different sessions are
// independent: on a lane-packed engine each pass runs the next block of
// every open chain.  Eight 4-block chains in one drain take 4 passes, not
// 32, and still match the oracle.
TEST(Farm, CbcChainsOfManySessionsSharePasses) {
  PassControl pc;
  farm::Farm f(gated_config(pc, 1));
  std::mt19937 rng(88);
  farm::Request gate;
  auto gate_future = hold_gate(f, pc, random_key128(rng), 100, 1, rng, gate);
  ASSERT_GE(f.stats().batch_lanes, 8u);
  std::vector<farm::Request> reqs;
  std::vector<std::future<farm::Result>> futures;
  for (int s = 0; s < 8; ++s) {
    farm::Request req;
    req.session_id = static_cast<std::uint64_t>(s);
    req.key = random_key128(rng);
    req.iv = random_key128(rng);
    req.mode = farm::Mode::kCbc;
    req.encrypt = true;
    req.payload = random_payload(rng, 4 * 16);
    futures.push_back(f.submit(req));
    reqs.push_back(std::move(req));
  }
  pc.open.set_value();
  EXPECT_EQ(gate_future.get().data, oracle(gate));
  for (std::size_t i = 0; i < futures.size(); ++i)
    EXPECT_EQ(futures[i].get().data, oracle(reqs[i])) << "session " << i;
  EXPECT_EQ(pc.calls.load(), 1 + 4);  // the gate pass, then one pass per chain block
  EXPECT_EQ(f.stats().per_worker[0].passes, 1u + 4u);
}

// On an engine with one lane a pass is one leg, and the legs of a drain
// run in the order they were submitted, whatever their mode, direction
// and key size: ECB, CBC decryption and CTR whole, a CBC encryption one
// block per pass.  Results are bit-exact and the per-job cycles add up to
// what the engines ran.
TEST(Farm, OneLaneDrainRunsLegsInSubmissionOrder) {
  PassControl pc;
  pc.one_lane = true;
  farm::Farm f(gated_config(pc, 1));
  std::mt19937 rng(99);
  std::vector<farm::Request> reqs(1);
  std::vector<std::future<farm::Result>> futures;
  futures.push_back(hold_gate(f, pc, random_key128(rng), 100, 1, rng, reqs[0]));
  EXPECT_EQ(f.stats().batch_lanes, 1u);

  std::vector<farm::KeyBytes> keys;
  for (const int bits : {128, 192, 256, 256, 128, 192})
    keys.push_back(*farm::KeyBytes::from(random_key_bytes(rng, bits)));
  for (int i = 0; i < 24; ++i) {
    farm::Request req;
    req.session_id = static_cast<std::uint64_t>(i % 6);
    req.key = keys[static_cast<std::size_t>(i % 6)];
    req.iv = random_key128(rng);
    req.mode = static_cast<farm::Mode>(i % 3);
    req.encrypt = (i / 3) % 2 == 0;
    std::size_t bytes = 16 * (1 + rng() % 4);
    if (req.mode == farm::Mode::kCtr) bytes += 9;
    req.payload = random_payload(rng, bytes);
    futures.push_back(f.submit(req));
    reqs.push_back(std::move(req));
  }
  pc.open.set_value();
  std::uint64_t cycles = 0, setup = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const auto r = futures[i].get();
    EXPECT_EQ(r.data, oracle(reqs[i])) << "request " << i;
    cycles += r.cycles;
    setup += r.setup_cycles;
  }

  std::vector<PassControl::Call> want;
  for (const auto& r : reqs) {
    const std::vector<std::uint8_t> key(r.key.view().begin(), r.key.view().end());
    const std::size_t blocks = (r.payload.size() + 15) / 16;
    if (r.mode == farm::Mode::kCbc && r.encrypt) {
      for (std::size_t b = 0; b < blocks; ++b) want.push_back({key, true, 1});
    } else {
      want.push_back({key, r.mode == farm::Mode::kCtr || r.encrypt, blocks});
    }
  }
  std::uint64_t engine_cycles = 0, engine_setup = 0;
  {
    std::lock_guard lk(pc.mu);
    EXPECT_EQ(pc.log, want);
    for (const auto& [e, c0] : pc.engines) {
      engine_cycles += e->cycles() - c0;
      engine_setup += e->counters().key_setup_cycles;
    }
  }
  const auto st = f.stats();
  EXPECT_EQ(cycles, st.per_worker[0].cycles);
  EXPECT_EQ(cycles, engine_cycles);
  EXPECT_EQ(setup, st.per_worker[0].setup_cycles);
  EXPECT_EQ(setup, engine_setup);
  EXPECT_GT(setup, 0u);
}

// --- FarmStats::merge_from: the cluster roll-up --------------------------------

namespace {

/// The merge a roll-up must equal: every bucket, count and sum added, the
/// max taken — computed here without HistogramSnapshot::merge.
aesip::obs::HistogramSnapshot bucketwise(const aesip::obs::HistogramSnapshot& a,
                                         const aesip::obs::HistogramSnapshot& b) {
  aesip::obs::HistogramSnapshot out;
  out.count = a.count + b.count;
  out.sum = a.sum + b.sum;
  out.max = std::max(a.max, b.max);
  for (std::size_t i = 0; i < out.buckets.size(); ++i)
    out.buckets[i] = a.buckets[i] + b.buckets[i];
  return out;
}

void expect_same(const aesip::obs::HistogramSnapshot& got,
                 const aesip::obs::HistogramSnapshot& want, const char* what) {
  EXPECT_EQ(got.count, want.count) << what;
  EXPECT_EQ(got.sum, want.sum) << what;
  EXPECT_EQ(got.max, want.max) << what;
  EXPECT_EQ(got.buckets, want.buckets) << what;
}

}  // namespace

TEST(FarmStats, MergeFromSumsCountersAndMergesHistogramsExactly) {
  // Two unequal farms: different worker counts, traffic and a swap on one.
  farm::FarmConfig ca;
  ca.workers = 2;
  ca.engine = engine::EngineKind::kBehavioral;
  farm::FarmConfig cb = ca;
  cb.workers = 1;
  farm::Farm fa(ca);
  farm::Farm fb(cb);
  std::mt19937 rng(77);
  for (int i = 0; i < 12; ++i) {
    const auto key = random_key128(rng);
    const auto req = random_request(rng, static_cast<std::uint64_t>(i % 3), key);
    EXPECT_EQ(fa.process(req).data, oracle(req));
    if (i % 3 == 0) fb.process(random_request(rng, 9, key));
  }
  fb.swap_engine(0, engine::EngineKind::kSoftware).get();
  fb.process(random_request(rng, 9, random_key128(rng)));

  const farm::FarmStats a = fa.stats();
  const farm::FarmStats b = fb.stats();
  ASSERT_GT(a.latency_us.count, 0u);
  ASSERT_GT(b.latency_us.count, 0u);
  ASSERT_GT(b.swap_pause_us.count, 0u);
  farm::FarmStats m = a;
  m.merge_from(b);

  EXPECT_EQ(m.workers, 3);
  EXPECT_EQ(m.requests, a.requests + b.requests);
  EXPECT_EQ(m.blocks, a.blocks + b.blocks);
  EXPECT_EQ(m.key_hits, a.key_hits + b.key_hits);
  EXPECT_EQ(m.key_loads, a.key_loads + b.key_loads);
  EXPECT_EQ(m.swaps, a.swaps + b.swaps);
  EXPECT_EQ(m.workers_enabled, a.workers_enabled + b.workers_enabled);
  EXPECT_EQ(m.queue_capacity, a.queue_capacity + b.queue_capacity);
  EXPECT_EQ(m.total_cycles, a.total_cycles + b.total_cycles);
  EXPECT_EQ(m.total_setup_cycles, a.total_setup_cycles + b.total_setup_cycles);
  ASSERT_EQ(m.per_worker.size(), 3u);
  EXPECT_EQ(m.per_worker[2].engine, b.per_worker[0].engine);

  expect_same(m.latency_us, bucketwise(a.latency_us, b.latency_us), "latency_us");
  expect_same(m.queue_wait_us, bucketwise(a.queue_wait_us, b.queue_wait_us), "queue_wait_us");
  expect_same(m.queue_depth, bucketwise(a.queue_depth, b.queue_depth), "queue_depth");
  expect_same(m.swap_pause_us, bucketwise(a.swap_pause_us, b.swap_pause_us), "swap_pause_us");
  EXPECT_EQ(m.latency_us.count, m.requests);

  // The nodes ran concurrently: wall time and makespan are the longest.
  EXPECT_EQ(m.wall_seconds, std::max(a.wall_seconds, b.wall_seconds));
  EXPECT_EQ(m.max_worker_cycles, std::max(a.max_worker_cycles, b.max_worker_cycles));
  EXPECT_GT(m.max_worker_cycles, 0u);
}

// Workers carry their names (farm-w<i>) in the OS thread table, so
// per-thread CPU from /proc can be attributed without creation order.
TEST(FarmThreads, WorkersAreNamedInTheTaskTable) {
#if defined(__linux__)
  farm::FarmConfig cfg;
  cfg.workers = 2;
  cfg.engine = engine::EngineKind::kSoftware;
  farm::Farm f(cfg);
  // Each worker names itself as it starts, so give them a moment.
  std::set<std::string> names;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!(names.count("farm-w0") && names.count("farm-w1")) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    names.clear();
    for (const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
      std::ifstream comm(task.path() / "comm");
      std::string name;
      if (std::getline(comm, name)) names.insert(name);
    }
  }
  EXPECT_EQ(names.count("farm-w0"), 1u);
  EXPECT_EQ(names.count("farm-w1"), 1u);
#else
  GTEST_SKIP() << "thread names are read from /proc/self/task, which only Linux has";
#endif
}
