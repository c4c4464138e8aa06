#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <random>
#include <stdexcept>

#include "aes/cipher.hpp"
#include "aes/modes.hpp"
#include "aes/ttable.hpp"
#include "arch/variant.hpp"
#include "net/wire.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int key_bits_of(std::span<const std::uint8_t> key) { return static_cast<int>(key.size()) * 8; }

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint32_t seed) {
  std::vector<std::uint8_t> v(n);
  std::mt19937 rng(seed);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng());
  return v;
}

/// Forwards to one inner engine per key size and times every pass.
class RecordingEngine final : public engine::CipherEngine {
 public:
  RecordingEngine(engine::EngineKind kind, EngineRecord& rec, const std::atomic<bool>& sampling)
      : kind_(kind), rec_(rec), sampling_(sampling) {
    cur_ = &engine_for(128);
  }
  ~RecordingEngine() override {
    for (const auto& [bits, e] : inner_) {
      auto& ps = rec_.sizes[bits];
      ps.counters = e->counters();
      ps.loads = loads_[bits];
    }
  }

  engine::EngineKind kind() const noexcept override { return kind_; }
  core::IpMode mode() const noexcept override { return core::IpMode::kBoth; }

  std::uint64_t load_key(std::span<const std::uint8_t> key) override {
    cur_ = &engine_for(key_bits_of(key));
    ++loads_[key_bits_of(key)];
    return cur_->load_key(key);
  }
  bool key_resident(std::span<const std::uint8_t> key) const override {
    const auto it = inner_.find(key_bits_of(key));
    return it != inner_.end() && it->second->key_resident(key);
  }
  std::uint64_t rekey(std::span<const std::uint8_t> key) override {
    cur_ = &engine_for(key_bits_of(key));
    if (cur_->key_resident(key)) return 0;
    ++loads_[key_bits_of(key)];
    return cur_->load_key(key);
  }

  void process_batch(std::span<const std::uint8_t> in, std::span<std::uint8_t> out,
                     bool encrypt) override {
    const std::size_t n = check_batch_spans(in, out);
    const std::uint64_t p0 = cur_->batch_stats().passes;
    const auto t0 = Clock::now();
    cur_->process_batch(in, out, encrypt);
    const double us = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    const std::uint64_t dp = cur_->batch_stats().passes - p0;
    note(n, dp, us);
    ++batch_stats_.calls;
    batch_stats_.blocks += n;
    batch_stats_.passes += dp;
  }
  std::size_t batch_lanes() const noexcept override { return cur_->batch_lanes(); }
  const char* batch_backend() const noexcept override { return cur_->batch_backend(); }

  std::uint64_t cycles() const noexcept override {
    std::uint64_t c = 0;
    for (const auto& [bits, e] : inner_) c += e->cycles();
    return c;
  }
  std::uint64_t last_latency() const noexcept override { return cur_->last_latency(); }
  core::IpCounters counters() const override {
    core::IpCounters c;
    for (const auto& [bits, e] : inner_) add_counters(c, e->counters());
    return c;
  }

 protected:
  std::array<std::uint8_t, 16> do_process(std::span<const std::uint8_t> block,
                                          bool encrypt) override {
    const auto t0 = Clock::now();
    const auto r = cur_->process_block(block, encrypt);
    note(1, 1, std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    return r;
  }

 private:
  engine::CipherEngine& engine_for(int bits) {
    auto& slot = inner_[bits];
    if (!slot) slot = make_engine(kind_, bits);
    return *slot;
  }
  void note(std::uint64_t blocks, std::uint64_t passes, double us) {
    if (!sampling_.load(std::memory_order_relaxed) || passes == 0) return;
    rec_.blocks += blocks;
    rec_.passes += passes;
    rec_.lane_slots += passes * cur_->batch_lanes();
    if (rec_.pass_us.size() < kMaxSamples)
      rec_.pass_us.push_back(static_cast<float>(us / static_cast<double>(passes)));
  }

  static constexpr std::size_t kMaxSamples = 1 << 18;
  engine::EngineKind kind_;
  EngineRecord& rec_;
  const std::atomic<bool>& sampling_;
  std::map<int, std::unique_ptr<engine::CipherEngine>> inner_;
  std::map<int, std::uint64_t> loads_;
  engine::CipherEngine* cur_ = nullptr;
};

/// The software engine with one bit of every output block flipped.
class WrongEngine final : public engine::CipherEngine {
 public:
  engine::EngineKind kind() const noexcept override { return engine::EngineKind::kSoftware; }
  core::IpMode mode() const noexcept override { return core::IpMode::kBoth; }
  std::uint64_t load_key(std::span<const std::uint8_t> key) override {
    return sw_.load_key(key);
  }
  bool key_resident(std::span<const std::uint8_t> key) const override {
    return sw_.key_resident(key);
  }
  std::uint64_t cycles() const noexcept override { return 0; }
  std::uint64_t last_latency() const noexcept override { return 0; }
  core::IpCounters counters() const override { return sw_.counters(); }

 protected:
  std::array<std::uint8_t, 16> do_process(std::span<const std::uint8_t> block,
                                          bool encrypt) override {
    auto r = sw_.process_block(block, encrypt);
    r[0] ^= 0x01;
    return r;
  }

 private:
  engine::SoftwareEngine sw_{core::IpMode::kBoth};
};

}  // namespace

void add_counters(core::IpCounters& a, const core::IpCounters& b) {
  a.idle_cycles += b.idle_cycles;
  a.key_setup_cycles += b.key_setup_cycles;
  a.bytesub_cycles += b.bytesub_cycles;
  a.mix_cycles += b.mix_cycles;
  a.setup_resets += b.setup_resets;
  a.key_writes += b.key_writes;
  a.data_writes += b.data_writes;
  a.rounds_done += b.rounds_done;
  a.blocks_enc += b.blocks_enc;
  a.blocks_dec += b.blocks_dec;
}

std::shared_ptr<const aesip::netlist::Netlist> shared_netlist(int key_bits) {
  static std::mutex mu;
  static std::map<int, std::shared_ptr<const aesip::netlist::Netlist>> cache;
  std::lock_guard lk(mu);
  auto& slot = cache[key_bits];
  if (!slot) slot = engine::make_ip_netlist(core::IpMode::kBoth, key_bits);
  return slot;
}

std::unique_ptr<engine::CipherEngine> make_engine(engine::EngineKind kind, int key_bits) {
  aesip::arch::VariantSpec spec;
  spec.key_bits = key_bits;
  switch (kind) {
    case engine::EngineKind::kSoftware:
      return std::make_unique<engine::SoftwareEngine>(core::IpMode::kBoth);
    case engine::EngineKind::kBehavioral:
      return std::make_unique<engine::BehavioralEngine>(spec, core::IpMode::kBoth);
    case engine::EngineKind::kNetlist:
      return std::make_unique<engine::NetlistEngine>(shared_netlist(key_bits), spec,
                                                     core::IpMode::kBoth);
  }
  throw std::invalid_argument("perfbench: unknown engine kind");
}

std::unique_ptr<engine::CipherEngine> make_wrong_engine() {
  return std::make_unique<WrongEngine>();
}

std::function<std::unique_ptr<engine::CipherEngine>()> Recorders::factory() {
  return [this]() -> std::unique_ptr<engine::CipherEngine> {
    std::lock_guard lk(mu_);
    return std::make_unique<RecordingEngine>(kind_, records_.emplace_back(), sampling);
  };
}

bool check_cycle_contract(int key_bits, const core::IpCounters& c, std::uint64_t loads,
                          std::string& why) {
  const std::uint64_t nr = static_cast<std::uint64_t>(key_bits / 32 + 6);
  const std::string tag = "AES-" + std::to_string(key_bits) + ": ";
  bool ok = true;
  const auto expect = [&](bool cond, const std::string& what) {
    if (!cond) {
      ok = false;
      why += tag + what + "\n";
    }
  };
  expect(c.rounds_done == c.blocks() * nr, "rounds_done != blocks*Nr");
  expect(c.bytesub_cycles == 4 * c.rounds_done, "ByteSub32 cycles != 4 per round");
  expect(c.mix_cycles == c.rounds_done, "SR/MC/AK cycles != 1 per round");
  expect(c.round_cycles() == c.blocks() * 5 * nr, "cycles per block != 5*Nr");
  expect(c.key_setup_cycles == loads * 4 * nr, "key setup cycles != 4*Nr per load");
  return ok;
}

Invariants replay_invariants(engine::EngineKind kind, const std::vector<int>& key_bits) {
  const engine::EngineKind cycle_kind =
      kind == engine::EngineKind::kSoftware ? engine::EngineKind::kBehavioral : kind;
  Invariants inv;
  for (std::size_t i = 0; i < key_bits.size(); ++i) {
    const int bits = key_bits[i];
    auto e = make_engine(cycle_kind, bits);
    const auto k0 = random_bytes(static_cast<std::size_t>(bits / 8), 1u + bits);
    const auto k1 = random_bytes(static_cast<std::size_t>(bits / 8), 2u + bits);
    const auto data = random_bytes(16 * 8, 3u + bits);
    const auto ref0 = aesip::aes::Rijndael::for_key(k0);
    const auto ref1 = aesip::aes::Rijndael::for_key(k1);
    const std::span<const std::uint8_t> all(data);
    std::vector<std::uint8_t> out(data.size());
    bool bytes_ok = true;

    // Two loads (k0, then k1), one resident-key hit, twelve blocks mixing
    // the scalar and batch paths in both directions.
    e->load_key(k0);
    for (std::size_t b = 0; b < 2; ++b) {
      const auto ct = e->process_block(all.subspan(16 * b, 16), true);
      bytes_ok &= std::vector<std::uint8_t>(ct.begin(), ct.end()) ==
                  aesip::aes::ecb_encrypt(ref0, all.subspan(16 * b, 16));
    }
    e->process_batch(all.subspan(0, 80), std::span(out).subspan(0, 80), true);
    bytes_ok &= std::vector<std::uint8_t>(out.begin(), out.begin() + 80) ==
                aesip::aes::ecb_encrypt(ref0, all.subspan(0, 80));
    e->rekey(k1);
    e->process_batch(all.subspan(0, 48), std::span(out).subspan(0, 48), false);
    bytes_ok &= std::vector<std::uint8_t>(out.begin(), out.begin() + 48) ==
                aesip::aes::ecb_decrypt(ref1, all.subspan(0, 48));
    e->rekey(k1);
    const auto pt = e->process_block(all.subspan(0, 16), false);
    bytes_ok &= std::vector<std::uint8_t>(pt.begin(), pt.end()) ==
                aesip::aes::ecb_decrypt(ref1, all.subspan(0, 16));
    e->process_block(all.subspan(16, 16), true);

    const auto c = e->counters();
    const std::string tag = "AES-" + std::to_string(bits) + ": ";
    if (!bytes_ok) {
      inv.ok = false;
      inv.why += tag + "replayed blocks differ from the aes oracle\n";
    }
    if (c.blocks() != 12) {
      inv.ok = false;
      inv.why += tag + "block counters do not match the replay\n";
    }
    inv.ok &= check_cycle_contract(bits, c, 2, inv.why);
    const std::uint64_t nr = static_cast<std::uint64_t>(bits / 32 + 6);
    if (e->last_latency() != 5 * nr) {
      inv.ok = false;
      inv.why += tag + "last block latency != 5*Nr\n";
    }
    if (i == 0) {
      inv.cycles_per_block = c.cycles_per_block();
      inv.setup_cycles_per_key = static_cast<double>(c.key_setup_cycles) / 2.0;
    }
  }
  return inv;
}

double codec_ns_per_frame(std::size_t blocks, double budget_s) {
  aesip::net::Frame f;
  f.op = aesip::net::Op::kEncBlocks;
  f.session_id = 1;
  f.payload = random_bytes(17 + 16 * blocks, 7);
  aesip::net::FrameDecoder dec;
  aesip::net::Frame got;
  std::uint64_t frames = 0;
  const auto t0 = Clock::now();
  do {
    for (int i = 0; i < 64; ++i) {
      f.seq = static_cast<std::uint32_t>(frames++);
      dec.feed(aesip::net::encode_frame(f));
      if (dec.next(got) != aesip::net::FrameDecoder::Status::kFrame || got.seq != f.seq)
        throw std::runtime_error("perfbench: codec round trip failed");
    }
  } while (secs_since(t0) < budget_s);
  return secs_since(t0) * 1e9 / static_cast<double>(frames);
}

NetlistPasses netlist_passes(double budget_s) {
  auto e = make_engine(engine::EngineKind::kNetlist, 128);
  const auto key = random_bytes(16, 11);
  e->load_key(key);
  NetlistPasses r;
  r.lanes = e->batch_lanes();
  r.backend = e->batch_backend();
  const auto full = random_bytes(16 * r.lanes, 12);
  std::vector<std::uint8_t> out(full.size());
  e->process_batch(full, out, true);
  if (out != aesip::aes::ecb_encrypt(aesip::aes::Rijndael::for_key(key), full))
    throw std::runtime_error("perfbench: netlist full pass differs from the aes oracle");

  std::vector<double> full_ns, one_us;
  const auto t0 = Clock::now();
  while (full_ns.size() < 3 || secs_since(t0) < budget_s / 2) {
    const auto t = Clock::now();
    e->process_batch(full, out, true);
    full_ns.push_back(secs_since(t) * 1e9 / static_cast<double>(r.lanes));
  }
  const auto t1 = Clock::now();
  const std::span<const std::uint8_t> one(full.data(), 16);
  while (one_us.size() < 3 || secs_since(t1) < budget_s / 2) {
    const auto t = Clock::now();
    e->process_batch(one, std::span(out).subspan(0, 16), true);
    one_us.push_back(secs_since(t) * 1e6);
  }
  r.ns_per_block_full = median(full_ns);
  r.pass_us_1lane = median(one_us);
  return r;
}

double hdl_sim_cycles_per_host_s(double budget_s) {
  auto e = make_engine(engine::EngineKind::kBehavioral, 128);
  e->load_key(random_bytes(16, 13));
  const auto in = random_bytes(16 * 16, 14);
  std::vector<std::uint8_t> out(in.size());
  const std::uint64_t c0 = e->cycles();
  const auto t0 = Clock::now();
  do {
    e->process_batch(in, out, true);
  } while (secs_since(t0) < budget_s);
  return static_cast<double>(e->cycles() - c0) / secs_since(t0);
}

double aes_ns_per_block(double budget_s) {
  const aesip::aes::TTableRijndael t(random_bytes(16, 15));
  auto buf = random_bytes(16 * 256, 16);
  std::uint64_t blocks = 0;
  const auto t0 = Clock::now();
  do {
    for (std::size_t i = 0; i < buf.size(); i += 16) {
      const std::span<std::uint8_t> b(buf.data() + i, 16);
      t.encrypt_block(b, b);
    }
    blocks += buf.size() / 16;
  } while (secs_since(t0) < budget_s);
  const double ns = secs_since(t0) * 1e9 / static_cast<double>(blocks);
  // Keep the chained encryptions observable so they cannot be elided.
  volatile std::uint8_t sink = buf[0];
  (void)sink;
  return ns;
}

double rekey_us_p50(engine::EngineKind kind, const std::vector<int>& key_bits, double budget_s) {
  std::vector<double> us;
  const double per_size = budget_s / static_cast<double>(key_bits.size());
  for (const int bits : key_bits) {
    auto e = make_engine(kind, bits);
    const auto ka = random_bytes(static_cast<std::size_t>(bits / 8), 17);
    const auto kb = random_bytes(static_cast<std::size_t>(bits / 8), 18);
    e->load_key(ka);
    const auto t0 = Clock::now();
    for (int i = 0; i < 4096 && (i < 8 || secs_since(t0) < per_size); ++i) {
      const auto t = Clock::now();
      e->rekey(i % 2 ? ka : kb);  // alternating keys: every call is a real load
      us.push_back(secs_since(t) * 1e6);
    }
  }
  return median(us);
}

double quantile(std::vector<float> v, double q) {
  if (v.empty()) return 0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace perfbench
