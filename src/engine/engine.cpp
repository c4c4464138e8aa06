#include "engine/engine.hpp"

#include <algorithm>
#include <utility>

#include "core/ip_synth.hpp"

namespace aesip::engine {

const char* kind_name(EngineKind k) noexcept {
  switch (k) {
    case EngineKind::kSoftware: return "sw";
    case EngineKind::kBehavioral: return "behavioral";
    case EngineKind::kNetlist: return "netlist";
  }
  return "?";
}

std::optional<EngineKind> kind_from_name(std::string_view name) noexcept {
  if (name == "sw" || name == "software" || name == "soft") return EngineKind::kSoftware;
  if (name == "behavioral" || name == "behav" || name == "ip") return EngineKind::kBehavioral;
  if (name == "netlist" || name == "gate") return EngineKind::kNetlist;
  return std::nullopt;
}

// --- CipherEngine batch path -------------------------------------------------

std::size_t CipherEngine::check_batch_spans(std::span<const std::uint8_t> in,
                                            std::span<std::uint8_t> out) {
  if (in.size() != out.size())
    throw std::invalid_argument("CipherEngine: batch in/out sizes differ");
  if (in.size() % 16 != 0)
    throw std::invalid_argument("CipherEngine: batch must be whole 16-byte blocks");
  return in.size() / 16;
}

void CipherEngine::process_batch(std::span<const std::uint8_t> in, std::span<std::uint8_t> out,
                                 bool encrypt) {
  const std::size_t n = check_batch_spans(in, out);
  for (std::size_t i = 0; i < n; ++i) {
    const auto r = process_block(in.subspan(16 * i, 16), encrypt);
    std::copy(r.begin(), r.end(), out.begin() + static_cast<std::ptrdiff_t>(16 * i));
  }
  ++batch_stats_.calls;
  batch_stats_.blocks += n;
  batch_stats_.passes += n;  // loop engines dispatch one block per pass
}

void CipherEngine::process_keyed(std::span<const std::uint8_t> in, std::span<std::uint8_t> out,
                                 std::span<KeySpan> spans, bool encrypt) {
  const std::size_t n = check_batch_spans(in, out);
  std::size_t total = 0;
  for (const auto& s : spans) total += s.blocks;
  if (total != n) throw std::invalid_argument("CipherEngine: key spans must tile the batch");
  std::size_t off = 0;
  for (std::size_t i = 0; i < spans.size();) {
    // A stretch of consecutive same-key spans shares one rekey and one batch.
    std::size_t j = i + 1, blocks = spans[i].blocks;
    while (j < spans.size() && std::ranges::equal(spans[j].key, spans[i].key))
      blocks += spans[j++].blocks;
    for (std::size_t k = i; k < j; ++k) spans[k].cycles = spans[k].setup_cycles = 0;
    if (blocks == 0) {
      i = j;
      continue;
    }
    const std::uint64_t c0 = cycles();
    spans[i].setup_cycles = rekey(spans[i].key);
    const std::uint64_t c1 = cycles();
    process_batch(in.subspan(16 * off, 16 * blocks), out.subspan(16 * off, 16 * blocks),
                  encrypt);
    // Every block of a batch costs the same, so the batch splits by blocks.
    const std::uint64_t batch_cycles = cycles() - c1;
    spans[i].cycles = c1 - c0;
    for (std::size_t k = i, seen = 0; k < j; ++k) {
      const std::uint64_t before = batch_cycles * seen / blocks;
      seen += spans[k].blocks;
      spans[k].cycles += batch_cycles * seen / blocks - before;
    }
    off += blocks;
    i = j;
  }
}

// --- SoftwareEngine ----------------------------------------------------------

std::uint64_t SoftwareEngine::load_key(std::span<const std::uint8_t> key) {
  if (key.size() != 16 && key.size() != 24 && key.size() != 32)
    throw std::invalid_argument("SoftwareEngine: key must be 16, 24 or 32 bytes");
  ttable_.emplace(key);
  std::copy(key.begin(), key.end(), resident_key_.begin());
  resident_key_len_ = key.size();
  ++counters_.key_writes;
  return 0;
}

void SoftwareEngine::process_batch(std::span<const std::uint8_t> in, std::span<std::uint8_t> out,
                                   bool encrypt) {
  const std::size_t n = check_batch_spans(in, out);
  if (!ttable_) throw std::logic_error("SoftwareEngine: no key loaded");
  const bool dec = mode_ == core::IpMode::kDecrypt || (mode_ == core::IpMode::kBoth && !encrypt);
  for (std::size_t i = 0; i < n; ++i) {
    const auto src = in.subspan(16 * i, 16);
    const auto dst = out.subspan(16 * i, 16);
    if (encrypt)
      ttable_->encrypt_block(src, dst);
    else
      ttable_->decrypt_block(src, dst);
  }
  counters_.data_writes += n;
  counters_.rounds_done += static_cast<std::uint64_t>(ttable_->rounds()) * n;
  (dec ? counters_.blocks_dec : counters_.blocks_enc) += n;
  ++batch_stats_.calls;
  batch_stats_.blocks += n;
  batch_stats_.passes += n;  // one block per table walk: still a loop engine
}

bool SoftwareEngine::key_resident(std::span<const std::uint8_t> key) const {
  return ttable_.has_value() && key.size() == resident_key_len_ &&
         std::equal(key.begin(), key.end(), resident_key_.begin());
}

std::array<std::uint8_t, 16> SoftwareEngine::do_process(std::span<const std::uint8_t> block,
                                                        bool encrypt) {
  std::array<std::uint8_t, 16> out{};
  process_batch(block, out, encrypt);
  return out;
}

// --- BehavioralEngine --------------------------------------------------------

template <class Ip>
struct BehavioralEngine::CoreOf final : Core {
  template <class... Args>
  explicit CoreOf(hdl::Simulator& sim, Args&&... args)
      : ip(sim, std::forward<Args>(args)...), bus(sim, ip) {
    bus.reset();
  }
  std::uint64_t load_key(std::span<const std::uint8_t> key) override {
    return bus.load_key(key);
  }
  bool key_resident(std::span<const std::uint8_t> key) const override {
    return bus.key_resident(key);
  }
  std::uint64_t rekey(std::span<const std::uint8_t> key) override { return bus.rekey(key); }
  std::array<std::uint8_t, 16> process_block(std::span<const std::uint8_t> block,
                                             bool encrypt) override {
    return bus.process_block(block, encrypt);
  }
  std::uint64_t last_latency() const noexcept override { return bus.last_latency(); }
  core::IpCounters counters() const override { return ip.counters(); }
  const core::BusCounters& bus_counters() const noexcept override { return bus.counters(); }

  Ip ip;
  core::GenericBusDriver<Ip> bus;
};

BehavioralEngine::BehavioralEngine(const arch::VariantSpec& spec, core::IpMode mode)
    : spec_(spec), mode_(mode) {
  // The MixColumn style is a gate-level distinction only; the paper's
  // RijndaelIp is the behavioral twin of both iterative netlists.
  if (spec_.is_iterative())
    core_ = std::make_unique<CoreOf<core::RijndaelIp>>(sim_, mode, spec.key_bits);
  else
    core_ = std::make_unique<CoreOf<arch::VariantIp>>(sim_, spec, mode);
}

// --- NetlistEngine -----------------------------------------------------------

std::shared_ptr<const netlist::Netlist> make_ip_netlist(core::IpMode mode, int key_bits) {
  return std::make_shared<const netlist::Netlist>(core::synthesize_ip(
      mode, netlist::SboxStyle::kRom, netlist::MixColStyle::kXtime, key_bits));
}

std::shared_ptr<const netlist::Netlist> make_variant_netlist(const arch::VariantSpec& spec,
                                                             core::IpMode mode) {
  return std::make_shared<const netlist::Netlist>(arch::synthesize_variant(spec, mode));
}

NetlistEngine::NetlistEngine(std::shared_ptr<const netlist::Netlist> nl, core::IpMode mode,
                             const netlist::BatchConfig& cfg)
    : NetlistEngine(std::move(nl), arch::VariantSpec{}, mode, cfg) {}

NetlistEngine::NetlistEngine(std::shared_ptr<const netlist::Netlist> nl,
                             const arch::VariantSpec& spec, core::IpMode mode,
                             const netlist::BatchConfig& cfg)
    : nl_(std::move(nl)),
      spec_(spec),
      mode_(mode),
      drv_(*nl_, cfg),
      key_len_(static_cast<std::size_t>(spec.key_bits / 8)),
      lane_keys_(drv_.lanes() * key_len_),
      lane_used_(drv_.lanes(), 0) {
  // Mirror BehavioralEngine's construction-time reset() pulse: one setup
  // edge plus one idle edge, so cycle counts line up from cycle 0.
  drv_.reset();
  ++counters_.setup_resets;
  ++counters_.idle_cycles;
}

std::uint64_t NetlistEngine::load_key(std::span<const std::uint8_t> key) {
  if (key.size() != key_len_)
    throw std::invalid_argument("NetlistEngine: key must be " + std::to_string(key_len_) +
                                " bytes for " + spec_.name());
  const std::uint64_t setup =
      static_cast<std::uint64_t>(spec_.key_setup_cycles(mode_));
  drv_.load_key(key, static_cast<int>(setup));
  std::ranges::copy(key, key_.begin());
  has_key_ = true;
  ++tick_;
  for (std::size_t l = 0; l < lane_used_.size(); ++l) {
    std::ranges::copy(key, lane_keys_.begin() + static_cast<std::ptrdiff_t>(key_len_ * l));
    lane_used_[l] = tick_;
  }
  ++counters_.key_writes;
  counters_.key_setup_cycles += setup;
  return setup;
}

bool NetlistEngine::lane_holds(std::size_t lane, std::span<const std::uint8_t> key) const {
  return lane_used_[lane] != 0 && key.size() == key_len_ &&
         std::equal(key.begin(), key.end(),
                    lane_keys_.begin() + static_cast<std::ptrdiff_t>(key_len_ * lane));
}

bool NetlistEngine::key_resident(std::span<const std::uint8_t> key) const {
  for (std::size_t l = 0; l < lane_used_.size(); ++l)
    if (lane_holds(l, key)) return true;
  return false;
}

std::uint64_t NetlistEngine::rekey(std::span<const std::uint8_t> key) {
  if (!key_resident(key)) return load_key(key);
  std::ranges::copy(key, key_.begin());
  has_key_ = true;
  return 0;
}

std::uint64_t NetlistEngine::run_pass(std::span<const std::uint8_t> in,
                                      std::span<std::uint8_t> out, std::size_t n,
                                      std::size_t active, bool encrypt) {
  const auto r = drv_.process_lanes(in, out, n, active, encrypt);
  batch_stats_.lane_divergences = drv_.evaluator().lane_divergences();
  batch_stats_.uncached_sweeps = drv_.evaluator().uncached_sweeps();
  if (!r) throw std::runtime_error("NetlistEngine: data_ok never rose (gate-level hang)");
  last_latency_ = static_cast<std::uint64_t>(r->cycles);
  // The gate FSM walks the same phases the behavioral model counts; derive
  // the identical attribution from the protocol events, once per active
  // lane — a pass carrying k blocks is k blocks of device work (cycles()
  // agrees: the driver weights each pass clock by the active lane count).
  // Iterative blocks spend 4 ByteSub32 slices + 1 MixColumn cycle per
  // round; the full-width variants do the whole round in the one wide
  // cycle counted under mix_cycles (matching VariantIp's attribution).
  const std::uint64_t k = active;
  const std::uint64_t bytesub_per_round =
      spec_.is_iterative() ? core::RijndaelIp::kCyclesPerRound - 1 : 0;
  const std::uint64_t rounds = static_cast<std::uint64_t>(spec_.nr());
  const bool dec = mode_ == core::IpMode::kDecrypt || (mode_ == core::IpMode::kBoth && !encrypt);
  counters_.data_writes += k;
  counters_.idle_cycles += k;  // the load edge executes in kIdle (block start)
  counters_.bytesub_cycles += rounds * bytesub_per_round * k;
  counters_.mix_cycles += rounds * k;
  counters_.rounds_done += rounds * k;
  (dec ? counters_.blocks_dec : counters_.blocks_enc) += k;
  return last_latency_;
}

const char* NetlistEngine::batch_backend() const noexcept {
  return netlist::backend_name(drv_.evaluator().backend());
}

std::size_t NetlistEngine::fault_sites() const noexcept {
  return drv_.evaluator().dff_count();
}

bool NetlistEngine::inject_fault(std::size_t site) {
  if (site >= drv_.evaluator().dff_count()) return false;
  drv_.evaluator().flip_dff(site);
  drv_.evaluator().settle();
  return true;
}

std::array<std::uint8_t, 16> NetlistEngine::do_process(std::span<const std::uint8_t> block,
                                                       bool encrypt) {
  std::array<std::uint8_t, 16> out{};
  process_batch(block, out, encrypt);
  return out;
}

void NetlistEngine::process_batch(std::span<const std::uint8_t> in, std::span<std::uint8_t> out,
                                  bool encrypt) {
  if (!has_key_) throw std::logic_error("NetlistEngine: no key loaded");
  KeySpan span{std::span(key_).first(key_len_), in.size() / 16};
  process_keyed(in, out, std::span(&span, 1), encrypt);
}

void NetlistEngine::process_keyed(std::span<const std::uint8_t> in, std::span<std::uint8_t> out,
                                  std::span<KeySpan> spans, bool encrypt) {
  const std::size_t n = check_batch_spans(in, out);
  std::size_t total = 0;
  for (auto& s : spans) {
    if (s.key.size() != key_len_)
      throw std::invalid_argument("NetlistEngine: key must be " + std::to_string(key_len_) +
                                  " bytes for " + spec_.name());
    total += s.blocks;
    s.cycles = s.setup_cycles = 0;
  }
  if (total != n) throw std::invalid_argument("CipherEngine: key spans must tile the batch");
  const std::size_t lanes = batch_lanes();
  const std::uint64_t setup = static_cast<std::uint64_t>(spec_.key_setup_cycles(mode_));
  const std::uint64_t beats = (key_len_ + 15) / 16;
  pass_in_.resize(16 * lanes);
  pass_out_.resize(16 * lanes);
  lane_taken_.resize(lanes);

  std::size_t si = 0, s_off = 0;  // the next block to place: span si, s_off blocks in
  for (std::size_t off = 0; off < n;) {
    const std::size_t take = std::min(lanes, n - off);
    ++tick_;
    // Cut the pass into per-span portions and collect its distinct keys
    // (in first-use order) with their block counts.
    std::size_t nw = 0;
    portions_.clear();
    for (std::size_t b = off; b < off + take;) {
      while (s_off == spans[si].blocks) ++si, s_off = 0;
      const std::size_t here = std::min(spans[si].blocks - s_off, off + take - b);
      std::size_t w = 0;
      while (w < nw && !std::ranges::equal(wants_[w].key, spans[si].key)) ++w;
      if (w == nw) {
        if (nw == wants_.size()) wants_.emplace_back();
        wants_[w].key = spans[si].key;
        wants_[w].span = si;
        wants_[w].blocks = 0;
        wants_[w].lanes.clear();
        ++nw;
      }
      wants_[w].blocks += here;
      portions_.push_back({si, b, here, w});
      s_off += here;
      b += here;
    }
    // Lanes already holding a wanted key serve it, up to its block count.
    std::fill(lane_taken_.begin(), lane_taken_.end(), std::uint8_t{0});
    for (std::size_t l = 0; l < lanes; ++l)
      for (std::size_t w = 0; w < nw; ++w)
        if (wants_[w].lanes.size() < wants_[w].blocks && lane_holds(l, wants_[w].key)) {
          wants_[w].lanes.push_back(l);
          lane_taken_[l] = 1;
          break;
        }
    // Keys still short of lanes take the least recently used free lanes,
    // all written in one per-lane install.  A key no lane held is charged
    // one scalar key load, on the first span that needed it.
    std::uint64_t charged = 0;
    std::size_t short_of = 0;
    for (std::size_t w = 0; w < nw; ++w) {
      if (wants_[w].lanes.empty()) {
        ++charged;
        spans[wants_[w].span].setup_cycles += setup;
        spans[wants_[w].span].cycles += beats + setup;
      }
      short_of += wants_[w].blocks - wants_[w].lanes.size();
    }
    if (short_of > 0) {
      victims_.clear();
      for (std::size_t l = 0; l < lanes; ++l)
        if (!lane_taken_[l]) victims_.push_back(l);
      std::ranges::partial_sort(victims_, victims_.begin() + static_cast<std::ptrdiff_t>(short_of),
                                [&](std::size_t a, std::size_t b) {
                                  return std::pair(lane_used_[a], a) < std::pair(lane_used_[b], b);
                                });
      std::size_t v = 0;
      for (std::size_t w = 0; w < nw; ++w)
        while (wants_[w].lanes.size() < wants_[w].blocks) {
          const std::size_t l = victims_[v++];
          std::ranges::copy(wants_[w].key,
                            lane_keys_.begin() + static_cast<std::ptrdiff_t>(key_len_ * l));
          lane_used_[l] = tick_;
          wants_[w].lanes.push_back(l);
        }
      // Lanes that never held a key take the first one; then they do.
      for (std::size_t l = 0; l < lanes; ++l)
        if (lane_used_[l] == 0) {
          std::ranges::copy(wants_[0].key,
                            lane_keys_.begin() + static_cast<std::ptrdiff_t>(key_len_ * l));
          lane_used_[l] = 1;
        }
      drv_.load_key_lanes(lane_keys_, key_len_, lanes, static_cast<int>(setup), charged);
      counters_.key_writes += charged;
      counters_.key_setup_cycles += charged * setup;
    }
    // Scatter the blocks onto their lanes, run one pass, gather.
    std::size_t hi = 0;
    for (const auto& p : portions_)
      for (std::size_t k = 0; k < p.blocks; ++k) {
        const std::size_t l = wants_[p.want].lanes[wants_[p.want].next++];
        std::copy_n(in.begin() + static_cast<std::ptrdiff_t>(16 * (p.first + k)), 16,
                    pass_in_.begin() + static_cast<std::ptrdiff_t>(16 * l));
        lane_used_[l] = tick_;
        hi = std::max(hi, l + 1);
      }
    const std::uint64_t per_block = run_pass(pass_in_, pass_out_, hi, take, encrypt) + 1;
    for (std::size_t w = 0; w < nw; ++w) wants_[w].next = 0;
    for (const auto& p : portions_) {
      for (std::size_t k = 0; k < p.blocks; ++k)
        std::copy_n(pass_out_.begin() +
                        static_cast<std::ptrdiff_t>(16 * wants_[p.want].lanes[wants_[p.want].next++]),
                    16, out.begin() + static_cast<std::ptrdiff_t>(16 * (p.first + k)));
      spans[p.span].cycles += per_block * p.blocks;
    }
    for (std::size_t w = 0; w < nw; ++w) wants_[w].next = 0;
    ++batch_stats_.passes;
    off += take;
  }
  ++batch_stats_.calls;
  batch_stats_.blocks += n;
  // Span si holds the last block: its key is the engine key now.
  if (n > 0 && spans[si].key.data() != key_.data()) {
    std::ranges::copy(spans[si].key, key_.begin());
    has_key_ = true;
  }
}

// --- factory -----------------------------------------------------------------

std::unique_ptr<CipherEngine> make_engine(EngineKind kind, core::IpMode mode) {
  switch (kind) {
    case EngineKind::kSoftware: return std::make_unique<SoftwareEngine>(mode);
    case EngineKind::kBehavioral: return std::make_unique<BehavioralEngine>(mode);
    case EngineKind::kNetlist: return std::make_unique<NetlistEngine>(mode);
  }
  throw std::invalid_argument("make_engine: unknown engine kind");
}

std::unique_ptr<CipherEngine> make_engine(EngineKind kind, const arch::VariantSpec& spec,
                                          core::IpMode mode) {
  switch (kind) {
    case EngineKind::kSoftware: return std::make_unique<SoftwareEngine>(mode);
    case EngineKind::kBehavioral: return std::make_unique<BehavioralEngine>(spec, mode);
    case EngineKind::kNetlist: return std::make_unique<NetlistEngine>(spec, mode);
  }
  throw std::invalid_argument("make_engine: unknown engine kind");
}

}  // namespace aesip::engine
