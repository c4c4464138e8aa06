#include "farm/farm.hpp"

#include <algorithm>
#include <cstdio>
#include <random>
#include <span>
#include <stdexcept>
#include <tuple>

#include "aes/cipher.hpp"
#include "aes/modes.hpp"
#include "engine/engine.hpp"
#include "obs/thread_name.hpp"
#include "report/json.hpp"

namespace aesip::farm {

namespace {
/// Trace-event name table; TraceEvent::name indexes into this. The first
/// three entries line up with the Mode enum so a job's name is its mode.
constexpr const char* kTraceNames[] = {"ecb", "cbc", "ctr"};

std::size_t block_count(std::size_t bytes) { return (bytes + aes::kBlock - 1) / aes::kBlock; }

/// Whole microseconds from `from` to `to`.
std::uint64_t micros_since(std::chrono::steady_clock::time_point from,
                           std::chrono::steady_clock::time_point to =
                               std::chrono::steady_clock::now()) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from).count());
}

/// Stats label for an engine kind running a variant: the bare kind name
/// for the paper core (backward-compatible), "kind:variant" otherwise.
const char* engine_label(engine::EngineKind kind, const arch::VariantSpec& variant) {
  if (variant == arch::VariantSpec{}) return engine::kind_name(kind);
  return arch::intern_label(std::string(engine::kind_name(kind)) + ":" + variant.name());
}
}  // namespace

const char* mode_name(Mode m) noexcept {
  switch (m) {
    case Mode::kEcb: return "ecb";
    case Mode::kCbc: return "cbc";
    case Mode::kCtr: return "ctr";
  }
  return "?";
}

// One worker's private hardware: a CipherEngine plus the BlockCipher128
// view the aes:: modes need. Constructed on the worker's own thread;
// nothing in here is ever touched by another thread, which is the farm's
// whole locking story.
class WorkerContext {
 public:
  using KbFactory = std::function<std::unique_ptr<engine::CipherEngine>(int)>;

  WorkerContext(KbFactory make, const char* lbl, unsigned seed, int key_bits)
      : factory(std::move(make)),
        label(lbl),
        primary_bits(key_bits),
        engine(factory(primary_bits)),
        spot_rng(seed * 2654435761u + 1u) {}

  /// The engine that runs a `bits`-bit key: the worker's primary engine
  /// when the size matches its configured geometry, else a lazily built
  /// sibling of the same kind/variant geared for `bits` (cached until the
  /// next swap or heal).  Cycle engines are built for one key size, so a
  /// key-length mix on one worker costs one engine per distinct size.
  engine::CipherEngine& engine_for(int bits) {
    if (bits == primary_bits) return *engine;
    auto& slot = siblings[bits];
    if (!slot) slot = factory(bits);
    return *slot;
  }

  /// Install a fresh primary engine, dropping every sibling (they were
  /// built by the old factory). Factory, label and geometry only change on
  /// a kind/variant swap, not on a same-kind heal.
  void adopt(std::unique_ptr<engine::CipherEngine> fresh, KbFactory new_factory,
             const char* new_label, int new_primary_bits) {
    engine = std::move(fresh);
    siblings.clear();
    if (new_factory) factory = std::move(new_factory);
    if (new_label) label = new_label;
    if (new_primary_bits) primary_bits = new_primary_bits;
  }

  /// Bernoulli(fraction) draw for the spot-check policy.
  bool sample(double fraction) {
    if (fraction >= 1.0) return true;
    return std::uniform_real_distribution<double>(0.0, 1.0)(spot_rng) < fraction;
  }

  KbFactory factory;
  const char* label;  ///< static-duration engine name for stats
  int primary_bits;   ///< the configured geometry (siblings carry the rest)
  std::unique_ptr<engine::CipherEngine> engine;
  std::map<int, std::unique_ptr<engine::CipherEngine>> siblings;  ///< by key bits
  KeyBytes last_key{};   ///< most recent key this worker ran — swap replays it
  bool has_key = false;
  std::minstd_rand spot_rng;
  // Adaptive spot-check state (FarmConfig::spot_check_boost_fraction).
  bool boosted = false;
  std::uint64_t clean_streak = 0;  ///< consecutive clean checks while boosted
};

Farm::Farm(const FarmConfig& cfg) : cfg_(cfg), sessions_(cfg.workers, cfg.max_sessions) {
  if (cfg_.workers < 1) cfg_.workers = 1;
  if (cfg_.ctr_chunk_blocks == 0) cfg_.ctr_chunk_blocks = 1;
  worker_factories_.resize(static_cast<std::size_t>(cfg_.workers));
  worker_labels_.resize(static_cast<std::size_t>(cfg_.workers));
  worker_key_bits_.assign(static_cast<std::size_t>(cfg_.workers), 128);
  if (cfg_.engine_factory) {
    // Custom factories are key-size-blind: the one engine they build must
    // accept whatever key lengths the traffic carries.
    for (int i = 0; i < cfg_.workers; ++i) {
      worker_factories_[static_cast<std::size_t>(i)] =
          [make = cfg_.engine_factory](int) { return make(); };
      worker_labels_[static_cast<std::size_t>(i)] = engine_name_;
    }
  } else {
    engine_name_ = engine::kind_name(cfg_.engine);
    for (int i = 0; i < cfg_.workers; ++i) {
      const arch::VariantSpec v = variant_for_worker(i);
      worker_factories_[static_cast<std::size_t>(i)] = factory_for(cfg_.engine, v);
      worker_labels_[static_cast<std::size_t>(i)] = engine_label(cfg_.engine, v);
      worker_key_bits_[static_cast<std::size_t>(i)] = v.key_bits;
    }
  }
  worker_engine_ = std::make_unique<std::atomic<const char*>[]>(
      static_cast<std::size_t>(cfg_.workers));
  for (int i = 0; i < cfg_.workers; ++i)
    worker_engine_[static_cast<std::size_t>(i)].store(worker_labels_[static_cast<std::size_t>(i)],
                                                      std::memory_order_relaxed);
  counters_ = std::vector<WorkerCounters>(static_cast<std::size_t>(cfg_.workers));
  queues_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int i = 0; i < cfg_.workers; ++i)
    queues_.push_back(std::make_unique<BoundedQueue<Job>>(cfg_.queue_capacity));
  if (cfg_.tracing)
    tracer_ = std::make_unique<obs::Tracer>(static_cast<std::size_t>(cfg_.workers),
                                            cfg_.trace_capacity);
  start_ = std::chrono::steady_clock::now();
  threads_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int i = 0; i < cfg_.workers; ++i) {
    threads_.emplace_back([this, i] {
      char name[16];
      std::snprintf(name, sizeof name, "farm-w%d", i);
      obs::name_this_thread(name);
      worker_main(i);
    });
  }
}

Farm::~Farm() {
  for (auto& q : queues_) q->close();
  for (auto& t : threads_) t.join();
}

void Farm::validate(const Request& req) {
  if (req.mode != Mode::kCtr && req.payload.size() % aes::kBlock != 0)
    throw std::invalid_argument(std::string("farm: ") + mode_name(req.mode) +
                                " payload must be a whole number of 16-byte blocks");
}

bool Farm::fans_out(const Request& req) const {
  return req.mode == Mode::kCtr && cfg_.workers > 1 &&
         block_count(req.payload.size()) >= cfg_.ctr_fanout_min_blocks;
}

Farm::Job Farm::make_job(Request req) {
  Job job;
  static_cast<Request&>(job) = std::move(req);
  job.t_submit = std::chrono::steady_clock::now();
  return job;
}

std::future<Result> Farm::submit(Request req) {
  validate(req);
  if (fans_out(req)) return submit_fanout(std::move(req));

  const auto route = sessions_.route(req.session_id, req.key);
  Job job = make_job(std::move(req));
  auto future = job.promise.get_future();
  if (!queues_[static_cast<std::size_t>(route.worker)]->push(std::move(job)))
    throw std::runtime_error("farm: submit after shutdown");
  queue_depth_hist_.record(queues_[static_cast<std::size_t>(route.worker)]->size());
  return future;
}

std::optional<std::future<Result>> Farm::try_submit(Request req) {
  validate(req);
  const auto route = sessions_.route(req.session_id, req.key);
  Job job = make_job(std::move(req));
  auto future = job.promise.get_future();
  if (!queues_[static_cast<std::size_t>(route.worker)]->try_push(std::move(job))) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  queue_depth_hist_.record(queues_[static_cast<std::size_t>(route.worker)]->size());
  return future;
}

std::future<Result> Farm::submit_fanout(Request req) {
  const std::size_t chunk_bytes = cfg_.ctr_chunk_blocks * aes::kBlock;
  const std::size_t n_chunks = (req.payload.size() + chunk_bytes - 1) / chunk_bytes;

  auto fan = std::make_shared<FanState>();
  fan->parts.resize(n_chunks);
  fan->remaining.store(n_chunks);
  fan->total_bytes = req.payload.size();
  fan->t_submit = std::chrono::steady_clock::now();
  auto future = fan->promise.get_future();

  ctr_fanouts_.fetch_add(1, std::memory_order_relaxed);
  ctr_chunks_.fetch_add(n_chunks, std::memory_order_relaxed);

  const std::span<const std::uint8_t, aes::kBlock> iv(req.iv.data(), aes::kBlock);
  const std::span<const std::uint8_t> payload(req.payload);
  for (std::size_t c = 0; c < n_chunks; ++c) {
    const std::size_t off = c * chunk_bytes;
    const std::size_t len = std::min(chunk_bytes, req.payload.size() - off);
    Job job;
    job.mode = Mode::kCtr;
    job.encrypt = req.encrypt;
    job.key = req.key;
    job.iv = aes::ctr_counter_at(iv, static_cast<std::uint64_t>(c * cfg_.ctr_chunk_blocks));
    job.payload.assign(payload.begin() + static_cast<std::ptrdiff_t>(off),
                       payload.begin() + static_cast<std::ptrdiff_t>(off + len));
    job.fan = fan;
    job.chunk_index = c;
    job.t_submit = fan->t_submit;
    const int worker = sessions_.next_round_robin(req.key);
    if (!queues_[static_cast<std::size_t>(worker)]->push(std::move(job)))
      throw std::runtime_error("farm: submit after shutdown");
    queue_depth_hist_.record(queues_[static_cast<std::size_t>(worker)]->size());
  }
  return future;
}

std::vector<std::uint8_t> reference(const Request& req) {
  const aes::Rijndael ref = aes::Rijndael::for_key(req.key.view());
  const std::span<const std::uint8_t, aes::kBlock> iv(req.iv.data(), aes::kBlock);
  switch (req.mode) {
    case Mode::kEcb:
      return req.encrypt ? aes::ecb_encrypt(ref, req.payload) : aes::ecb_decrypt(ref, req.payload);
    case Mode::kCbc:
      return req.encrypt ? aes::cbc_encrypt(ref, iv, req.payload)
                         : aes::cbc_decrypt(ref, iv, req.payload);
    case Mode::kCtr:
      return aes::ctr_crypt(ref, iv, req.payload);
  }
  return {};
}

struct Farm::Leg {
  Job* job = nullptr;
  bool encrypt = true;    ///< the block cipher's direction (CTR: encrypt)
  std::size_t rank = 0;   ///< the key's first-use order in the drain
  std::size_t seq = 0;    ///< the job's queue order
  std::size_t blocks = 0;  ///< block-cipher inputs (CTR: counter blocks)
  std::size_t done = 0;    ///< of which a pass has run
  std::vector<std::uint8_t> out;  ///< engine output (CTR: keystream)
  std::uint64_t cycles = 0, setup = 0;
  std::uint64_t trace_us = 0, trace_ns = 0;  ///< trace event: start, share of pass time
  bool tainted = false;  ///< shared a pass with a spot-check mismatch
  bool answered = false;  ///< with its result, or with the exception a pass threw
  /// A CBC encryption: block i's input needs block i-1's output, so each
  /// pass runs one block of it.
  bool chain() const { return job->mode == Mode::kCbc && job->encrypt; }
};

struct Farm::Drain {
  std::vector<Job> jobs;
  std::vector<Leg> legs;
  std::vector<KeyBytes> keys;  ///< distinct keys of the drain, in first-use order
  std::vector<std::size_t> pass_legs;  ///< legs with blocks in the current pass
  std::vector<engine::CipherEngine::KeySpan> spans;  ///< and their blocks, one span each
  std::vector<std::uint8_t> in, out;
  std::vector<char> checked, replayed;  ///< per pass leg: spot-checked / answered by the oracle
};

void Farm::worker_main(int index) {
  WorkerContext ctx(worker_factories_[static_cast<std::size_t>(index)],
                    worker_labels_[static_cast<std::size_t>(index)],
                    static_cast<unsigned>(index),
                    worker_key_bits_[static_cast<std::size_t>(index)]);
  // All workers of one farm resolve the same backend; last write wins.
  batch_backend_.store(ctx.engine->batch_backend(), std::memory_order_relaxed);
  batch_lanes_.store(ctx.engine->batch_lanes(), std::memory_order_relaxed);
  auto& queue = *queues_[static_cast<std::size_t>(index)];
  Drain d;
  // Drain the whole queue per wake-up. Control jobs (swap/inject) are
  // barriers: the cipher jobs between two of them run together.
  while (queue.pop_all(d.jobs)) {
    std::size_t begin = 0;
    for (std::size_t i = 0; i <= d.jobs.size(); ++i) {
      if (i < d.jobs.size() && !d.jobs[i].control) continue;
      run_jobs(std::span(d.jobs).subspan(begin, i - begin), d, ctx, index);
      if (i < d.jobs.size()) d.jobs[i].control(ctx, index);  // engine mutation on its owner
      begin = i + 1;
    }
    d.jobs.clear();
  }
}

void Farm::run_jobs(std::span<Job> jobs, Drain& d, WorkerContext& ctx, int index) {
  d.legs.clear();
  d.keys.clear();
  for (auto& job : jobs) {
    if (job.payload.empty()) {  // nothing for an engine to do
      queue_wait_us_hist_.record(micros_since(job.t_submit));
      deliver(job, {}, 0, 0, false, index);
      continue;
    }
    Leg leg;
    leg.job = &job;
    leg.encrypt = job.mode == Mode::kCtr || job.encrypt;
    leg.rank = static_cast<std::size_t>(std::ranges::find(d.keys, job.key) - d.keys.begin());
    if (leg.rank == d.keys.size()) d.keys.push_back(job.key);
    leg.seq = d.legs.size();
    leg.blocks = block_count(job.payload.size());
    leg.out.resize(leg.blocks * aes::kBlock);
    d.legs.push_back(std::move(leg));
  }
  // One pass serves one key size (one engine) and one direction.  A
  // lane-packed engine takes the drain in such groups, each by key in
  // first-use order (then queue order), so a same-key engine path (the
  // CipherEngine::process_keyed default) rekeys once per key.  A one-lane
  // engine keeps queue order: sorting would reorder a client's
  // closed-loop traffic across directions and key sizes for no packing.
  const auto group = [](const Leg& l) { return std::pair(l.job->key.bits(), l.encrypt); };
  if (ctx.engine->batch_lanes() > 1)
    std::ranges::sort(d.legs, [&](const Leg& a, const Leg& b) {
      return std::tuple(group(a), a.rank, a.seq) < std::tuple(group(b), b.rank, b.seq);
    });
  for (std::size_t first = 0; first < d.legs.size();) {
    std::size_t last = first + 1;
    while (last < d.legs.size() && group(d.legs[last]) == group(d.legs[first])) ++last;
    run_packed(d, first, last, ctx, index);
    first = last;
  }
}

void Farm::run_packed(Drain& d, std::size_t first, std::size_t last, WorkerContext& ctx,
                      int index) {
  auto& ctr = counters_[static_cast<std::size_t>(index)];
  const bool encrypt = d.legs[first].encrypt;
  const int bits = d.legs[first].job->key.bits();
  // Each pass starts when the one before it ended.
  auto pass_start = std::chrono::steady_clock::now();
  for (;;) {
    while (first < last && d.legs[first].answered) ++first;
    if (first == last) return;
    // Re-resolve per pass: a heal after a mismatch replaces the engine.
    engine::CipherEngine* engp = nullptr;
    try {
      engp = &ctx.engine_for(bits);
    } catch (...) {
      for (; first < last; ++first)
        if (!d.legs[first].answered) fail(*d.legs[first].job);
      return;
    }
    engine::CipherEngine& eng = *engp;
    // A lane-packed pass takes up to batch_lanes() blocks of any open
    // legs; a one-lane engine's pass is one leg, whole, through its own
    // batch path.  Either way a chain gives one block per pass.
    const std::size_t lanes = eng.batch_lanes();
    d.pass_legs.clear();
    d.spans.clear();
    std::size_t fill = 0;
    for (std::size_t li = first; li < last; ++li) {
      Leg& leg = d.legs[li];
      if (leg.answered) continue;
      Job& job = *leg.job;
      if (leg.done == 0) queue_wait_us_hist_.record(micros_since(job.t_submit, pass_start));
      std::size_t take = leg.chain() ? 1 : leg.blocks - leg.done;
      if (lanes > 1) take = std::min(take, lanes - fill);
      d.in.resize((fill + take) * aes::kBlock);
      std::uint8_t* dst = d.in.data() + fill * aes::kBlock;
      const std::uint8_t* src = job.payload.data() + leg.done * aes::kBlock;
      if (job.mode == Mode::kCtr) {
        const std::span<const std::uint8_t, aes::kBlock> iv(job.iv.data(), aes::kBlock);
        for (std::size_t b = 0; b < take; ++b) {
          const auto c = aes::ctr_counter_at(iv, static_cast<std::uint64_t>(leg.done + b));
          std::ranges::copy(c, dst + b * aes::kBlock);
        }
      } else if (leg.chain()) {
        // Plaintext XOR the previous ciphertext (the IV for block 0).
        const std::uint8_t* prev =
            leg.done == 0 ? job.iv.data() : leg.out.data() + (leg.done - 1) * aes::kBlock;
        for (std::size_t k = 0; k < aes::kBlock; ++k) dst[k] = src[k] ^ prev[k];
      } else {
        std::copy_n(src, take * aes::kBlock, dst);
      }
      d.spans.push_back({job.key.view(), take});
      d.pass_legs.push_back(li);
      fill += take;
      if (lanes == 1 || fill == lanes) break;
    }
    d.in.resize(fill * aes::kBlock);
    d.out.resize(fill * aes::kBlock);

    // Anything the pass throws (a gate-level hang, a failed heal) answers
    // its jobs that are still open with the exception.
    try {
      const std::uint64_t p0 = eng.batch_stats().passes;
      const std::uint64_t v0 = eng.batch_stats().lane_divergences;
      const std::uint64_t u0 = eng.batch_stats().uncached_sweeps;
      eng.process_keyed(d.in, d.out, d.spans, encrypt);
      ctr.passes.fetch_add(eng.batch_stats().passes - p0, std::memory_order_relaxed);
      ctr.lane_divergences.fetch_add(eng.batch_stats().lane_divergences - v0,
                                     std::memory_order_relaxed);
      ctr.uncached_sweeps.fetch_add(eng.batch_stats().uncached_sweeps - u0,
                                    std::memory_order_relaxed);
      finish_pass(d, ctx, index);
    } catch (...) {
      for (const std::size_t li : d.pass_legs)
        if (!d.legs[li].answered) {
          d.legs[li].answered = true;
          fail(*d.legs[li].job);
        }
    }
    // The pass's wall time counts once, before its jobs are answered.  A
    // job's one trace event starts at its place in its first pass and
    // lasts its share, by blocks, of every pass it ran in.
    const auto pass_end = std::chrono::steady_clock::now();
    const auto pass_ns =
        static_cast<std::uint64_t>(std::chrono::nanoseconds(pass_end - pass_start).count());
    ctr.busy_ns.fetch_add(pass_ns, std::memory_order_relaxed);
    for (std::size_t i = 0, at = 0; i < d.pass_legs.size(); ++i) {
      Leg& leg = d.legs[d.pass_legs[i]];
      if (tracer_) {
        const std::uint64_t from = pass_ns * at / fill;
        if (leg.done == d.spans[i].blocks)  // its first pass
          leg.trace_us = micros_since(start_, pass_start) + from / 1000;
        at += d.spans[i].blocks;
        leg.trace_ns += pass_ns * at / fill - from;
      }
      if (leg.answered || leg.done < leg.blocks) continue;
      if (tracer_) {
        obs::TraceEvent e;
        e.ts_us = leg.trace_us;
        e.dur_us = static_cast<std::uint32_t>(leg.trace_ns / 1000);
        e.name = static_cast<std::uint16_t>(leg.job->mode);
        e.track = static_cast<std::uint16_t>(index);
        e.arg = leg.blocks;
        e.arg2 = leg.setup;
        tracer_->record(static_cast<std::size_t>(index), e);
      }
      leg.answered = true;
      deliver(*leg.job, std::move(leg.out), leg.cycles, leg.setup, d.replayed[i] != 0, index);
    }
    pass_start = pass_end;
  }
}

void Farm::finish_pass(Drain& d, WorkerContext& ctx, int index) {
  for (std::size_t i = 0, at = 0; i < d.pass_legs.size(); ++i) {
    Leg& leg = d.legs[d.pass_legs[i]];
    std::copy_n(d.out.data() + at * aes::kBlock, d.spans[i].blocks * aes::kBlock,
                leg.out.data() + leg.done * aes::kBlock);
    leg.done += d.spans[i].blocks;
    leg.cycles += d.spans[i].cycles;
    leg.setup += d.spans[i].setup_cycles;
    at += d.spans[i].blocks;
  }
  ctx.last_key = d.legs[d.pass_legs.back()].job->key;  // swap_engine replays it
  ctx.has_key = true;

  // Finish the legs whose last block ran in this pass: undo the mode
  // (a chain's output is already its ciphertext), then spot-check.  One
  // mismatch convicts the whole pass: every job in it is checked before
  // it is answered, then the worker heals.
  d.checked.assign(d.pass_legs.size(), 0);
  d.replayed.assign(d.pass_legs.size(), 0);
  const double base_rate = cfg_.spot_check_fraction;
  const double rate =
      ctx.boosted ? std::max(cfg_.spot_check_boost_fraction, base_rate) : base_rate;
  bool bad = false;
  for (std::size_t i = 0; i < d.pass_legs.size(); ++i) {
    Leg& leg = d.legs[d.pass_legs[i]];
    if (leg.done < leg.blocks) continue;
    const Job& job = *leg.job;
    if (job.mode == Mode::kCbc && !leg.chain()) {
      for (std::size_t k = 0; k < leg.out.size(); ++k)
        leg.out[k] ^= k < aes::kBlock ? job.iv[k] : job.payload[k - aes::kBlock];
    } else if (job.mode == Mode::kCtr) {
      leg.out.resize(job.payload.size());
      for (std::size_t k = 0; k < leg.out.size(); ++k) leg.out[k] ^= job.payload[k];
    }
    if (rate > 0.0 && ctx.sample(rate)) {
      if (ctx.boosted) spot_boost_checks_.fetch_add(1, std::memory_order_relaxed);
      d.checked[i] = 1;
      const bool clean = spot_check(job, leg.out);
      d.replayed[i] = !clean;
      bad |= !clean;
      note_check(clean, ctx);
    }
  }
  if (bad) {
    for (const std::size_t li : d.pass_legs) d.legs[li].tainted = true;
    heal_after_mismatch(ctx, index);
  }
  for (std::size_t i = 0; i < d.pass_legs.size(); ++i) {
    Leg& leg = d.legs[d.pass_legs[i]];
    if (leg.done == leg.blocks && leg.tainted && !d.checked[i])
      d.replayed[i] = !spot_check(*leg.job, leg.out);
  }
}

bool Farm::spot_check(const Job& job, std::vector<std::uint8_t>& out) {
  spot_checks_.fetch_add(1, std::memory_order_relaxed);
  auto expected = reference(job);
  if (expected == out) return true;
  spot_mismatches_.fetch_add(1, std::memory_order_relaxed);
  replayed_jobs_.fetch_add(1, std::memory_order_relaxed);
  out = std::move(expected);  // answer with the correct bytes
  return false;
}

void Farm::note_check(bool clean, WorkerContext& ctx) {
  // The adaptive controller: a mismatch raises this worker's sampling to
  // the boost rate until spot_check_decay_jobs consecutive checks come
  // back clean.
  if (!clean) {
    if (cfg_.spot_check_boost_fraction > 0.0) {
      if (!ctx.boosted) {
        ctx.boosted = true;
        spot_boosts_.fetch_add(1, std::memory_order_relaxed);
        workers_boosted_.fetch_add(1, std::memory_order_relaxed);
      }
      ctx.clean_streak = 0;
    }
  } else if (ctx.boosted && ++ctx.clean_streak >= cfg_.spot_check_decay_jobs) {
    ctx.boosted = false;
    ctx.clean_streak = 0;
    workers_boosted_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Farm::heal_after_mismatch(WorkerContext& ctx, int index) {
  if (!cfg_.heal_on_mismatch) return;
  // Quarantine-and-heal inline, between passes, on the owning thread: no
  // other thread can touch this engine, so the rebuild is race-free and
  // the next pass runs on a clean core.
  swap_pause_us_hist_.record(heal_worker(ctx, index));
  heals_.fetch_add(1, std::memory_order_relaxed);
  quarantines_.fetch_add(1, std::memory_order_relaxed);
}

void Farm::deliver(Job& job, std::vector<std::uint8_t> out, std::uint64_t cycles,
                   std::uint64_t setup, bool replayed, int index) {
  auto& ctr = counters_[static_cast<std::size_t>(index)];
  ctr.requests.fetch_add(1, std::memory_order_relaxed);
  ctr.blocks.fetch_add(block_count(job.payload.size()), std::memory_order_relaxed);
  ctr.cycles.fetch_add(cycles, std::memory_order_relaxed);
  ctr.setup_cycles.fetch_add(setup, std::memory_order_relaxed);
  if (job.fan) {
    auto& fan = *job.fan;
    fan.parts[job.chunk_index] = std::move(out);
    fan.cycles.fetch_add(cycles, std::memory_order_relaxed);
    fan.setup_cycles.fetch_add(setup, std::memory_order_relaxed);
    if (replayed) fan.replayed.store(true, std::memory_order_relaxed);
    if (fan.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      Result r;
      r.data.reserve(fan.total_bytes);
      for (auto& part : fan.parts) r.data.insert(r.data.end(), part.begin(), part.end());
      r.worker = -1;
      r.cycles = fan.cycles.load(std::memory_order_relaxed);
      r.setup_cycles = fan.setup_cycles.load(std::memory_order_relaxed);
      r.chunks = fan.parts.size();
      r.replayed = fan.replayed.load(std::memory_order_relaxed);
      record_latency(fan.t_submit);
      requests_done_.fetch_add(1, std::memory_order_relaxed);
      fan.promise.set_value(std::move(r));
    }
  } else {
    Result r;
    r.data = std::move(out);
    r.worker = index;
    r.key_was_hot = setup == 0;
    r.cycles = cycles;
    r.setup_cycles = setup;
    r.replayed = replayed;
    record_latency(job.t_submit);
    requests_done_.fetch_add(1, std::memory_order_relaxed);
    job.promise.set_value(std::move(r));
  }
}

void Farm::fail(Job& job) {
  if (job.fan) {
    // First failing chunk carries the exception; later chunks only
    // decrement so the shared state still drains.
    if (!job.fan->failed.exchange(true)) job.fan->promise.set_exception(std::current_exception());
    job.fan->remaining.fetch_sub(1, std::memory_order_acq_rel);
  } else {
    job.promise.set_exception(std::current_exception());
  }
}

// --- fleet control plane -----------------------------------------------------

arch::VariantSpec Farm::variant_for_worker(int index) const {
  if (cfg_.worker_variants.empty()) return arch::VariantSpec{};
  return cfg_.worker_variants[static_cast<std::size_t>(index) % cfg_.worker_variants.size()];
}

std::shared_ptr<const netlist::Netlist> Farm::netlist_for(const arch::VariantSpec& spec) {
  // Synthesize once per variant (and key size — the name carries the @192/
  // @256 suffix), ever: the construction-time netlists and every later
  // swap or wide-key sibling share the same immutable gate graphs. The
  // paper core keeps its dedicated slot (shared_netlist()) because the
  // chaos injector classifies fault sites against it.
  std::lock_guard lk(netlist_mu_);
  if (spec == arch::VariantSpec{}) {
    if (!shared_netlist_) shared_netlist_ = engine::make_ip_netlist(core::IpMode::kBoth);
    return shared_netlist_;
  }
  auto& slot = variant_netlists_[spec.name()];
  if (!slot) slot = engine::make_variant_netlist(spec, core::IpMode::kBoth);
  return slot;
}

std::function<std::unique_ptr<engine::CipherEngine>(int)> Farm::factory_for(
    engine::EngineKind kind, const arch::VariantSpec& variant) {
  switch (kind) {
    case engine::EngineKind::kSoftware:
      // Variant- and geometry-blind: one software engine runs any key size.
      return [](int) -> std::unique_ptr<engine::CipherEngine> {
        return std::make_unique<engine::SoftwareEngine>(core::IpMode::kBoth);
      };
    case engine::EngineKind::kBehavioral:
      return [variant](int key_bits) -> std::unique_ptr<engine::CipherEngine> {
        arch::VariantSpec v = variant;
        v.key_bits = key_bits;
        return std::make_unique<engine::BehavioralEngine>(v, core::IpMode::kBoth);
      };
    case engine::EngineKind::kNetlist: {
      // Pre-synthesize the variant's own geometry so swap_engine pays the
      // synthesis on the control plane; other key sizes synthesize lazily
      // (on the worker, first wide-key job) into the same cache.
      netlist_for(variant);
      return [this, variant](int key_bits) -> std::unique_ptr<engine::CipherEngine> {
        arch::VariantSpec v = variant;
        v.key_bits = key_bits;
        return std::make_unique<engine::NetlistEngine>(netlist_for(v), v, core::IpMode::kBoth);
      };
    }
  }
  throw std::invalid_argument("farm: unknown engine kind");
}

void Farm::push_control(int worker, std::function<void(WorkerContext&, int)> fn) {
  if (worker < 0 || worker >= cfg_.workers)
    throw std::out_of_range("farm: worker index out of range");
  Job job;
  job.control = std::move(fn);
  job.t_submit = std::chrono::steady_clock::now();
  if (!queues_[static_cast<std::size_t>(worker)]->push_front(std::move(job)))
    throw std::runtime_error("farm: control after shutdown");
}

std::uint64_t Farm::heal_worker(WorkerContext& ctx, int index) {
  const auto t0 = std::chrono::steady_clock::now();
  auto fresh = ctx.factory(ctx.primary_bits);
  ctx.adopt(std::move(fresh), {}, nullptr, 0);  // same kind, factory, geometry
  // Replay the key onto the engine that matches its size (a sibling is
  // rebuilt lazily here when the last key was a different geometry).
  if (ctx.has_key) ctx.engine_for(ctx.last_key.bits()).load_key(ctx.last_key.view());
  worker_engine_[static_cast<std::size_t>(index)].store(ctx.label, std::memory_order_relaxed);
  return micros_since(t0);
}

std::future<SwapReport> Farm::swap_engine(int worker, engine::EngineKind kind) {
  return swap_engine(worker, kind, arch::VariantSpec{});
}

std::future<SwapReport> Farm::swap_engine(int worker, engine::EngineKind kind,
                                          const arch::VariantSpec& variant) {
  auto factory = factory_for(kind, variant);  // synthesis (if any) happens HERE, not on the worker
  const char* label = engine_label(kind, variant);
  const int primary_bits = variant.key_bits;
  auto prom = std::make_shared<std::promise<SwapReport>>();
  auto future = prom->get_future();
  push_control(worker, [this, factory = std::move(factory), label, primary_bits,
                        prom](WorkerContext& ctx, int index) {
    try {
      SwapReport rep;
      rep.worker = index;
      rep.from = ctx.label;
      rep.to = label;
      const auto t0 = std::chrono::steady_clock::now();
      auto fresh = factory(primary_bits);
      ctx.adopt(std::move(fresh), factory, label, primary_bits);
      if (ctx.has_key) {
        rep.setup_cycles = ctx.engine_for(ctx.last_key.bits()).load_key(ctx.last_key.view());
        rep.key_replayed = true;
      }
      rep.pause_us = micros_since(t0);
      swap_pause_us_hist_.record(rep.pause_us);
      swaps_.fetch_add(1, std::memory_order_relaxed);
      worker_engine_[static_cast<std::size_t>(index)].store(label, std::memory_order_relaxed);
      prom->set_value(std::move(rep));
    } catch (...) {
      prom->set_exception(std::current_exception());
    }
  });
  return future;
}

std::future<bool> Farm::inject_fault(int worker, std::size_t site) {
  auto prom = std::make_shared<std::promise<bool>>();
  auto future = prom->get_future();
  push_control(worker, [prom, site](WorkerContext& ctx, int /*index*/) {
    try {
      prom->set_value(ctx.engine->inject_fault(site));
    } catch (...) {
      prom->set_exception(std::current_exception());
    }
  });
  return future;
}

void Farm::set_worker_enabled(int worker, bool enabled) {
  if (worker < 0 || worker >= cfg_.workers)
    throw std::out_of_range("farm: worker index out of range");
  const bool was = sessions_.worker_enabled(worker);
  sessions_.set_worker_enabled(worker, enabled);
  if (was && !enabled) quarantines_.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const netlist::Netlist> Farm::shared_netlist() const {
  std::lock_guard lk(netlist_mu_);
  return shared_netlist_;
}

void Farm::record_latency(std::chrono::steady_clock::time_point t_submit) {
  latency_us_hist_.record(micros_since(t_submit));
}

FarmStats Farm::stats() const {
  FarmStats s;
  s.workers = cfg_.workers;
  s.engine = engine_name_;
  if (const char* bb = batch_backend_.load(std::memory_order_relaxed)) {
    s.batch_backend = bb;
    s.batch_lanes = batch_lanes_.load(std::memory_order_relaxed);
  }
  s.queue_capacity = cfg_.queue_capacity;
  s.requests = requests_done_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.ctr_fanouts = ctr_fanouts_.load(std::memory_order_relaxed);
  s.ctr_chunks = ctr_chunks_.load(std::memory_order_relaxed);

  const auto sc = sessions_.counters();
  s.key_hits = sc.key_hits;
  s.key_loads = sc.key_loads;
  s.session_evictions = sc.session_evictions;
  s.sessions_live = sc.sessions_live;

  s.swaps = swaps_.load(std::memory_order_relaxed);
  s.heals = heals_.load(std::memory_order_relaxed);
  s.quarantines = quarantines_.load(std::memory_order_relaxed);
  s.spot_checks = spot_checks_.load(std::memory_order_relaxed);
  s.spot_mismatches = spot_mismatches_.load(std::memory_order_relaxed);
  s.replayed_jobs = replayed_jobs_.load(std::memory_order_relaxed);
  s.spot_boosts = spot_boosts_.load(std::memory_order_relaxed);
  s.spot_boost_checks = spot_boost_checks_.load(std::memory_order_relaxed);
  s.workers_boosted = workers_boosted_.load(std::memory_order_relaxed);
  s.sessions_migrated = sc.sessions_migrated;
  s.workers_enabled = sessions_.workers_enabled();
  s.swap_pause_us = swap_pause_us_hist_.snapshot();

  s.queue_depth = queue_depth_hist_.snapshot();
  s.queue_wait_us = queue_wait_us_hist_.snapshot();
  if (tracer_) {
    s.trace_events = tracer_->recorded();
    s.trace_dropped = tracer_->dropped();
  }

  s.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  const double wall_ns = s.wall_seconds * 1e9;

  s.per_worker.reserve(counters_.size());
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    WorkerStats w;
    w.requests = counters_[i].requests.load(std::memory_order_relaxed);
    w.blocks = counters_[i].blocks.load(std::memory_order_relaxed);
    w.cycles = counters_[i].cycles.load(std::memory_order_relaxed);
    w.setup_cycles = counters_[i].setup_cycles.load(std::memory_order_relaxed);
    w.busy_ns = counters_[i].busy_ns.load(std::memory_order_relaxed);
    w.passes = counters_[i].passes.load(std::memory_order_relaxed);
    w.lane_divergences = counters_[i].lane_divergences.load(std::memory_order_relaxed);
    w.uncached_sweeps = counters_[i].uncached_sweeps.load(std::memory_order_relaxed);
    w.utilization = wall_ns > 0 ? static_cast<double>(w.busy_ns) / wall_ns : 0.0;
    w.engine = worker_engine_[i].load(std::memory_order_relaxed);
    w.enabled = sessions_.worker_enabled(static_cast<int>(i));
    s.blocks += w.blocks;
    s.total_cycles += w.cycles;
    s.total_setup_cycles += w.setup_cycles;
    s.max_worker_cycles = std::max(s.max_worker_cycles, w.cycles);
    s.per_worker.push_back(w);
    s.queue_high_water = std::max(s.queue_high_water, queues_[i]->high_water());
  }

  s.latency_us = latency_us_hist_.snapshot();
  return s;
}

bool Farm::write_chrome_trace(std::ostream& os) const {
  if (!tracer_) return false;
  tracer_->write_chrome_trace(os, kTraceNames, "aesip farm");
  return true;
}

// --- FarmStats rendering ----------------------------------------------------------

namespace {

/// f(name, s.field...) for every counter merge_from() adds, each named
/// once; write_json() writes them under these names, in this order. Gauges
/// that count resources (workers, sessions_live, queue_capacity,
/// workers_enabled) add like counters.
template <class F, class... S>
void for_each_summed(F&& f, S&... s) {
  f("workers", s.workers...);
  f("requests", s.requests...);
  f("blocks", s.blocks...);
  f("rejected", s.rejected...);
  f("ctr_fanouts", s.ctr_fanouts...);
  f("ctr_chunks", s.ctr_chunks...);
  f("key_hits", s.key_hits...);
  f("key_loads", s.key_loads...);
  f("session_evictions", s.session_evictions...);
  f("sessions_live", s.sessions_live...);
  f("queue_capacity", s.queue_capacity...);
  f("trace_events", s.trace_events...);
  f("trace_dropped", s.trace_dropped...);
  f("swaps", s.swaps...);
  f("heals", s.heals...);
  f("quarantines", s.quarantines...);
  f("spot_checks", s.spot_checks...);
  f("spot_mismatches", s.spot_mismatches...);
  f("replayed_jobs", s.replayed_jobs...);
  f("spot_boosts", s.spot_boosts...);
  f("spot_boost_checks", s.spot_boost_checks...);
  f("workers_boosted", s.workers_boosted...);
  f("sessions_migrated", s.sessions_migrated...);
  f("workers_enabled", s.workers_enabled...);
  f("total_cycles", s.total_cycles...);
  f("total_setup_cycles", s.total_setup_cycles...);
}

/// The histograms: merged exactly (log2 buckets align) and written alike.
constexpr std::pair<const char*, obs::HistogramSnapshot FarmStats::*> kHistograms[] = {
    {"queue_depth", &FarmStats::queue_depth},
    {"queue_wait_us", &FarmStats::queue_wait_us},
    {"swap_pause_us", &FarmStats::swap_pause_us},
    {"latency_us", &FarmStats::latency_us},
};

}  // namespace

void FarmStats::merge_from(const FarmStats& other) {
  if (other.batch_lanes > batch_lanes) {
    batch_lanes = other.batch_lanes;
    batch_backend = other.batch_backend;
  }
  if (engine.empty())
    engine = other.engine;
  else if (!other.engine.empty() && other.engine != engine)
    engine = "mixed";

  for_each_summed([](const char*, auto& mine, const auto& theirs) { mine += theirs; }, *this,
                  other);
  for (const auto& [name, h] : kHistograms) (this->*h).merge(other.*h);

  // Nodes run concurrently: the cluster's wall time is the longest node's,
  // and the simulated makespan is the slowest core anywhere.
  queue_high_water = std::max(queue_high_water, other.queue_high_water);
  wall_seconds = std::max(wall_seconds, other.wall_seconds);
  max_worker_cycles = std::max(max_worker_cycles, other.max_worker_cycles);

  per_worker.insert(per_worker.end(), other.per_worker.begin(), other.per_worker.end());
}

std::string FarmStats::report(double clock_ns) const {
  char line[192];
  std::string out;
  const auto add = [&](const char* fmt, auto... args) {
    std::snprintf(line, sizeof line, fmt, args...);
    out += line;
  };
  add("farm: %d workers (%s engine), queue capacity %zu (high water %zu)\n", workers,
      engine.c_str(), queue_capacity, queue_high_water);
  add("  batch:     %s backend, %zu lanes per engine pass\n", batch_backend.c_str(),
      batch_lanes);
  if (queue_depth.count)
    add("  queues:    depth p50 %llu p99 %llu max %llu; wait p50 %llu us p99 %llu us "
        "max %llu us\n",
        static_cast<unsigned long long>(queue_depth.percentile(0.50)),
        static_cast<unsigned long long>(queue_depth.percentile(0.99)),
        static_cast<unsigned long long>(queue_depth.max),
        static_cast<unsigned long long>(queue_wait_us.percentile(0.50)),
        static_cast<unsigned long long>(queue_wait_us.percentile(0.99)),
        static_cast<unsigned long long>(queue_wait_us.max));
  add("  traffic:   %llu requests, %llu blocks, %llu rejected (backpressure)\n",
      static_cast<unsigned long long>(requests), static_cast<unsigned long long>(blocks),
      static_cast<unsigned long long>(rejected));
  add("  ctr:       %llu fan-outs -> %llu chunks\n",
      static_cast<unsigned long long>(ctr_fanouts), static_cast<unsigned long long>(ctr_chunks));
  add("  affinity:  %llu key hits / %llu loads (%.1f%% hit), %llu live sessions, "
      "%llu evictions\n",
      static_cast<unsigned long long>(key_hits), static_cast<unsigned long long>(key_loads),
      key_hit_rate() * 100.0, static_cast<unsigned long long>(sessions_live),
      static_cast<unsigned long long>(session_evictions));
  if (swaps || heals || quarantines || spot_checks)
    add("  fleet:     %llu swaps, %llu heals, %llu quarantines (%d/%d workers enabled); "
        "spot-check %llu/%llu mismatched, %llu replayed, %llu sessions migrated\n",
        static_cast<unsigned long long>(swaps), static_cast<unsigned long long>(heals),
        static_cast<unsigned long long>(quarantines), workers_enabled, workers,
        static_cast<unsigned long long>(spot_mismatches),
        static_cast<unsigned long long>(spot_checks),
        static_cast<unsigned long long>(replayed_jobs),
        static_cast<unsigned long long>(sessions_migrated));
  if (spot_boosts)
    add("  adaptive:  %llu boost episodes, %llu boosted checks, %d workers boosted now\n",
        static_cast<unsigned long long>(spot_boosts),
        static_cast<unsigned long long>(spot_boost_checks), workers_boosted);
  add("  simulated: %.2f cycles/block (ideal 50), %llu setup cycles, makespan %llu cycles\n",
      cycles_per_block(), static_cast<unsigned long long>(total_setup_cycles),
      static_cast<unsigned long long>(max_worker_cycles));
  add("  hardware:  %.1f Mbps aggregate @ %.0f ns clock (%.0f blocks/s across %d cores)\n",
      sim_mbps(clock_ns), clock_ns, sim_blocks_per_sec(clock_ns), workers);
  add("  host:      %.0f blocks/s wall clock over %.2f s\n", blocks_per_wall_sec(),
      wall_seconds);
  if (latency_us.count)
    add("  latency:   p50 %llu us, p90 %llu us, p99 %llu us, max %llu us (%llu samples)\n",
        static_cast<unsigned long long>(latency_us.percentile(0.50)),
        static_cast<unsigned long long>(latency_us.percentile(0.90)),
        static_cast<unsigned long long>(latency_us.percentile(0.99)),
        static_cast<unsigned long long>(latency_us.max),
        static_cast<unsigned long long>(latency_us.count));
  if (trace_events)
    add("  trace:     %llu events recorded, %llu overwritten by ring wrap\n",
        static_cast<unsigned long long>(trace_events),
        static_cast<unsigned long long>(trace_dropped));
  for (std::size_t i = 0; i < per_worker.size(); ++i)
    add("  worker %2zu: %8llu blocks in %llu passes, %10llu cycles (%llu setup), %4.1f%% "
        "utilized [%s%s]\n",
        i, static_cast<unsigned long long>(per_worker[i].blocks),
        static_cast<unsigned long long>(per_worker[i].passes),
        static_cast<unsigned long long>(per_worker[i].cycles),
        static_cast<unsigned long long>(per_worker[i].setup_cycles),
        per_worker[i].utilization * 100.0, per_worker[i].engine.c_str(),
        per_worker[i].enabled ? "" : ", quarantined");
  return out;
}

void FarmStats::write_json(report::JsonWriter& j, double clock_ns) const {
  j.begin_object();
  if (!node.empty()) j.key("node").value(node);
  j.key("engine").value(engine);
  j.key("batch_backend").value(batch_backend);
  j.key("batch_lanes").value(batch_lanes);
  for_each_summed([&](const char* name, const auto& v) { j.key(name).value(v); }, *this);
  j.key("key_hit_rate").value(key_hit_rate());
  j.key("queue_high_water").value(queue_high_water);
  j.key("max_worker_cycles").value(max_worker_cycles);
  j.key("cycles_per_block").value(cycles_per_block());
  j.key("clock_ns").value(clock_ns);
  j.key("sim_blocks_per_sec").value(sim_blocks_per_sec(clock_ns));
  j.key("sim_mbps").value(sim_mbps(clock_ns));
  j.key("wall_seconds").value(wall_seconds);
  j.key("blocks_per_wall_sec").value(blocks_per_wall_sec());
  for (const auto& [name, h] : kHistograms) {
    j.key(name);
    obs::write_histogram_json(j, this->*h);
  }
  j.key("per_worker").begin_array();
  for (const auto& w : per_worker) {
    j.begin_object();
    j.key("requests").value(w.requests);
    j.key("blocks").value(w.blocks);
    j.key("cycles").value(w.cycles);
    j.key("setup_cycles").value(w.setup_cycles);
    j.key("busy_ns").value(w.busy_ns);
    j.key("passes").value(w.passes);
    j.key("lane_divergences").value(w.lane_divergences);
    j.key("uncached_sweeps").value(w.uncached_sweeps);
    j.key("utilization").value(w.utilization);
    j.key("engine").value(w.engine);
    j.key("enabled").value(w.enabled);
    j.end_object();
  }
  j.end_array();
  j.end_object();
}

}  // namespace aesip::farm
