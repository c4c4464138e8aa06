#include "farm/session.hpp"

#include <algorithm>

namespace aesip::farm {

SessionTable::SessionTable(int workers, std::size_t max_sessions)
    : slots_(workers > 0 ? static_cast<std::size_t>(workers) : 1),
      max_sessions_(max_sessions ? max_sessions : 1) {}

int SessionTable::touch_slot_with_key_locked(const KeyBytes& key) {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].enabled && slots_[i].key && *slots_[i].key == key) {
      slots_[i].last_used = ++tick_;
      return static_cast<int>(i);
    }
  }
  return -1;
}

int SessionTable::evict_lru_slot_locked(const KeyBytes& key) {
  // LRU victim among enabled slots; if every worker is disabled, fall back
  // to a plain LRU over all of them — routing must never deadlock.
  std::size_t victim = slots_.size();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].enabled) continue;
    if (victim == slots_.size() || slots_[i].last_used < slots_[victim].last_used) victim = i;
  }
  if (victim == slots_.size()) {
    victim = 0;
    for (std::size_t i = 1; i < slots_.size(); ++i)
      if (slots_[i].last_used < slots_[victim].last_used) victim = i;
  }
  slots_[victim].key = key;
  slots_[victim].last_used = ++tick_;
  return static_cast<int>(victim);
}

void SessionTable::insert_session_locked(std::uint64_t session_id, const KeyBytes& key,
                                         int worker) {
  if (sessions_.size() >= max_sessions_ && !sessions_.count(session_id)) {
    auto lru = sessions_.begin();
    for (auto it = sessions_.begin(); it != sessions_.end(); ++it)
      if (it->second.last_used < lru->second.last_used) lru = it;
    sessions_.erase(lru);
    ++counters_.session_evictions;
  }
  auto& s = sessions_[session_id];
  s.key = key;
  s.worker = worker;
  s.last_used = ++tick_;
}

SessionTable::Route SessionTable::route(std::uint64_t session_id, const KeyBytes& key) {
  std::lock_guard lk(mu_);
  Route r;

  const auto it = sessions_.find(session_id);
  if (it != sessions_.end() && it->second.key == key) {
    // Known session. Its preferred worker may have been re-keyed under
    // another session since — follow the key, not the stale binding.
    const int prev = it->second.worker;
    const int w = touch_slot_with_key_locked(key);
    r.worker = w >= 0 ? w : evict_lru_slot_locked(key);
    r.key_hot = w >= 0;
    if (r.worker != prev && prev >= 0 && prev < static_cast<int>(slots_.size()) &&
        !slots_[static_cast<std::size_t>(prev)].enabled)
      ++counters_.sessions_migrated;  // its old worker is quarantined
    it->second.worker = r.worker;
    it->second.last_used = ++tick_;
  } else {
    // New session (or an existing one that changed its key: treat as new).
    const int w = touch_slot_with_key_locked(key);
    r.worker = w >= 0 ? w : evict_lru_slot_locked(key);
    r.key_hot = w >= 0;
    insert_session_locked(session_id, key, r.worker);
  }

  if (r.key_hot)
    ++counters_.key_hits;
  else
    ++counters_.key_loads;
  counters_.sessions_live = sessions_.size();
  return r;
}

int SessionTable::next_round_robin(const KeyBytes& key) {
  std::lock_guard lk(mu_);
  // Skip quarantined workers; after a full lap with none enabled, take the
  // next slot regardless (same never-deadlock fallback as routing).
  int w = rr_next_;
  for (std::size_t tries = 0; tries < slots_.size(); ++tries) {
    if (slots_[static_cast<std::size_t>(w)].enabled) break;
    w = (w + 1) % static_cast<int>(slots_.size());
  }
  rr_next_ = (w + 1) % static_cast<int>(slots_.size());
  auto& slot = slots_[static_cast<std::size_t>(w)];
  if (slot.key && *slot.key == key)
    ++counters_.key_hits;
  else
    ++counters_.key_loads;
  slot.key = key;
  slot.last_used = ++tick_;
  return w;
}

void SessionTable::set_worker_enabled(int worker, bool enabled) {
  std::lock_guard lk(mu_);
  if (worker < 0 || worker >= static_cast<int>(slots_.size())) return;
  slots_[static_cast<std::size_t>(worker)].enabled = enabled;
}

bool SessionTable::worker_enabled(int worker) const {
  std::lock_guard lk(mu_);
  if (worker < 0 || worker >= static_cast<int>(slots_.size())) return false;
  return slots_[static_cast<std::size_t>(worker)].enabled;
}

int SessionTable::workers_enabled() const {
  std::lock_guard lk(mu_);
  int n = 0;
  for (const auto& s : slots_)
    if (s.enabled) ++n;
  return n;
}

void SessionTable::end_session(std::uint64_t session_id) {
  std::lock_guard lk(mu_);
  sessions_.erase(session_id);
  counters_.sessions_live = sessions_.size();
}

SessionTable::Counters SessionTable::counters() const {
  std::lock_guard lk(mu_);
  return counters_;
}

}  // namespace aesip::farm
