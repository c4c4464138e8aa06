#include "cluster/ring.hpp"

namespace aesip::cluster {

std::uint64_t hash64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t hash64(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return hash64(h);
}

Ring::Ring(std::size_t vnodes) : vnodes_(vnodes == 0 ? 1 : vnodes) {}

void Ring::add_node(const std::string& node_id) {
  if (nodes_.count(node_id)) return;
  std::size_t placed = 0;
  for (std::size_t i = 0; i < vnodes_; ++i) {
    // Point position depends only on (node_id, i): every node computes the
    // identical circle from the same membership. Collisions (astronomically
    // rare on 64 bits) just drop a point; ownership stays consistent
    // because whichever node won the slot keeps it deterministically.
    const auto pos = hash64(node_id + "#" + std::to_string(i));
    if (points_.emplace(pos, node_id).second) ++placed;
  }
  nodes_[node_id] = placed;
}

void Ring::remove_node(const std::string& node_id) {
  if (!nodes_.erase(node_id)) return;
  for (auto it = points_.begin(); it != points_.end();)
    it = (it->second == node_id) ? points_.erase(it) : ++it;
}

const std::string& Ring::owner(std::uint64_t session_id) const {
  static const std::string kEmpty;
  if (points_.empty()) return kEmpty;
  // First point clockwise from the key's position, wrapping to the lowest
  // point past the top of the circle.
  auto it = points_.lower_bound(hash64(session_id));
  if (it == points_.end()) it = points_.begin();
  return it->second;
}

bool Ring::contains(const std::string& node_id) const { return nodes_.count(node_id) != 0; }

}  // namespace aesip::cluster
