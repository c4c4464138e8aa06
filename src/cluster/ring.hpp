// cluster::Ring — consistent-hash sharding of session ids across nodes.
//
// Each node is hashed onto a 64-bit circle at `vnodes` points (virtual
// nodes smooth the load: with one point per node, removing a node dumps
// its whole arc on a single successor; with 64, the arc shatters into 64
// slivers spread over everyone). A session id hashes to one point on the
// same circle and is owned by the first node point at or clockwise after
// it, wrapping at the top.
//
// The property the cluster leans on: adding or removing one node moves
// only the keys on the arcs that node's points covered — every other
// session keeps its owner, so a membership change re-homes ~1/N of the
// sessions instead of reshuffling all of them (test_cluster.cpp pins
// this). Ownership is a pure function of (membership, session_id): every
// node that agrees on the member list agrees on every owner, with no
// coordination beyond the gossip that syncs the list.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace aesip::cluster {

/// splitmix64 finalizer: cheap, well-mixed, stable across platforms.
std::uint64_t hash64(std::uint64_t x) noexcept;

/// FNV-1a over a string, then finalized — used for node-point placement.
std::uint64_t hash64(std::string_view s) noexcept;

class Ring {
 public:
  explicit Ring(std::size_t vnodes = 64);

  void add_node(const std::string& node_id);
  void remove_node(const std::string& node_id);

  /// The node owning this session, or "" when the ring is empty.
  const std::string& owner(std::uint64_t session_id) const;

  bool contains(const std::string& node_id) const;
  std::size_t node_count() const noexcept { return nodes_.size(); }
  std::size_t vnodes() const noexcept { return vnodes_; }

 private:
  std::size_t vnodes_;
  std::map<std::uint64_t, std::string> points_;  ///< circle position -> node
  std::map<std::string, std::size_t> nodes_;     ///< node -> points placed
};

}  // namespace aesip::cluster
