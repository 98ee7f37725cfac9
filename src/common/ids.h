// Identity types shared across the OBIWAN stack.
//
// Every process ("site" in the paper's vocabulary) has a SiteId; every master
// object exported by a site gets an ObjectId that is globally unique because it
// embeds the creating site. Proxy-in entries (the provider-side half of a
// proxy pair, paper §2) get ProxyIds scoped the same way.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace obiwan {

using SiteId = std::uint32_t;

inline constexpr SiteId kInvalidSite = 0;  // site ids start at 1

// Globally unique identity of a *master* object. Replicas of the same master
// on other sites share the master's ObjectId — this is what makes identity
// preservation (no duplicate replicas of one master) checkable.
struct ObjectId {
  SiteId site = kInvalidSite;  // site that created / owns the master
  std::uint64_t local = 0;     // per-site counter, starts at 1

  bool valid() const { return site != kInvalidSite && local != 0; }

  friend bool operator==(const ObjectId&, const ObjectId&) = default;
  friend auto operator<=>(const ObjectId&, const ObjectId&) = default;
};

inline std::ostream& operator<<(std::ostream& os, const ObjectId& id) {
  return os << "obj(" << id.site << ":" << id.local << ")";
}

inline std::string ToString(const ObjectId& id) {
  return "obj(" + std::to_string(id.site) + ":" + std::to_string(id.local) + ")";
}

// Identity of a proxy-in registered in a provider's exporter table. One is
// created per boundary reference during incremental replication (or one per
// cluster in cluster mode, §2.2 / §4.3).
struct ProxyId {
  SiteId site = kInvalidSite;  // provider site holding the proxy-in
  std::uint64_t local = 0;

  bool valid() const { return site != kInvalidSite && local != 0; }

  friend bool operator==(const ProxyId&, const ProxyId&) = default;
  friend auto operator<=>(const ProxyId&, const ProxyId&) = default;
};

inline std::ostream& operator<<(std::ostream& os, const ProxyId& id) {
  return os << "pin(" << id.site << ":" << id.local << ")";
}

// Correlation id of one distributed flow (an RMI, a fault cascade, a
// reintegration). Allocated at the call origin, carried in the request
// envelope across every hop, and recorded with each site's trace events so a
// merged timeline can be filtered back down to a single end-to-end flow.
struct TraceId {
  SiteId site = kInvalidSite;  // site that originated the flow
  std::uint64_t seq = 0;       // per-process counter, starts at 1

  bool valid() const { return site != kInvalidSite && seq != 0; }

  friend bool operator==(const TraceId&, const TraceId&) = default;
  friend auto operator<=>(const TraceId&, const TraceId&) = default;
};

inline std::ostream& operator<<(std::ostream& os, const TraceId& id) {
  return os << "trace(" << id.site << ":" << id.seq << ")";
}

inline std::string ToString(const TraceId& id) {
  return "trace(" + std::to_string(id.site) + ":" + std::to_string(id.seq) + ")";
}

struct ObjectIdHash {
  std::size_t operator()(const ObjectId& id) const {
    return std::hash<std::uint64_t>{}((std::uint64_t{id.site} << 40) ^ id.local);
  }
};

// A set of valid ObjectIds in one flat array (open addressing, linear
// probing): no node per member, so a reserved set inserts without
// allocating.
class FlatIdSet {
 public:
  // Room for `n` members without growing.
  void reserve(std::size_t n) {
    if (2 * n > slots_.size()) Rehash(std::bit_ceil(2 * n));
  }

  // Never true for the invalid id, which marks an empty slot.
  bool contains(const ObjectId& id) const {
    if (slots_.empty() || !id.valid()) return false;
    for (std::size_t i = Home(id);; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i] == id) return true;
      if (!slots_[i].valid()) return false;
    }
  }

  // False if `id` was a member already.
  bool insert(const ObjectId& id) {
    assert(id.valid());
    if (2 * (size_ + 1) > slots_.size()) {
      Rehash(std::max<std::size_t>(16, 2 * slots_.size()));
    }
    for (std::size_t i = Home(id);; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i] == id) return false;
      if (!slots_[i].valid()) {
        slots_[i] = id;
        ++size_;
        return true;
      }
    }
  }

 private:
  // Fibonacci hashing: a multiply spreads ids that share low bits.
  std::size_t Home(const ObjectId& id) const {
    const std::uint64_t h = ObjectIdHash{}(id) * 0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(h >> 32) & (slots_.size() - 1);
  }

  void Rehash(std::size_t capacity) {
    std::vector<ObjectId> old =
        std::exchange(slots_, std::vector<ObjectId>(capacity));
    size_ = 0;
    for (const ObjectId& id : old) {
      if (id.valid()) insert(id);
    }
  }

  std::vector<ObjectId> slots_;  // invalid id = empty; size a power of two
  std::size_t size_ = 0;
};

struct ProxyIdHash {
  std::size_t operator()(const ProxyId& id) const {
    return std::hash<std::uint64_t>{}((std::uint64_t{id.site} << 40) ^
                                      (id.local * 0x9E3779B97F4A7C15ull));
  }
};

}  // namespace obiwan
