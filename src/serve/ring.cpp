#include "serve/ring.h"

#include <algorithm>

#include "support/strings.h"
#include "support/trace.h"

namespace prose::serve {

HashRing::HashRing(std::vector<std::string> nodes) : nodes_(std::move(nodes)) {
  seeds_.reserve(nodes_.size());
  for (const std::string& n : nodes_) seeds_.push_back(fnv1a64(n));
}

std::size_t HashRing::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i] == name) return i;
  }
  return npos;
}

std::vector<std::size_t> HashRing::successors(std::uint64_t key,
                                              std::size_t r) const {
  struct Scored {
    std::uint64_t score;
    std::size_t index;
  };
  std::vector<Scored> scored;
  scored.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    // splitmix64 finalizer of (node seed, key): FNV over the name alone
    // clusters for similar names; the full-avalanche mix erases that.
    scored.push_back(Scored{trace::mix64(seeds_[i] ^ key), i});
  }
  // Descending score; index ties (two nodes with identical names) break low
  // index first so duplicate entries still order deterministically.
  std::sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    return a.score != b.score ? a.score > b.score : a.index < b.index;
  });
  std::vector<std::size_t> out;
  out.reserve(std::min(r, scored.size()));
  for (const Scored& s : scored) {
    if (out.size() >= r) break;
    out.push_back(s.index);
  }
  return out;
}

std::size_t HashRing::home(std::uint64_t key) const {
  const auto s = successors(key, 1);
  return s.empty() ? npos : s[0];
}

}  // namespace prose::serve
