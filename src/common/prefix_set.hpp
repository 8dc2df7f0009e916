// PrefixSet — a set of u64 indices (epochs) that are mostly inserted in
// order: a contiguous prefix [0, prefix()) plus the out-of-order members
// above it. Each in-order insert advances the watermark and absorbs any
// members it reaches, so a set that fills in order costs O(1) memory no
// matter how many indices it has seen; only members above a hole cost a
// node each.
#pragma once

#include <cstdint>
#include <set>

namespace dl {

class PrefixSet {
 public:
  bool contains(std::uint64_t i) const {
    return i < prefix_ || above_.contains(i);
  }

  // Returns true if `i` was not yet a member.
  bool insert(std::uint64_t i) {
    if (i < prefix_) return false;
    if (i > prefix_) return above_.insert(i).second;
    ++prefix_;
    while (!above_.empty() && *above_.begin() == prefix_) {
      above_.erase(above_.begin());
      ++prefix_;
    }
    return true;
  }

  // Every index below the watermark is a member; prefix() itself is not.
  std::uint64_t prefix() const { return prefix_; }

 private:
  std::uint64_t prefix_ = 0;
  std::set<std::uint64_t> above_;  // members above the first hole
};

}  // namespace dl
