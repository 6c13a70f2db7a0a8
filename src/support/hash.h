// Hash composition helpers for flat cache keys (the synthesis engine's
// memoized schedulability gate keys on (host, task-bitset) pairs).
#ifndef LRT_SUPPORT_HASH_H_
#define LRT_SUPPORT_HASH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace lrt {

/// Mixes `value` into `seed` (boost::hash_combine's 64-bit variant with
/// the splitmix64 finalizer — good diffusion for small integer keys).
inline std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t value) {
  std::uint64_t z = value + 0x9E3779B97F4A7C15ull + (seed << 6) + (seed >> 2);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return seed ^ (z ^ (z >> 31));
}

/// Hash of a word span (order-sensitive).
inline std::uint64_t hash_words(std::span<const std::uint64_t> words,
                                std::uint64_t seed = 0) {
  for (const std::uint64_t w : words) seed = hash_combine(seed, w);
  return seed;
}

/// FNV-1a state over a byte stream fed in pieces: updating with the
/// pieces of `bytes` in order, then finish(seed), equals
/// hash_bytes(bytes, seed).
class Fnv1a {
 public:
  void update(std::string_view bytes) {
    for (const char c : bytes) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001B3ull;  // FNV prime
    }
  }
  [[nodiscard]] std::uint64_t finish(std::uint64_t seed = 0) const {
    return hash_combine(seed, h_);
  }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;  // FNV offset basis
};

/// FNV-1a over a byte string, finished through hash_combine so short
/// inputs still diffuse into all 64 bits. Deterministic across
/// processes and platforms — safe for persistent fingerprints
/// (lrt::Workload::fingerprint keys the lrtd evaluator cache on it).
inline std::uint64_t hash_bytes(std::string_view bytes,
                                std::uint64_t seed = 0) {
  Fnv1a fnv;
  fnv.update(bytes);
  return fnv.finish(seed);
}

}  // namespace lrt

#endif  // LRT_SUPPORT_HASH_H_
