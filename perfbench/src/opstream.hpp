// Seeded op-stream generators. Each generator is a pure function of
// (seed, rank, lane): it decides the next op and keeps the model of what
// the program must return, so the stream never depends on timing and the
// same seed always replays the same ops (checked by perfbench_selftest).
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

// ------------------------------------------------------------- payloads

// A fixed block of seeded random bytes. Values and transfer payloads are
// windows into it, so generating an op costs no byte generation, and two
// different windows differ with overwhelming probability (the bytes are
// not periodic).
class Pattern {
 public:
  Pattern(std::uint64_t seed, std::size_t bytes) : bytes_(bytes) {
    Rng rng(seed ^ 0x5041545445524eULL);
    for (auto& w : bytes_) w = static_cast<char>(rng.next());
  }
  const char* at(std::size_t off) const { return bytes_.data() + off; }
  std::size_t size() const { return bytes_.size(); }

 private:
  std::vector<char> bytes_;
};

// Position-sensitive 64-bit checksum over whole 8-byte words (Fletcher
// style: the second sum weighs each word by its distance from the end).
inline std::uint64_t checksum(const char* p, std::size_t len) {
  std::uint64_t a = 0, b = 0;
  for (std::size_t i = 0; i + 8 <= len; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    a += w;
    b += a;
  }
  return mix64(a) ^ b;
}

// ------------------------------------------------------------------ dht

enum class DhtOp : std::uint8_t { kInsert, kFind, kUpdate, kErase };

// The paper's Fig. 4 value sizes.
inline constexpr std::uint32_t kDhtValueSizes[3] = {128, 1024, 8192};

struct DhtStep {
  DhtOp op;
  std::uint64_t key;
  std::uint32_t len;      // value length to write (insert/update) or expect
  std::uint32_t version;  // bumped by every update of the key
};

// 8-byte key rendered as 16 hex chars, as in the paper's benchmark.
inline std::string dht_key(std::uint64_t key) {
  static const char kHex[] = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i, key >>= 4) s[static_cast<std::size_t>(i)] = kHex[key & 15];
  return s;
}

// Value bytes of (key, version): a 16-byte stamp (key, version, length)
// followed by a pattern window chosen from the same triple, so a stale or
// foreign value never verifies.
inline std::size_t dht_value_offset(const DhtStep& s, const Pattern& pat) {
  const std::uint64_t h = mix64(s.key ^ (std::uint64_t{s.version} << 32 | s.len));
  return (h % ((pat.size() - 8192) / 8)) * 8;
}

inline std::string dht_value(const DhtStep& s, const Pattern& pat) {
  std::string v(pat.at(dht_value_offset(s, pat)), s.len);
  std::memcpy(v.data(), &s.key, 8);
  std::memcpy(v.data() + 8, &s.version, 4);
  std::memcpy(v.data() + 12, &s.len, 4);
  return v;
}

inline bool dht_value_ok(const std::string& got, const DhtStep& s,
                         const Pattern& pat) {
  if (got.size() != s.len) return false;
  char stamp[16];
  std::memcpy(stamp, &s.key, 8);
  std::memcpy(stamp + 8, &s.version, 4);
  std::memcpy(stamp + 12, &s.len, 4);
  return std::memcmp(got.data(), stamp, 16) == 0 &&
         std::memcmp(got.data() + 16, pat.at(dht_value_offset(s, pat)) + 16,
                     s.len - 16) == 0;
}

// One closed-loop client's dht stream over its own bounded live set.
// Mix: 30% insert of a fresh key, 45% find, 1% update (overwrite with a
// new version and size), 24% erase. Updates stay rare because every one
// leaks its old landing zone in the segment (a known RpcRmaMap defect),
// and the leaked blocks slow every later segment allocation. An insert with a full live set
// becomes an erase; anything but an insert with an empty set becomes an
// insert. Keys are mix64 of (seed, rank, lane, counter) — a bijection, so
// no two clients ever share a key and a lane's ops never race each other.
class DhtLane {
 public:
  DhtLane(std::uint64_t seed, int rank, int lane, std::size_t live_cap)
      : rng_(mix64(seed) ^ (std::uint64_t(rank) << 48) ^
             (std::uint64_t(lane) << 32)),
        key_base_(mix64(seed + 0x4b4559ULL)),
        key_tag_((std::uint64_t(rank) << 48) | (std::uint64_t(lane) << 32)),
        cap_(live_cap) {
    live_.reserve(live_cap);
  }

  DhtStep next() {
    const std::uint64_t r = rng_.below(1000);
    DhtOp op = r < 300   ? DhtOp::kInsert
               : r < 750 ? DhtOp::kFind
               : r < 760 ? DhtOp::kUpdate
                         : DhtOp::kErase;
    if (op == DhtOp::kInsert && live_.size() >= cap_) op = DhtOp::kErase;
    if (op != DhtOp::kInsert && live_.empty()) op = DhtOp::kInsert;
    if (op == DhtOp::kInsert) {
      DhtStep s{op, mix64(key_base_ ^ (key_tag_ | next_id_++)), size(), 0};
      live_.push_back(s);
      return s;
    }
    const std::size_t i = rng_.below(live_.size());
    DhtStep& e = live_[i];
    if (op == DhtOp::kUpdate) {
      ++e.version;
      e.len = size();
    }
    DhtStep s = e;
    s.op = op;
    if (op == DhtOp::kErase) {
      e = live_.back();
      live_.pop_back();
    }
    return s;
  }

  // Entries the program must currently hold (op field is meaningless).
  const std::vector<DhtStep>& live() const { return live_; }

 private:
  std::uint32_t size() { return kDhtValueSizes[rng_.below(3)]; }

  Rng rng_;
  std::uint64_t key_base_;
  std::uint64_t key_tag_;
  std::uint32_t next_id_ = 0;
  std::size_t cap_;
  std::vector<DhtStep> live_;
};

// ------------------------------------------------------------- bulk_am

struct BulkStep {
  bool is_put;
  std::uint32_t len;  // bytes, a multiple of 64 in [4 KiB, 1 MiB]
  std::uint32_t off;  // pattern window of the put (and of the get after it)
};

inline constexpr std::uint32_t kBulkMin = 4 << 10;
inline constexpr std::uint32_t kBulkMax = 1 << 20;
inline constexpr std::size_t kBulkPatternBytes = 2 << 20;

// Alternating rput/rget of one remote slot: the put writes a pattern
// window of log-uniform size, the get reads the slot back and must see
// exactly that window.
class BulkLane {
 public:
  BulkLane(std::uint64_t seed, int rank, int lane)
      : rng_(mix64(seed + 0x42554c4bULL) ^ (std::uint64_t(rank) << 48) ^
             (std::uint64_t(lane) << 32)) {}

  BulkStep next() {
    if (put_next_) {
      const double lg = std::log(double(kBulkMin)) +
                        rng_.unit() * std::log(double(kBulkMax) / kBulkMin);
      last_.len = std::min<std::uint32_t>(
          kBulkMax, static_cast<std::uint32_t>(std::exp(lg)) / 64 * 64);
      last_.off = static_cast<std::uint32_t>(
          rng_.below((kBulkPatternBytes - kBulkMax) / 64) * 64);
    }
    last_.is_put = put_next_;
    put_next_ = !put_next_;
    return last_;
  }

 private:
  Rng rng_;
  bool put_next_ = true;
  BulkStep last_{};
};

// -------------------------------------------------------------- inject

enum class InjectOp : std::uint8_t { kRputSmall, kRputLarge, kRpc, kFetchAdd };

inline constexpr std::uint32_t kInjectSmall = 64;
inline constexpr std::uint32_t kInjectLarge = 64 << 10;
inline constexpr std::uint32_t kInjectOffsets = 256;  // pattern windows
inline constexpr std::size_t kInjectPatternBytes =
    kInjectLarge + kInjectOffsets * 64;

struct InjectStep {
  InjectOp op;
  std::uint32_t off;  // pattern window (rputs), a multiple of 64
};

// One injector thread's mix: 40% 64 B rput, 10% 64 KB rput, 40% rpc that
// checksums the thread's slot, 10% fetch_add on the thread's counter.
// Unequal shares keep each latency median inside one op class instead of
// on the gap between two.
class InjectLane {
 public:
  InjectLane(std::uint64_t seed, int thread)
      : rng_(mix64(seed + 0x494e4aULL) ^ (std::uint64_t(thread) << 40)) {}

  InjectStep next() {
    const std::uint64_t r = rng_.below(100);
    const InjectOp op = r < 40   ? InjectOp::kRputSmall
                        : r < 50 ? InjectOp::kRputLarge
                        : r < 90 ? InjectOp::kRpc
                                 : InjectOp::kFetchAdd;
    const auto off = static_cast<std::uint32_t>(rng_.below(kInjectOffsets) * 64);
    return {op, off};
  }

 private:
  Rng rng_;
};

}  // namespace perfbench
