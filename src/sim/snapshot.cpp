#include "sim/snapshot.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "common/hash.hpp"
#include "common/stats.hpp"
#include "core/predictor.hpp"  // the pipeline's field list reaches into it
#include "service/wire.hpp"
#include "sim/system.hpp"

namespace laec::sim {

namespace {

// 8-byte frame magic; distinct from the checkpoint magic ("LAECCKP1") so a
// mixed-up file path fails loudly rather than parsing as garbage.
constexpr char kMagic[8] = {'L', 'A', 'E', 'C', 'S', 'N', 'P', '1'};
/// Magic, version, checksum: the payload starts here.
constexpr std::size_t kFrameHead = sizeof(kMagic) + sizeof(u32) + sizeof(u64);

/// Little-endian value of the sizeof(W) bytes at `p`.
template <class W>
W load_le(const char* p) {
  W v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof v);
  } else {
    for (std::size_t b = 0; b < sizeof v; ++b) {
      v |= static_cast<W>(static_cast<W>(static_cast<u8>(p[b])) << (8 * b));
    }
  }
  return v;
}

// FNV-1a folded over 8-byte little-endian chunks instead of single bytes
// (tail bytes one at a time), each chunk passed through `mix` first. NOT
// the canonical byte-wise fnv1a (common/hash.hpp). The golden run
// serializes hundreds of snapshots; a byte-at-a-time hash was the single
// largest capture cost.
template <class Mix>
u64 chunked_fnv1a(std::string_view data, Mix mix) {
  u64 h = kFnvPinnedOffset;
  const std::size_t whole = data.size() / 8;
  for (std::size_t i = 0; i < whole; ++i) {
    h ^= mix(load_le<u64>(data.data() + i * 8));
    h *= kFnvPrime;
  }
  for (std::size_t i = whole * 8; i < data.size(); ++i) {
    h ^= mix(static_cast<u8>(data[i]));
    h *= kFnvPrime;
  }
  return h;
}

/// The frame checksum, pinned by kSnapshotVersion. Each chunk goes through
/// mix64 before it is folded in: unmixed, a flip of bit 63 only ever flips
/// bit 63 of the hash (the multiplier is odd), so two such flips in two
/// chunks would cancel.
u64 frame_checksum(std::string_view payload) {
  return chunked_fnv1a(payload, mix64);
}

// ------------------------------------------------------------------------
// The field-list walker (protocol: snapshot.hpp). It owns every structural
// rule — containers, presence, key order, field paths — and hands each
// leaf to an archive, which only encodes (Saver), decodes (Loader),
// records (Flattener) or compares (Matcher) it.

template <class T>
concept Scalar = std::is_integral_v<T> || std::is_enum_v<T>;

/// Wire type of a scalar: bools and enums travel as one byte, integers at
/// their own width (signed ones as their two's-complement bits).
template <Scalar T>
using Wire = std::conditional_t<std::is_enum_v<T> || sizeof(T) == 1, u8,
                                std::conditional_t<sizeof(T) == 4, u32, u64>>;

template <class Archive>
class Walker {
 public:
  static constexpr bool kRestoring = Archive::kRestoring;

  explicit Walker(Archive& a) : a_(a) {}

  template <class T>
  void operator()(std::string_view name, T& x) {
    if (a_.stopped()) return;
    a_.enter(name);
    visit(x);
    a_.leave();
  }

  /// The constructor decides presence from the configuration, so a restore
  /// can only check it, never create or drop the component.
  template <class T>
  void operator()(std::string_view name, std::unique_ptr<T>& p) {
    expect<u8>(name, p != nullptr);
    if (p != nullptr) (*this)(name, *p);
  }

  template <class T>
  void stats(std::string_view name, T& x) {
    if (!a_.with_stats) return;
    ++a_.stats_depth;
    (*this)(name, x);
    --a_.stats_depth;
  }

  template <class C>
  void fixed(std::string_view name, C& c) {
    a_.enter(name);
    elements(c);
    a_.leave();
  }

  /// The ways of a cache array, each visited with the array's check-bit
  /// encoder. A blob carries no check bits, so saving one refuses an array
  /// that ever had a fault injector: its stored check bits need not be the
  /// encodings of its words.
  template <class C, class Encoder>
  void coded(std::string_view name, C& ways, const Encoder& enc) {
    if constexpr (!kRestoring && !Archive::kMatching) {
      if (!a_.with_check && !enc.clean) {
        throw std::logic_error(
            "snapshot: cache \"" + std::string(enc.array) +
            "\" had a fault injector attached, so its check bits cannot be "
            "derived from its words");
      }
    }
    a_.enter(name);
    u64 i = 0;
    for (auto& way : ways) {
      if (a_.stopped()) break;
      a_.enter(i++);
      way.visit_state(*this, enc);
      a_.leave();
    }
    a_.leave();
  }

  /// A valid way's check bits. A digest or a diff walks them as stored (a
  /// trial's standing fault is state). A blob leaves them out: a restore
  /// derives them from the restored words with this cache's encoder, and
  /// a match requires every live check word to be the encoding of its live
  /// word, so a standing fault in the check bits still fails it.
  template <class Encoder>
  void check_bits(std::string_view name, std::span<u16> check,
                  std::span<const u32> words, const Encoder& enc) {
    if (a_.with_check) return fixed(name, check);
    if constexpr (kRestoring) {
      enc.encode(words.data(), check.data(), check.size());
    } else if constexpr (Archive::kMatching) {
      if (!a_.stopped() &&
          !enc.encodes(words.data(), check.data(), check.size())) {
        a_.differ();
      }
    }
  }

  void shape(std::string_view name, u64 n) { expect<u32>(name, n); }

 private:
  template <class W>
  void expect(std::string_view name, u64 n) {
    W v = static_cast<W>(n);
    (*this)(name, v);
    if (kRestoring && v != n) {
      throw service::WireError("snapshot: " + std::string(name) +
                               " mismatch (blob " + std::to_string(v) +
                               ", this system " + std::to_string(n) + ")");
    }
  }

  template <Scalar T>
  void visit(T& x) {
    static_assert(std::is_enum_v<T> || sizeof(T) == 1 || sizeof(T) == 4 ||
                  sizeof(T) == 8);
    a_.scalar(x);
  }

  template <class T>
    requires requires(T& t, Walker& w) { t.visit_state(w); }
  void visit(T& x) {
    x.visit_state(*this);
  }

  void visit(StatSet& s) { a_.stat_set(s); }

  /// An element of a configuration-sized container (a core, a traffic
  /// generator) always exists.
  template <class T>
  void visit(std::unique_ptr<T>& p) {
    visit(*p);
  }

  template <class T, std::size_t N>
  void visit(std::array<T, N>& c) {
    elements(c);
  }

  /// vector, deque, string: length-prefixed, resized on restore.
  template <class C>
    requires requires(C& c) { c.resize(0); }
  void visit(C& c) {
    u32 n = static_cast<u32>(c.size());
    (*this)("size", n);
    if constexpr (kRestoring) {
      // Every element takes at least one byte: reject a larger count
      // before the container is resized to it.
      if (n > a_.remaining()) {
        throw service::WireError("snapshot: element count exceeds the blob");
      }
      c.resize(n);
    }
    elements(c);
  }

  template <class T>
  void visit(std::optional<T>& o) {
    bool present = o.has_value();
    (*this)("present", present);
    if constexpr (kRestoring) {
      o.reset();
      if (present) o.emplace();
    }
    if (present) visit(*o);
  }

  template <class A, class B>
  void visit(std::pair<A, B>& p) {
    (*this)("first", p.first);
    (*this)("second", p.second);
  }

  template <class K, class T>
  void visit(std::unordered_map<K, T>& m) {
    u32 n = static_cast<u32>(m.size());
    (*this)("size", n);
    if constexpr (kRestoring) {
      m.clear();
      for (u32 i = 0; i < n; ++i) {
        K key{};
        a_.scalar(key);
        visit(m[key]);
      }
    } else if constexpr (Archive::kMatching) {
      // The blob lists the keys ascending. With the counts equal, n
      // strictly ascending keys that are all in `m` are m's keys.
      K prev{};
      for (u32 i = 0; i < n && !a_.stopped(); ++i) {
        Wire<K> wire = 0;
        if (!a_.take(wire)) return;
        const K key = static_cast<K>(wire);
        const auto it = m.find(key);
        if (it == m.end() || (i > 0 && key <= prev)) return a_.differ();
        prev = key;
        visit(it->second);
      }
    } else {
      // Ascending keys: the bytes must not depend on hash-map iteration
      // order.
      std::vector<K> keys;
      keys.reserve(n);
      for (const auto& kv : m) keys.push_back(kv.first);
      std::sort(keys.begin(), keys.end());
      for (K key : keys) {
        a_.enter(key);
        a_.scalar(key);
        visit(m.at(key));
        a_.leave();
      }
    }
  }

  template <class C>
  void elements(C& c) {
    using E = typename C::value_type;
    if constexpr (std::is_integral_v<E> && requires { c.data(); }) {
      a_.block(c.data(), c.size());
    } else {
      u64 i = 0;
      for (E& e : c) {
        if (a_.stopped()) return;
        a_.enter(i++);
        visit(e);
        a_.leave();
      }
    }
  }

  Archive& a_;
};

/// What every archive shares: stats selection, no-op path hooks (only
/// the Flattener tracks paths) and a walk that never stops early (only the
/// Matcher stops, at its first difference).
struct ArchiveBase {
  static constexpr bool kMatching = false;
  bool with_stats = true;  ///< false skips stats fields (state_digest)
  /// true walks cache check bits as stored (state_digest, the diff); a
  /// blob (save, restore, match) leaves them out.
  bool with_check = false;
  int stats_depth = 0;     ///< > 0 while inside a stats field
  void enter(std::string_view) {}
  void enter(u64) {}
  void leave() {}
  static constexpr bool stopped() { return false; }
};

class Saver : public ArchiveBase {
 public:
  static constexpr bool kRestoring = false;

  template <Scalar T>
  void scalar(const T& x) {
    const Wire<T> v = static_cast<Wire<T>>(x);
    w.put_block(&v, 1);
  }
  template <class T>
  void block(const T* p, std::size_t n) {
    w.put_block(p, n);
  }
  /// (name, value) pairs in registration order: a restore registers them
  /// in the same order, which keeps re-serialization byte-stable for sets
  /// that register lazily (the bus per-operation counters).
  void stat_set(const StatSet& s) {
    const auto items = s.items();
    w.put_u32(static_cast<u32>(items.size()));
    for (const auto& [name, value] : items) {
      w.put_string(name);
      w.put_u64(value);
    }
  }

  service::ByteWriter w;
};

class Loader : public ArchiveBase {
 public:
  static constexpr bool kRestoring = true;

  explicit Loader(std::string_view payload) : r(payload) {}

  template <Scalar T>
  void scalar(T& x) {
    Wire<T> v = 0;
    r.get_block(&v, 1);
    x = static_cast<T>(v);
  }
  template <class T>
  void block(T* p, std::size_t n) {
    r.get_block(p, n);
  }
  void stat_set(StatSet& s) {
    const u32 n = r.get_u32();
    s.clear();  // a counter the blob lacks was zero in the saved system
    for (u32 i = 0; i < n; ++i) {
      const std::string name = r.get_string();
      s.counter(name) = r.get_u64();
    }
  }
  [[nodiscard]] std::size_t remaining() const { return r.remaining(); }

  service::ByteReader r;
};

/// A Saver that also records where each leaf landed in the encoding,
/// under its field path, so two systems can be compared field by field.
class Flattener : public Saver {
 public:
  struct Leaf {
    std::string path;
    std::size_t begin = 0;  ///< byte range of the leaf in w
    std::size_t end = 0;
    unsigned width = 0;  ///< element width of an array leaf; 0 for a value
    bool stats = false;
  };
  std::vector<Leaf> leaves;

  void enter(std::string_view name) {
    path_.push_back(path_.empty() ? std::string(name)
                                  : path_.back() + "." + std::string(name));
  }
  void enter(u64 index) {
    path_.push_back(path_.back() + "[" + std::to_string(index) + "]");
  }
  void leave() { path_.pop_back(); }

  template <class T>
  void scalar(const T& x) {
    const std::size_t begin = w.bytes().size();
    Saver::scalar(x);
    record(begin, 0);
  }
  template <class T>
  void block(const T* p, std::size_t n) {
    const std::size_t begin = w.bytes().size();
    Saver::block(p, n);
    record(begin, sizeof(T));
  }
  void stat_set(const StatSet& s) {
    for (const auto& [name, value] : s.items()) {
      enter(name);
      scalar(value);
      leave();
    }
  }

  [[nodiscard]] std::string_view bytes(const Leaf& leaf) const {
    return std::string_view(w.bytes()).substr(leaf.begin,
                                              leaf.end - leaf.begin);
  }

 private:
  void record(std::size_t begin, unsigned width) {
    leaves.push_back(
        {path_.back(), begin, w.bytes().size(), width, stats_depth > 0});
  }

  std::vector<std::string> path_;  ///< full path of each open scope
};

/// Compares a system with a save_system_state payload, reading the payload
/// in step with the walk: every state leaf must equal its encoding, and
/// statistics are read past. The first difference stops the walk, and so
/// does a payload too short for the next leaf, which is never read past.
class Matcher : public ArchiveBase {
 public:
  static constexpr bool kRestoring = false;
  static constexpr bool kMatching = true;

  explicit Matcher(std::string_view payload) : rest_(payload) {}

  template <Scalar T>
  void scalar(const T& x) {
    Wire<T> v = 0;
    if (take(v) && stats_depth == 0 && v != static_cast<Wire<T>>(x)) {
      differ();
    }
  }
  template <class T>
  void block(const T* p, std::size_t n) {
    const char* at = skip(n * sizeof(T));
    if (at == nullptr || stats_depth > 0) return;
    if constexpr (std::endian::native == std::endian::little) {
      if (n != 0 && std::memcmp(at, p, n * sizeof(T)) != 0) differ();
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        if (load_le<T>(at + i * sizeof(T)) != p[i]) return differ();
      }
    }
  }
  /// Statistics: (name, value) pairs, read past.
  void stat_set(const StatSet&) {
    u32 n = 0;
    if (!take(n)) return;
    for (u32 i = 0; i < n; ++i) {
      u32 len = 0;
      if (!take(len) || skip(std::size_t{len} + sizeof(u64)) == nullptr) {
        return;
      }
    }
  }

  /// Read the next little-endian W into `v`; false (a difference) when the
  /// payload is too short or the walk has stopped.
  template <class W>
  bool take(W& v) {
    const char* at = skip(sizeof v);
    if (at == nullptr) return false;
    v = load_le<W>(at);
    return true;
  }

  void differ() { differs_ = true; }
  [[nodiscard]] bool stopped() const { return differs_; }
  /// Every leaf matched and the payload is used up.
  [[nodiscard]] bool matched() const { return !differs_ && rest_.empty(); }

 private:
  /// Consume `n` bytes and return where they start, or null.
  const char* skip(std::size_t n) {
    if (differs_) return nullptr;
    if (rest_.size() < n) {
      differ();
      return nullptr;
    }
    const char* at = rest_.data();
    rest_.remove_prefix(n);
    return at;
  }

  std::string_view rest_;
  bool differs_ = false;
};

// The field lists serve both directions, so visit_state is non-const; the
// saving archives only ever read through the references it hands out.
template <class Archive>
void walk(const System& system, Archive& a) {
  Walker<Archive> v(a);
  const_cast<System&>(system).visit_state(v);
}

/// Little-endian value of at most 8 bytes.
u64 le_value(std::string_view bytes) {
  u64 v = 0;
  for (std::size_t i = 0; i < bytes.size() && i < 8; ++i) {
    v |= static_cast<u64>(static_cast<u8>(bytes[i])) << (8 * i);
  }
  return v;
}

/// How one leaf differs between its encodings in two systems (empty when
/// the leaf is absent): an array reports its first differing element, a
/// value is a one-element array.
std::optional<FieldDiff> compare(const Flattener::Leaf& leaf,
                                 std::string_view x, std::string_view y) {
  if (x == y) return std::nullopt;
  const std::size_t w =
      leaf.width != 0 ? leaf.width : std::max(x.size(), y.size());
  std::size_t i = 0;
  while ((i + 1) * w <= std::min(x.size(), y.size()) &&
         x.substr(i * w, w) == y.substr(i * w, w)) {
    ++i;
  }
  const auto element = [&](std::string_view s) {
    return (i + 1) * w <= s.size() ? std::to_string(le_value(s.substr(i * w, w)))
                                   : std::string("-");
  };
  return FieldDiff{
      leaf.width != 0 ? leaf.path + "[" + std::to_string(i) + "]" : leaf.path,
      element(x), element(y), leaf.stats};
}

}  // namespace

std::string save_system_state(const System& system) {
  Saver payload;
  walk(system, payload);

  service::ByteWriter head;
  head.put_u32(kSnapshotVersion);
  head.put_u64(frame_checksum(payload.w.bytes()));

  std::string out;
  out.reserve(sizeof(kMagic) + head.bytes().size() + payload.w.bytes().size());
  out.append(kMagic, sizeof(kMagic));
  out += head.bytes();
  out += payload.w.bytes();
  return out;
}

void restore_system_state(System& system, std::string_view blob) {
  if (blob.size() < sizeof(kMagic) ||
      std::memcmp(blob.data(), kMagic, sizeof(kMagic)) != 0) {
    throw service::WireError("snapshot: bad magic");
  }
  service::ByteReader head(blob.substr(sizeof(kMagic)));
  const u32 version = head.get_u32();
  if (version != kSnapshotVersion) {
    throw service::WireError("snapshot: version mismatch (blob v" +
                             std::to_string(version) + ", expected v" +
                             std::to_string(kSnapshotVersion) + ")");
  }
  const u64 checksum = head.get_u64();
  const std::string_view payload = blob.substr(kFrameHead);
  if (frame_checksum(payload) != checksum) {
    throw service::WireError("snapshot: checksum mismatch (corrupt blob)");
  }
  Loader loader(payload);
  walk(system, loader);
  loader.r.expect_end();
}

u64 state_digest(const System& system) {
  Saver state;
  state.with_stats = false;
  state.with_check = true;
  walk(system, state);
  // mix64 spreads every input bit over the whole chunk, so no pair of
  // flips in two chunks cancels in the fold.
  return chunked_fnv1a(state.w.bytes(), mix64);
}

bool state_matches(const System& system, std::string_view blob) {
  if (blob.size() < kFrameHead ||
      std::memcmp(blob.data(), kMagic, sizeof(kMagic)) != 0 ||
      load_le<u32>(blob.data() + sizeof(kMagic)) != kSnapshotVersion) {
    return false;
  }
  Matcher matcher(blob.substr(kFrameHead));
  walk(system, matcher);
  return matcher.matched();
}

std::vector<FieldDiff> diff_system_state(const System& a, const System& b) {
  Flattener fa;
  Flattener fb;
  fa.with_check = fb.with_check = true;
  walk(a, fa);
  walk(b, fb);
  // Leaves match by path; a container longer in one system leaves some
  // unmatched, and those compare against nothing.
  std::unordered_map<std::string_view, std::string_view> unmatched;
  for (const auto& leaf : fb.leaves) unmatched.emplace(leaf.path, fb.bytes(leaf));

  std::vector<FieldDiff> out;
  const auto add = [&](const Flattener::Leaf& leaf, std::string_view x,
                       std::string_view y) {
    if (auto d = compare(leaf, x, y)) out.push_back(std::move(*d));
  };
  for (const auto& leaf : fa.leaves) {
    const auto it = unmatched.find(leaf.path);
    if (it == unmatched.end()) {
      add(leaf, fa.bytes(leaf), {});
    } else {
      add(leaf, fa.bytes(leaf), it->second);
      unmatched.erase(it);
    }
  }
  for (const auto& leaf : fb.leaves) {
    if (unmatched.count(leaf.path) != 0) add(leaf, {}, fb.bytes(leaf));
  }
  return out;
}

void SnapshotStore::add(u64 ordinal, Cycle cycle, std::string blob) {
  auto entry = std::make_shared<Entry>();
  entry->seq = seq_ == 0 ? 0 : seq_ - 1;  // gate already advanced past us
  entry->ordinal = ordinal;
  entry->cycle = cycle;
  bytes_ += blob.size();
  entry->blob = std::make_shared<const std::string>(std::move(blob));
  entries_.push_back(std::move(entry));

  // Keep-every-k thinning: double the stride until the survivors fit. The
  // single-entry guard keeps one snapshot alive even when a lone blob
  // exceeds the whole budget (a useless store would be worse).
  while (budget_ != 0 && bytes_ > budget_ && entries_.size() > 1) {
    stride_ *= 2;
    std::vector<std::shared_ptr<const Entry>> kept;
    kept.reserve(entries_.size() / 2 + 1);
    u64 kept_bytes = 0;
    for (auto& e : entries_) {
      if (e->seq % stride_ == 0) {
        kept_bytes += e->blob->size();
        kept.push_back(std::move(e));
      }
    }
    entries_ = std::move(kept);
    bytes_ = kept_bytes;
  }
}

std::vector<std::shared_ptr<const SnapshotStore::Entry>>::const_iterator
SnapshotStore::first_past(u64 ordinal) const {
  // Entries are ordinal-ascending.
  return std::upper_bound(
      entries_.begin(), entries_.end(), ordinal,
      [](u64 v, const std::shared_ptr<const Entry>& e) { return v < e->ordinal; });
}

std::shared_ptr<const SnapshotStore::Entry> SnapshotStore::best_at_or_before(
    u64 ordinal) const {
  const auto it = first_past(ordinal);
  if (it == entries_.begin()) return nullptr;
  return *std::prev(it);
}

std::shared_ptr<const SnapshotStore::Entry> SnapshotStore::first_after(
    u64 ordinal) const {
  const auto it = first_past(ordinal);
  return it == entries_.end() ? nullptr : *it;
}

}  // namespace laec::sim
