#pragma once

// Order-preserving, case-insensitive HTTP header collection, plus the
// well-known header names the mesh and the cross-layer case study use.
//
// Well-known names are interned to a small integer Id at insertion, so
// the hot paths — priority classification, provenance propagation,
// tracing, content-length handling — look headers up by integer compare
// with no per-lookup case-folding or string allocation. Unknown names
// fall back to the case-insensitive linear scan. The map keeps its bytes
// in one arena with an inline capacity, so a mesh request head is built,
// copied and parsed without touching the allocator.

#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

namespace meshnet::http {

namespace headers {
inline constexpr std::string_view kContentLength = "content-length";
inline constexpr std::string_view kHost = "host";
/// Global request id propagated by apps so the mesh can correlate the
/// sub-requests a service spawns with the inbound request that caused
/// them (Istio/Envoy's x-request-id).
inline constexpr std::string_view kRequestId = "x-request-id";
/// The case study's custom priority header (paper §4.3 impl. step 1):
/// "high" or "low", set at the ingress/front-end and propagated by the
/// provenance filter.
inline constexpr std::string_view kMeshPriority = "x-mesh-priority";
/// Distributed-tracing span context: trace id and parent span id.
inline constexpr std::string_view kTraceId = "x-b3-traceid";
inline constexpr std::string_view kSpanId = "x-b3-spanid";
inline constexpr std::string_view kParentSpanId = "x-b3-parentspanid";
/// Number of upstream retry attempts already made (Envoy convention).
inline constexpr std::string_view kRetryAttempt = "x-envoy-attempt-count";
/// Peer service identity stamped by the provenance filter.
inline constexpr std::string_view kMeshSource = "x-mesh-source";
/// Milliseconds left on the caller's armed request deadline, stamped by
/// the outbound sidecar so the serving sidecar's admission controller
/// can shed requests whose deadline is already unmeetable.
inline constexpr std::string_view kDeadlineMs = "x-mesh-deadline-ms";
/// Shed marker on admission-control 503s: carries the shed reason and
/// tells the caller's retry logic not to amplify the overload.
inline constexpr std::string_view kShedReason = "x-mesh-shed";

/// Interned ids for the well-known names above. kUnknown means "not a
/// well-known header"; such entries are matched by case-insensitive
/// string comparison instead.
enum class Id : std::uint8_t {
  kUnknown = 0,
  kContentLength,
  kHost,
  kRequestId,
  kMeshPriority,
  kTraceId,
  kSpanId,
  kParentSpanId,
  kRetryAttempt,
  kMeshSource,
  kDeadlineMs,
  kShedReason,
};

/// Id for `name` (case-insensitive), or Id::kUnknown.
Id intern(std::string_view name) noexcept;

/// Canonical lowercase name for a well-known id. Must not be kUnknown.
std::string_view name_of(Id id) noexcept;
}  // namespace headers

namespace detail {

/// A growable array of trivially copyable T with room for N elements
/// inside the object: only a larger array touches the heap, and a copy is
/// one memcpy (plus one allocation past N).
template <typename T, std::uint32_t N>
class InlineArray {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  InlineArray() noexcept = default;
  InlineArray(const InlineArray& other) { copy_from(other); }
  InlineArray(InlineArray&& other) noexcept { take(other); }
  InlineArray& operator=(const InlineArray& other) {
    if (this != &other) copy_from(other);
    return *this;
  }
  InlineArray& operator=(InlineArray&& other) noexcept {
    if (this != &other) {
      free_heap();
      take(other);
    }
    return *this;
  }
  ~InlineArray() { free_heap(); }

  T* data() noexcept { return heap_ != nullptr ? heap_ : inline_; }
  const T* data() const noexcept { return heap_ != nullptr ? heap_ : inline_; }
  std::uint32_t size() const noexcept { return size_; }
  std::uint32_t capacity() const noexcept { return capacity_; }
  void set_size(std::uint32_t size) noexcept { size_ = size; }

  /// True if `p` points into this array's storage.
  bool holds(const T* p) const noexcept {
    const std::less<const T*> less;
    return !less(p, data()) && less(p, data() + capacity_);
  }

  /// Moves the elements to a heap array of at least `capacity`. Returns
  /// the heap array it replaced (nullptr if none) for the caller to
  /// release() once it has read what it needs from it.
  T* grow(std::uint32_t capacity) {
    T* fresh = new T[capacity];
    std::memcpy(fresh, data(), std::size_t{size_} * sizeof(T));
    T* retired = heap_;
    heap_ = fresh;
    capacity_ = capacity;
    return retired;
  }
  static void release(T* retired) noexcept { delete[] retired; }

 private:
  void copy_from(const InlineArray& other) {
    if (other.size_ > capacity_) {
      free_heap();
      heap_ = new T[other.size_];
      capacity_ = other.size_;
    }
    std::memcpy(data(), other.data(), std::size_t{other.size_} * sizeof(T));
    size_ = other.size_;
  }
  void take(InlineArray& other) noexcept {
    if (other.heap_ != nullptr) {
      heap_ = std::exchange(other.heap_, nullptr);
      capacity_ = std::exchange(other.capacity_, N);
    } else {
      std::memcpy(inline_, other.inline_, std::size_t{other.size_} * sizeof(T));
    }
    size_ = std::exchange(other.size_, 0);
  }
  void free_heap() noexcept {
    delete[] std::exchange(heap_, nullptr);
    capacity_ = N;
    size_ = 0;
  }

  T* heap_ = nullptr;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = N;
  T inline_[N];
};

}  // namespace detail

/// Order-preserving, case-insensitive header collection. Every name and
/// value lives in one byte arena next to an array of (id, name span, value
/// span) entries. Well-known names are stored as their id alone; other
/// names are stored lowercased. Both arrays keep an inline capacity sized
/// for a mesh request head, so building, copying and parsing a typical
/// head does not allocate. Views returned by get()/name_at()/value_at()
/// are valid until the next mutation, except that set()/add() may take a
/// view of this same map as the value (`set(id, *get(other))`).
class HeaderMap {
 public:
  /// Last-write-wins set (replaces all existing values for the name; the
  /// new entry goes last).
  void set(std::string_view name, std::string_view value);
  void set(headers::Id id, std::string_view value);

  /// Appends a possibly-duplicate header.
  void add(std::string_view name, std::string_view value);

  /// First value for the name, case-insensitively.
  std::optional<std::string_view> get(std::string_view name) const;
  std::optional<std::string_view> get(headers::Id id) const;

  std::string_view get_or(std::string_view name,
                          std::string_view fallback) const;
  std::string_view get_or(headers::Id id, std::string_view fallback) const;

  bool has(std::string_view name) const { return get(name).has_value(); }
  bool has(headers::Id id) const { return get(id).has_value(); }

  /// Removes all values for the name; returns how many were removed.
  std::size_t remove(std::string_view name);
  std::size_t remove(headers::Id id);

  /// Drops every entry, keeping the storage.
  void clear() noexcept;

  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.size() == 0; }

  /// The i-th entry in insertion order: its interned id (kUnknown for a
  /// name that is not well-known), its lowercase name and its value.
  headers::Id id_at(std::size_t i) const noexcept {
    return entries_.data()[i].id;
  }
  std::string_view name_at(std::size_t i) const noexcept;
  std::string_view value_at(std::size_t i) const noexcept {
    const Entry& e = entries_.data()[i];
    return {bytes_.data() + e.offset + e.name_size, e.value_size};
  }

  friend bool operator==(const HeaderMap& a, const HeaderMap& b) noexcept;

  /// Inline capacity: entries, and arena bytes (values plus unknown
  /// names). A mesh100 request head carries 9 headers in about 130 arena
  /// bytes, and its filters' replacements leave up to about 100 more.
  static constexpr std::uint32_t kInlineEntries = 12;
  static constexpr std::uint32_t kInlineBytes = 256;

 private:
  struct Entry {
    std::uint32_t offset;      ///< arena offset of the name, then the value
    std::uint32_t name_size;   ///< 0 for well-known names (id only)
    std::uint32_t value_size;
    headers::Id id;
  };

  void append(headers::Id id, std::string_view name, std::string_view value);
  /// Makes room for `extra` more arena bytes. When `aliased` (the bytes
  /// to append come from this arena) it neither compacts nor frees: it
  /// returns the heap arena it replaced, for append to free after copying.
  char* reserve_bytes(std::size_t extra, bool aliased);
  /// Slides the live entries' bytes together, dropping removed ones'.
  void compact_bytes() noexcept;
  template <typename Pred>
  std::size_t erase_where(Pred pred);

  detail::InlineArray<Entry, kInlineEntries> entries_;
  /// Names and values, in entry order; removed entries' bytes stay until
  /// the arena fills up and is compacted.
  detail::InlineArray<char, kInlineBytes> bytes_;
};

}  // namespace meshnet::http
