#include "http/header_map.h"

#include <algorithm>

#include "util/strings.h"

namespace meshnet::http {

namespace headers {

Id intern(std::string_view name) noexcept {
  // Dispatch on length first: the well-known set has at most two names
  // per length, so a lookup is one or two case-insensitive compares.
  switch (name.size()) {
    case 4:
      if (util::iequals(name, kHost)) return Id::kHost;
      break;
    case 11:
      if (util::iequals(name, kSpanId)) return Id::kSpanId;
      if (util::iequals(name, kShedReason)) return Id::kShedReason;
      break;
    case 12:
      if (util::iequals(name, kRequestId)) return Id::kRequestId;
      if (util::iequals(name, kTraceId)) return Id::kTraceId;
      break;
    case 13:
      if (util::iequals(name, kMeshSource)) return Id::kMeshSource;
      break;
    case 14:
      if (util::iequals(name, kContentLength)) return Id::kContentLength;
      break;
    case 15:
      if (util::iequals(name, kMeshPriority)) return Id::kMeshPriority;
      break;
    case 17:
      if (util::iequals(name, kParentSpanId)) return Id::kParentSpanId;
      break;
    case 18:
      if (util::iequals(name, kDeadlineMs)) return Id::kDeadlineMs;
      break;
    case 21:
      if (util::iequals(name, kRetryAttempt)) return Id::kRetryAttempt;
      break;
    default:
      break;
  }
  return Id::kUnknown;
}

std::string_view name_of(Id id) noexcept {
  switch (id) {
    case Id::kContentLength:
      return kContentLength;
    case Id::kHost:
      return kHost;
    case Id::kRequestId:
      return kRequestId;
    case Id::kMeshPriority:
      return kMeshPriority;
    case Id::kTraceId:
      return kTraceId;
    case Id::kSpanId:
      return kSpanId;
    case Id::kParentSpanId:
      return kParentSpanId;
    case Id::kRetryAttempt:
      return kRetryAttempt;
    case Id::kUnknown:
      break;
    case Id::kMeshSource:
      return kMeshSource;
    case Id::kDeadlineMs:
      return kDeadlineMs;
    case Id::kShedReason:
      return kShedReason;
  }
  return "";
}

}  // namespace headers

std::string_view HeaderMap::name_at(std::size_t i) const noexcept {
  const Entry& e = entries_.data()[i];
  if (e.id != headers::Id::kUnknown) return headers::name_of(e.id);
  return {bytes_.data() + e.offset, e.name_size};
}

void HeaderMap::set(std::string_view name, std::string_view value) {
  const headers::Id id = headers::intern(name);
  if (id != headers::Id::kUnknown) {
    set(id, value);
    return;
  }
  // Append before removing: `value` may view an entry being replaced.
  append(id, name, value);
  const std::size_t last = entries_.size() - 1;
  erase_where([&](std::size_t i) {
    return i != last && entries_.data()[i].id == headers::Id::kUnknown &&
           util::iequals(name_at(i), name);
  });
}

void HeaderMap::set(headers::Id id, std::string_view value) {
  append(id, {}, value);
  const std::size_t last = entries_.size() - 1;
  erase_where([&](std::size_t i) {
    return i != last && entries_.data()[i].id == id;
  });
}

void HeaderMap::add(std::string_view name, std::string_view value) {
  append(headers::intern(name), name, value);
}

void HeaderMap::append(headers::Id id, std::string_view name,
                       std::string_view value) {
  // Well-known names are stored as their id alone; only unknown names
  // take arena bytes (lowercased).
  if (id != headers::Id::kUnknown) name = {};
  const bool aliased =
      (!name.empty() && bytes_.holds(name.data())) ||
      (!value.empty() && bytes_.holds(value.data()));
  const std::size_t length = name.size() + value.size();
  char* retired = reserve_bytes(length, aliased);
  const std::uint32_t offset = bytes_.size();
  char* out = bytes_.data() + offset;
  for (std::size_t i = 0; i < name.size(); ++i) {
    out[i] = util::to_lower_ascii(name[i]);
  }
  if (!value.empty()) {
    std::memcpy(out + name.size(), value.data(), value.size());
  }
  decltype(bytes_)::release(retired);
  bytes_.set_size(offset + static_cast<std::uint32_t>(length));

  if (entries_.size() == entries_.capacity()) {
    decltype(entries_)::release(entries_.grow(2 * entries_.capacity()));
  }
  entries_.data()[entries_.size()] =
      Entry{offset, static_cast<std::uint32_t>(name.size()),
            static_cast<std::uint32_t>(value.size()), id};
  entries_.set_size(entries_.size() + 1);
}

char* HeaderMap::reserve_bytes(std::size_t extra, bool aliased) {
  const std::size_t need = std::size_t{bytes_.size()} + extra;
  if (need <= bytes_.capacity()) return nullptr;
  // Reclaim removed entries' bytes first, unless the bytes being
  // appended come from this arena: compaction would move them.
  std::size_t live = 0;
  for (std::uint32_t i = 0; i < entries_.size(); ++i) {
    live += entries_.data()[i].name_size + entries_.data()[i].value_size;
  }
  if (!aliased && live + extra <= bytes_.capacity()) {
    compact_bytes();
    return nullptr;
  }
  const std::size_t grown = std::max<std::size_t>(2 * bytes_.capacity(), need);
  char* retired = bytes_.grow(static_cast<std::uint32_t>(grown));
  if (aliased) return retired;  // still holds the bytes being appended
  decltype(bytes_)::release(retired);
  return nullptr;
}

void HeaderMap::compact_bytes() noexcept {
  // Entries hold increasing offsets (appends go last, removal keeps
  // order), so sliding each one down in order never overwrites a later
  // entry's bytes.
  char* base = bytes_.data();
  std::uint32_t cursor = 0;
  for (std::uint32_t i = 0; i < entries_.size(); ++i) {
    Entry& e = entries_.data()[i];
    const std::uint32_t length = e.name_size + e.value_size;
    if (e.offset != cursor) {
      std::memmove(base + cursor, base + e.offset, length);
    }
    e.offset = cursor;
    cursor += length;
  }
  bytes_.set_size(cursor);
}

template <typename Pred>
std::size_t HeaderMap::erase_where(Pred pred) {
  Entry* entries = entries_.data();
  const std::uint32_t count = entries_.size();
  std::uint32_t out = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!pred(i)) entries[out++] = entries[i];
  }
  entries_.set_size(out);
  if (out == 0) clear();
  return count - out;
}

std::optional<std::string_view> HeaderMap::get(std::string_view name) const {
  const headers::Id id = headers::intern(name);
  if (id != headers::Id::kUnknown) return get(id);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (id_at(i) == headers::Id::kUnknown && util::iequals(name_at(i), name)) {
      return value_at(i);
    }
  }
  return std::nullopt;
}

std::optional<std::string_view> HeaderMap::get(headers::Id id) const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (id_at(i) == id) return value_at(i);
  }
  return std::nullopt;
}

std::string_view HeaderMap::get_or(std::string_view name,
                                   std::string_view fallback) const {
  return get(name).value_or(fallback);
}

std::string_view HeaderMap::get_or(headers::Id id,
                                   std::string_view fallback) const {
  return get(id).value_or(fallback);
}

std::size_t HeaderMap::remove(std::string_view name) {
  const headers::Id id = headers::intern(name);
  if (id != headers::Id::kUnknown) return remove(id);
  return erase_where([&](std::size_t i) {
    return id_at(i) == headers::Id::kUnknown && util::iequals(name_at(i), name);
  });
}

std::size_t HeaderMap::remove(headers::Id id) {
  return erase_where([&](std::size_t i) { return id_at(i) == id; });
}

void HeaderMap::clear() noexcept {
  entries_.set_size(0);
  bytes_.set_size(0);
}

bool operator==(const HeaderMap& a, const HeaderMap& b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Ids derive from the names, so names and values decide equality.
    if (a.name_at(i) != b.name_at(i) || a.value_at(i) != b.value_at(i)) {
      return false;
    }
  }
  return true;
}

}  // namespace meshnet::http
