#include "core/provenance.h"

#include <utility>

namespace meshnet::core {

ProvenanceTable::ProvenanceTable(sim::Simulator& sim, sim::Duration ttl)
    : sim_(sim), ttl_(ttl) {}

void ProvenanceTable::record(const std::string& request_id,
                             mesh::TrafficClass priority) {
  if (request_id.empty()) return;
  maybe_sweep();
  entries_[request_id] = Entry{priority, sim_.now() + ttl_};
}

std::optional<mesh::TrafficClass> ProvenanceTable::lookup(
    const std::string& request_id) {
  if (request_id.empty()) {
    ++misses_;
    return std::nullopt;
  }
  const auto it = entries_.find(request_id);
  if (it == entries_.end() || it->second.expires_at <= sim_.now()) {
    if (it != entries_.end()) entries_.erase(it);
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return it->second.priority;
}

void ProvenanceTable::maybe_sweep() {
  // Amortized: sweep at most once per TTL interval.
  if (sim_.now() - last_sweep_ < ttl_) return;
  last_sweep_ = sim_.now();
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.expires_at <= sim_.now()) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

ProvenanceFilter::ProvenanceFilter(std::shared_ptr<ProvenanceTable> table)
    : table_(std::move(table)) {}

mesh::FilterStatus ProvenanceFilter::on_request(mesh::RequestContext& ctx) {
  const std::string request_id(ctx.request.request_id());
  auto priority = request_priority(ctx.request);

  if (ctx.direction == mesh::FilterDirection::kInbound) {
    if (priority) {
      // Remember the inbound request's objective so the sub-requests the
      // app spawns (same x-request-id, no priority header) inherit it.
      table_->record(request_id, *priority);
    }
  } else {
    if (!priority) {
      priority = table_->lookup(request_id);
      if (priority) set_request_priority(ctx.request, *priority);
    } else {
      // App (or an earlier hop) supplied priority explicitly; keep the
      // table warm for its siblings.
      table_->record(request_id, *priority);
    }
  }
  if (priority) ctx.traffic_class = *priority;
  return mesh::FilterStatus::kContinue;
}

void ProvenanceFilter::on_response(mesh::RequestContext& ctx,
                                   http::HttpResponse& response) {
  // Paper §4.3 step 2: copy the priority onto the associated response.
  const std::string_view value = priority_header_value(ctx.traffic_class);
  if (!value.empty()) {
    response.headers.set(http::headers::Id::kMeshPriority, value);
  }
}

}  // namespace meshnet::core
