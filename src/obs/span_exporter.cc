#include "obs/span_exporter.h"

#include <utility>

namespace meshnet::obs {

SpanExporter::SpanExporter(MetricRegistry* registry) : registry_(registry) {}

SpanExporter::ServiceCells& SpanExporter::cells_for(
    const std::string& service) {
  const auto it = cells_.find(service);
  if (it != cells_.end()) return it->second;
  ServiceCells cells;
  const Labels labels = {{"service", service}};
  cells.total = &registry_->counter("spans_total", labels);
  cells.errors = &registry_->counter("span_errors_total", labels);
  cells.duration = &registry_->histogram("span_duration_ns", labels);
  return cells_.emplace(service, cells).first->second;
}

void SpanExporter::count_span(const std::string& service, bool error,
                              sim::Duration duration) {
  ++exported_total_;
  if (registry_) {
    ServiceCells& cells = cells_for(service);
    cells.total->inc();
    if (error) cells.errors->inc();
    cells.duration->record(
        duration > 0 ? static_cast<std::uint64_t>(duration) : 0);
  }
}

void SpanExporter::export_span(SpanRecord span) {
  count_span(span.service, span.error, span.duration());
  for (const auto& sink : sinks_) sink(span);
  if (retention_ == 0) return;
  spans_.push_back(std::move(span));
  if (spans_.size() > retention_) {
    spans_.erase(spans_.begin(),
                 spans_.begin() +
                     static_cast<std::ptrdiff_t>(spans_.size() - retention_));
  }
}

void SpanExporter::add_sink(std::function<void(const SpanRecord&)> sink) {
  sinks_.push_back(std::move(sink));
}

void SpanExporter::clear() {
  spans_.clear();
  exported_total_ = 0;
  for (auto& [service, cells] : cells_) {
    cells.total->reset();
    cells.errors->reset();
    cells.duration->reset();
  }
}

}  // namespace meshnet::obs
