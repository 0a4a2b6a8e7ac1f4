#include "trace.hpp"

#include <utility>

namespace perfbench {

double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Tracer::Tracer(bool enabled, std::string run_id)
    : enabled_(enabled), run_id_(std::move(run_id)), origin_(Clock::now()) {}

int Tracer::open(std::string name, Clock::time_point start) {
  if (!enabled_) return -1;
  SpanRecord s;
  s.name = std::move(name);
  s.id = static_cast<int>(spans_.size());
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_s = secondsBetween(origin_, start);
  s.end_s = s.start_s;
  spans_.push_back(std::move(s));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::close(int id, Clock::time_point end) {
  if (!enabled_ || id < 0) return;
  // Spans nest (Span is scoped), so `id` is the innermost open span; any
  // span still open inside it ends with it.
  const double end_s = secondsBetween(origin_, end);
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    spans_[top].end_s = end_s;
    if (top == id) break;
  }
}

Span::Span(Tracer& tracer, std::string name)
    : tracer_(tracer), id_(-1), start_(Clock::now()) {
  id_ = tracer_.open(std::move(name), start_);
}

Span::~Span() {
  if (seconds_ < 0.0) stop();
}

double Span::stop() {
  if (seconds_ >= 0.0) return seconds_;
  const Clock::time_point end = Clock::now();
  seconds_ = secondsBetween(start_, end);
  tracer_.close(id_, end);
  return seconds_;
}

}  // namespace perfbench
