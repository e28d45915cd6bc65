#include "trace.h"

#include <cstdio>

namespace perfbench {

Tracer::Scope::Scope(Tracer* tracer, std::string_view name)
    : tracer_(tracer) {
  if (tracer_ != nullptr) index_ = tracer_->Open(name);
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->Close(index_);
}

Tracer::Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

size_t Tracer::Open(std::string_view name) {
  Span span;
  span.name = std::string(name);
  if (open_.empty()) {
    span.op = next_op_++;
  } else {
    span.parent = static_cast<int64_t>(open_.back());
    span.op = spans_[open_.back()].op;
  }
  span.start_us = MsSince(origin_) * 1000.0;
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::Close(size_t index) {
  spans_[index].end_us = MsSince(origin_) * 1000.0;
  // Scopes nest, so the span closing is the innermost open one.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, double> Tracer::SelfMsByName() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_us[static_cast<size_t>(span.parent)] += span.end_us - span.start_us;
    }
  }
  std::map<std::string, double> self_ms;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent < 0) continue;
    double self_us = spans_[i].end_us - spans_[i].start_us - child_us[i];
    self_ms[spans_[i].name] += self_us / 1000.0;
  }
  return self_ms;
}

double Tracer::OperationCoverage() const {
  std::vector<bool> is_op(spans_.size(), false);
  double op_us = 0.0;
  double covered_us = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.parent < 0) {
      is_op[i] = span.name.rfind("op.", 0) == 0;
      if (is_op[i]) op_us += span.end_us - span.start_us;
    } else if (is_op[static_cast<size_t>(span.parent)]) {
      covered_us += span.end_us - span.start_us;
    }
  }
  return op_us > 0.0 ? covered_us / op_us : 0.0;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                 "\"args\": {\"op\": %llu, \"parent\": %lld}}%s\n",
                 span.name.c_str(),
                 span.name.substr(0, span.name.find('.')).c_str(),
                 span.start_us, span.end_us - span.start_us,
                 static_cast<unsigned long long>(span.op),
                 static_cast<long long>(span.parent),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
