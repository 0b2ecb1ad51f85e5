#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace lmfao {
namespace perfbench {

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

int Tracer::Begin(const char* name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op_;
  span.start_us = NowUs();
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_us = NowUs();
  // Spans are scoped, so the one closing is the innermost open one.
  open_.pop_back();
}

void Tracer::Count(const char* name, double value) {
  if (!enabled_) return;
  counters_[{name, op_}] += value;
}

bool Tracer::Has(const std::string& name) const {
  for (const Span& s : spans_) {
    if (name == s.name) return true;
  }
  for (const auto& [key, value] : counters_) {
    if (key.first == name) return true;
  }
  return false;
}

double Tracer::SelfUs(int index) const {
  const Span& span = spans_[static_cast<size_t>(index)];
  double self = span.end_us - span.start_us;
  // Children follow their parent in recording order.
  for (size_t i = static_cast<size_t>(index) + 1; i < spans_.size(); ++i) {
    if (spans_[i].start_us >= span.end_us) break;
    if (spans_[i].parent == index) {
      self -= spans_[i].end_us - spans_[i].start_us;
    }
  }
  return self;
}

namespace {

std::vector<double> Values(const std::map<int, double>& per_op) {
  std::vector<double> out;
  for (const auto& [op, value] : per_op) out.push_back(value);
  return out;
}

}  // namespace

std::vector<double> Tracer::TotalsMs(const std::string& name) const {
  std::map<int, double> per_op;
  for (const Span& s : spans_) {
    if (name == s.name) per_op[s.op] += (s.end_us - s.start_us) / 1e3;
  }
  return Values(per_op);
}

std::vector<double> Tracer::SelfMs(const std::string& name) const {
  std::map<int, double> per_op;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) {
      per_op[spans_[i].op] += SelfUs(static_cast<int>(i)) / 1e3;
    }
  }
  return Values(per_op);
}

std::vector<double> Tracer::Occurrences(const std::string& name) const {
  std::map<int, double> per_op;
  for (const Span& s : spans_) {
    if (name == s.name) per_op[s.op] += 1.0;
  }
  return Values(per_op);
}

std::vector<double> Tracer::Counter(const std::string& name) const {
  std::vector<double> out;
  for (const auto& [key, value] : counters_) {
    if (key.first == name) out.push_back(value);
  }
  return out;
}

bool Tracer::WriteChromeTrace(
    const std::string& path,
    const std::map<std::string, double>& summary) const {
  std::ofstream out(path);
  if (!out) return false;
  char buf[512];
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"op\":%d,"
                  "\"parent\":%d,\"self_ms\":%.6f}}\n",
                  i == 0 ? "" : ",", s.name,
                  std::string(s.name).substr(0, std::string(s.name).find('.'))
                      .c_str(),
                  s.start_us, s.end_us - s.start_us, s.op, s.parent,
                  SelfUs(static_cast<int>(i)) / 1e3);
    out << buf;
  }
  out << "],\"otherData\":{";
  bool first = true;
  for (const auto& [name, value] : summary) {
    // JSON has no NaN: a figure nothing recorded is written as null.
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\":%.17g", first ? "" : ",",
                    name.c_str(), value);
    } else {
      std::snprintf(buf, sizeof(buf), "%s\"%s\":null", first ? "" : ",",
                    name.c_str());
    }
    out << buf;
    first = false;
  }
  out << "}}\n";
  return static_cast<bool>(out.flush());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
}  // namespace lmfao
