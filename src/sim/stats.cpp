#include "sim/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace raidx::sim {

void LatencyRecorder::add(Time t) {
  samples_.push_back(t);
  total_ += t;
  sorted_ = false;
}

Time LatencyRecorder::min() const {
  if (samples_.empty()) return 0;
  return *std::min_element(samples_.begin(), samples_.end());
}

Time LatencyRecorder::max() const {
  if (samples_.empty()) return 0;
  return *std::max_element(samples_.begin(), samples_.end());
}

double LatencyRecorder::mean() const {
  if (samples_.empty()) return 0.0;
  return static_cast<double>(total_) / static_cast<double>(samples_.size());
}

Time LatencyRecorder::percentile(double q) const {
  if (samples_.empty()) return 0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  q = std::clamp(q, 0.0, 1.0);
  std::size_t idx = static_cast<std::size_t>(
      q * static_cast<double>(samples_.size() - 1) + 0.5);
  return samples_[idx];
}

Time LatencyRecorder::quantile(double q) const {
  if (samples_.empty()) return 0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  if (lo + 1 >= samples_.size()) return samples_.back();
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] +
         static_cast<Time>(frac *
                               static_cast<double>(samples_[lo + 1] -
                                                   samples_[lo]) +
                           0.5);
}

void LatencyRecorder::clear() {
  samples_.clear();
  total_ = 0;
  sorted_ = false;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        // All remaining control characters must be \u-escaped per RFC 8259.
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

void JsonWriter::add(const std::string& key, std::uint64_t v) {
  fields_.emplace_back(key, std::to_string(v));
}

void JsonWriter::add(const std::string& key, std::int64_t v) {
  fields_.emplace_back(key, std::to_string(v));
}

void JsonWriter::add(const std::string& key, double v) {
  // JSON has no literal for NaN or infinity; emit null so the artifact
  // stays parseable instead of producing `nan`/`inf` tokens.
  if (!std::isfinite(v)) {
    fields_.emplace_back(key, "null");
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  fields_.emplace_back(key, buf);
}

void JsonWriter::add_raw(const std::string& key, std::string json) {
  fields_.emplace_back(key, std::move(json));
}

void JsonWriter::add(const std::string& key, const std::string& v) {
  std::string quoted = "\"";
  quoted += json_escape(v);
  quoted += '"';
  fields_.emplace_back(key, std::move(quoted));
}

void JsonWriter::add(const std::string& key, bool v) {
  fields_.emplace_back(key, v ? "true" : "false");
}

std::string JsonWriter::str() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i) out += ", ";
    out += '"';
    out += json_escape(fields_[i].first);
    out += "\": ";
    out += fields_[i].second;
  }
  out += "}";
  return out;
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::add_row(std::vector<std::string> cells) {
  assert(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

void TablePrinter::print() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    std::printf("|");
    for (std::size_t c = 0; c < row.size(); ++c) {
      std::printf(" %-*s |", static_cast<int>(width[c]), row[c].c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::printf("|");
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    std::printf("%s|", std::string(width[c] + 2, '-').c_str());
  }
  std::printf("\n");
  for (const auto& row : rows_) print_row(row);
}

std::string TablePrinter::fmt(double v, int precision) {
  // printf renders non-finite values in platform-dependent spellings
  // ("nan", "-nan(ind)", ...); normalize so tables stay diff-friendly.
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace raidx::sim
