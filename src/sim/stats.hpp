// Measurement helpers: latency distributions and throughput accounting.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace raidx::sim {

/// Collects a sample of latencies and summarizes them.
class LatencyRecorder {
 public:
  void add(Time t);

  std::size_t count() const { return samples_.size(); }
  Time min() const;
  Time max() const;
  double mean() const;
  /// q in [0,1]; nearest-rank percentile.
  Time percentile(double q) const;
  /// q in [0,1]; linearly interpolated between order statistics.  Smoother
  /// than percentile() for small samples; summaries report this form (see
  /// DESIGN.md "Quantile conventions").
  Time quantile(double q) const;
  Time total() const { return total_; }

  void clear();

 private:
  mutable std::vector<Time> samples_;
  mutable bool sorted_ = false;
  Time total_ = 0;
};

/// Minimal insertion-ordered JSON object builder for the machine-readable
/// bench artifacts (BENCH_*.json).  Flat objects only -- keys to scalars --
/// which is all a trajectory diff needs.
class JsonWriter {
 public:
  void add(const std::string& key, std::uint64_t v);
  void add(const std::string& key, std::int64_t v);
  void add(const std::string& key, int v) {
    add(key, static_cast<std::int64_t>(v));
  }
  void add(const std::string& key, double v);
  void add(const std::string& key, const std::string& v);
  void add(const std::string& key, const char* v) {
    add(key, std::string(v));
  }
  void add(const std::string& key, bool v);
  /// Embed a pre-rendered JSON value (object/array) verbatim.  Lets the
  /// flat bench schema carry nested sections like the obs registry
  /// snapshot without growing this writer into a full JSON library.
  void add_raw(const std::string& key, std::string json);

  /// Render as a JSON object, keys in insertion order.
  std::string str() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Fixed-width table printer used by the benchmark harnesses so every
/// figure/table reproduction prints in a uniform, diff-friendly format.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);
  void add_row(std::vector<std::string> cells);
  /// Render to stdout.
  void print() const;

  static std::string fmt(double v, int precision = 2);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace raidx::sim
