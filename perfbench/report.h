#ifndef TITANT_PERFBENCH_REPORT_H_
#define TITANT_PERFBENCH_REPORT_H_

// Collects one run's metrics and output checks, prints them for a reader,
// and renders the machine-readable result line run.py consumes.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics_.push_back(Metric{name, value, unit});
  }

  /// Records an output check; a failed check fails the run.
  void Check(const std::string& name, bool ok, const std::string& detail) {
    checks_.push_back(CheckResult{name, ok, detail});
    std::printf("check %-44s %s  %s\n", name.c_str(), ok ? "PASS" : "FAIL", detail.c_str());
  }

  /// Operations the run attempted and failed (verdicts, puts, jobs).
  void Count(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  void Provenance(const std::string& key, const std::string& value) {
    provenance_.emplace_back(key, value);
  }

  bool all_ok() const {
    return std::all_of(checks_.begin(), checks_.end(), [](const CheckResult& c) { return c.ok; });
  }

  std::string Json(const std::string& workload, uint64_t seed, bool trace) const {
    std::string out = "{\"workload\":\"" + workload + "\",\"seed\":" + std::to_string(seed) +
                      ",\"trace\":" + (trace ? "1" : "0") + ",\"correct\":" +
                      (all_ok() ? "true" : "false") +
                      ",\"attempted\":" + std::to_string(attempted_) +
                      ",\"failed\":" + std::to_string(failed_) + ",\"provenance\":{";
    for (std::size_t i = 0; i < provenance_.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"" + provenance_[i].first + "\":\"" + Escape(provenance_[i].second) + "\"";
    }
    out += "},\"checks\":[";
    for (std::size_t i = 0; i < checks_.size(); ++i) {
      if (i > 0) out += ",";
      out += "{\"name\":\"" + Escape(checks_[i].name) + "\",\"ok\":" +
             (checks_[i].ok ? "true" : "false") + ",\"detail\":\"" +
             Escape(checks_[i].detail) + "\"}";
    }
    out += "],\"metrics\":{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      if (i > 0) out += ",";
      char value[64];
      const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
      std::snprintf(value, sizeof(value), "%.17g", v);
      out += "\"" + metrics_[i].name + "\":{\"value\":" + value + ",\"unit\":\"" +
             metrics_[i].unit + "\"}";
    }
    out += "}}";
    return out;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  struct CheckResult {
    std::string name;
    bool ok;
    std::string detail;
  };

  static std::string Escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += (c == '\n' ? ' ' : c);
    }
    return out;
  }

  std::vector<Metric> metrics_;
  std::vector<CheckResult> checks_;
  std::vector<std::pair<std::string, std::string>> provenance_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Median of `values` (0 for an empty set).
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Exact percentile (nearest rank, p in [0, 100]) of `values`.
inline double Percentile(std::vector<float> values, double p) {
  if (values.empty()) return 0.0;
  const std::size_t rank = std::min(
      values.size() - 1,
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(values.size()))) -
          (p > 0.0 ? 1 : 0));
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

}  // namespace perfbench

#endif  // TITANT_PERFBENCH_REPORT_H_
