// One reported number and the result line the benchmark ends with.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace servebench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // printed beside the value, not in the result line
};

/// Prints each metric on its own line (name, value, unit, note).
void print_metrics(const std::string& title, const std::vector<Metric>& ms);

/// The final stdout line: {"correct", "attempted", "failed", "metrics"},
/// values with all their digits.
[[nodiscard]] std::string result_json(bool correct, std::size_t attempted,
                                      std::size_t failed,
                                      const std::vector<Metric>& ms);

}  // namespace servebench
