#include "report.h"

#include <cstdio>

namespace servebench {

namespace {

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void print_metrics(const std::string& title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title.c_str());
  for (const Metric& m : ms) {
    std::printf("  %-30s %14.6g %-10s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed, const std::vector<Metric>& ms) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + number(ms[i].value) +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace servebench
