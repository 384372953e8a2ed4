#pragma once

// In-memory span trace of the benchmark's traced run. Spans are appended by
// one thread (the dispatcher or replay loop); served requests, whose
// completions land on server workers, record raw timestamps into per-request
// slots and are turned into spans after their phase ends.

#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "measure.hpp"

namespace perfbench {

class Trace {
 public:
  std::uint16_t name_id(const std::string& name) {
    auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    const auto id = static_cast<std::uint16_t>(names_.size());
    names_.push_back(name);
    ids_.emplace(name, id);
    return id;
  }

  std::uint64_t new_root() { return ++next_root_; }

  /// Append a span and return its index (the `parent` of later children).
  std::int32_t add(std::uint64_t root, std::int32_t parent,
                   const std::string& name, std::int64_t start_ns,
                   std::int64_t end_ns) {
    spans_.push_back(Span{root, parent, name_id(name), start_ns, end_ns});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  /// Durations (or self times) in microseconds of every span named `name`.
  std::vector<double> durations_us(const std::string& name,
                                   bool self = false) const {
    std::vector<double> out;
    auto it = ids_.find(name);
    if (it == ids_.end()) return out;
    std::vector<std::int64_t> selfs;
    if (self) selfs = self_times(spans_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name != it->second) continue;
      const std::int64_t d =
          self ? selfs[i] : spans_[i].end_ns - spans_[i].start_ns;
      out.push_back(static_cast<double>(d) * 1e-3);
    }
    return out;
  }

  double median_us(const std::string& name, bool self = false) const {
    return median_of(durations_us(name, self));
  }

  /// One CSV line per span: root,parent,name,start_ns,end_ns,self_ns.
  bool write_csv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const auto selfs = self_times(spans_);
    std::fprintf(f, "root,parent,name,start_ns,end_ns,self_ns\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%llu,%d,%s,%lld,%lld,%lld\n",
                   static_cast<unsigned long long>(s.root), s.parent,
                   names_[s.name].c_str(), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(selfs[i]));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint16_t> ids_;
  std::vector<Span> spans_;
  std::uint64_t next_root_ = 0;
};

}  // namespace perfbench
