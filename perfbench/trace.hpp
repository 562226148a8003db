// Span recorder of the benchmark driver.
//
// The driver wraps every call it makes into a library layer in a Span:
// {name, workload, step, begin_ns, end_ns, parent}, plus the counters read
// at that boundary as named arguments. Spans are kept in memory and written
// once, at exit, as Chrome trace-event JSON (chrome://tracing, Perfetto).
// A disarmed recorder still times its spans — the driver reads layer
// durations through the same Scope objects — but stores nothing.
//
// Spans are opened and closed on the driver thread only; nesting follows a
// stack, so a span's parent is the innermost span open when it began.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Trace {
 public:
  using Clock = std::chrono::steady_clock;

  Trace(bool armed, std::string workload)
      : armed_(armed), workload_(std::move(workload)), epoch_(Clock::now()) {}

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  bool armed() const { return armed_; }

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  /// One timed layer call. Records a span when the recorder is armed.
  class Scope {
   public:
    Scope(Trace& trace, const char* name, long step = -1)
        : trace_(trace), begin_ns_(trace.now_ns()) {
      if (trace_.armed_) {
        index_ = static_cast<long>(trace_.spans_.size());
        const long parent = trace_.open_.empty() ? -1 : trace_.open_.back();
        trace_.spans_.push_back({name, step, begin_ns_, -1, parent, {}});
        trace_.open_.push_back(index_);
      }
    }
    ~Scope() { stop(); }

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Closes the span (idempotent) and returns its duration in ms.
    double stop() {
      if (end_ns_ < 0) {
        end_ns_ = trace_.now_ns();
        if (index_ >= 0) {
          trace_.spans_[static_cast<std::size_t>(index_)].end_ns = end_ns_;
          auto& open = trace_.open_;
          open.erase(std::find(open.begin(), open.end(), index_));
        }
      }
      return static_cast<double>(end_ns_ - begin_ns_) / 1e6;
    }

    /// Attaches a counter read at this boundary.
    void arg(const char* key, double value) {
      if (index_ >= 0) {
        trace_.spans_[static_cast<std::size_t>(index_)].args.emplace_back(
            key, value);
      }
    }

   private:
    Trace& trace_;
    long index_ = -1;
    std::int64_t begin_ns_;
    std::int64_t end_ns_ = -1;
  };

  /// Records a span timed by the caller (one that overlaps others, such as
  /// a tenant's turnaround) under the innermost open span.
  void add(const char* name, long step, std::int64_t begin_ns,
           std::int64_t end_ns,
           std::vector<std::pair<std::string, double>> args = {}) {
    if (!armed_) return;
    const long parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, step, begin_ns, end_ns, parent, std::move(args)});
  }

  std::size_t size() const { return spans_.size(); }

  /// True when at least one recorded span is named `name` and, if `arg` is
  /// non-empty, carries that argument.
  bool has_span(const std::string& name, const std::string& arg = {}) const {
    for (const Span& s : spans_) {
      if (s.name != name) continue;
      if (arg.empty()) return true;
      for (const auto& [key, value] : s.args) {
        if (key == arg) return true;
      }
    }
    return false;
  }

  /// Writes the recorded spans as Chrome trace-event JSON ("X" complete
  /// events, microsecond timestamps). False when the file cannot be written.
  bool write_chrome(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string layer = s.name.substr(0, s.name.find('.'));
      out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
          << "\", \"cat\": \"" << layer
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << number(static_cast<double>(s.begin_ns) / 1e3)
          << ", \"dur\": "
          << number(static_cast<double>(s.end_ns - s.begin_ns) / 1e3)
          << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
          << ", \"workload\": \"" << workload_ << "\", \"step\": " << s.step
          << ", \"begin_ns\": " << s.begin_ns << ", \"end_ns\": " << s.end_ns;
      for (const auto& [key, value] : s.args) {
        out << ", \"" << key << "\": " << number(value);
      }
      out << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

  /// JSON number with every significant digit; non-finite values become 0
  /// (JSON has no NaN or infinity).
  static std::string number(double v) {
    if (!std::isfinite(v)) return "0";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

 private:
  struct Span {
    std::string name;
    long step;
    std::int64_t begin_ns;
    std::int64_t end_ns;
    long parent;
    std::vector<std::pair<std::string, double>> args;
  };

  bool armed_;
  std::string workload_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<long> open_;  // indices of the spans open right now
};

}  // namespace perfbench
