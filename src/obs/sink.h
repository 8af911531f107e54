// Line-oriented output sinks shared by the flight recorder and training
// telemetry.
//
// A sink turns "emit this line" into exactly one synchronized stream write,
// so concurrent writers (run_many workers flushing traces) never interleave
// partial lines. Every concrete sink formats the full line — payload plus
// newline — into a private buffer and issues a single write() under its
// mutex.
#pragma once

#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace libra {

class LineSink {
 public:
  virtual ~LineSink() = default;

  /// Writes `line` plus a trailing newline as one atomic operation.
  virtual void write_line(std::string_view line) = 0;

  virtual void flush() {}
};

/// Sink over an ostream. Borrows the stream by default; open_file() returns a
/// sink that owns the underlying ofstream.
class StreamLineSink final : public LineSink {
 public:
  explicit StreamLineSink(std::ostream& out) : out_(&out) {}

  static std::unique_ptr<StreamLineSink> open_file(const std::string& path) {
    auto file = std::make_unique<std::ofstream>(path, std::ios::trunc);
    if (!*file) throw std::runtime_error("StreamLineSink: cannot open " + path);
    auto sink = std::unique_ptr<StreamLineSink>(new StreamLineSink());
    sink->owned_ = std::move(file);
    sink->out_ = sink->owned_.get();
    return sink;
  }

  void write_line(std::string_view line) override {
    std::lock_guard<std::mutex> lock(mu_);
    buf_.assign(line);
    buf_.push_back('\n');
    out_->write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  }

  void flush() override {
    std::lock_guard<std::mutex> lock(mu_);
    out_->flush();
  }

 private:
  StreamLineSink() = default;

  std::unique_ptr<std::ofstream> owned_;
  std::ostream* out_ = nullptr;
  std::mutex mu_;
  std::string buf_;  // reused so a line is one write and zero steady-state allocs
};

}  // namespace libra
