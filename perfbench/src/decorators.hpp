// Tracing decorators around the library's own interfaces: the benchmark
// records a span around every call it forwards, so per-layer times come
// from the layer boundaries the library already exposes, without touching
// the library. Each decorator reads a TraceContext whose tracer is null
// while recording is off, so one traced process can measure the same rig
// with and without recording.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "serving/diagnoser.hpp"
#include "trace.hpp"
#include "wire/transport.hpp"

namespace perfbench {

struct TraceContext {
  Tracer* tracer = nullptr;  // null while recording is off
  std::uint32_t item = 0;    // current feed tick or query round
};

class TracedConnection : public alba::Connection {
 public:
  TracedConnection(std::unique_ptr<alba::Connection> inner,
                   const TraceContext& ctx, std::uint16_t read_name,
                   std::uint16_t write_name)
      : inner_(std::move(inner)), ctx_(ctx), read_(read_name),
        write_(write_name) {}
  alba::IoResult read_some(std::span<std::uint8_t> buf) override {
    ScopedSpan s(ctx_.tracer, read_, ctx_.item);
    return inner_->read_some(buf);
  }
  alba::IoResult write_some(std::span<const std::uint8_t> data) override {
    ScopedSpan s(ctx_.tracer, write_, ctx_.item);
    return inner_->write_some(data);
  }
  void close() override { inner_->close(); }
  bool closed() const override { return inner_->closed(); }
  int fd() const override { return inner_->fd(); }

 private:
  std::unique_ptr<alba::Connection> inner_;
  const TraceContext& ctx_;
  std::uint16_t read_;
  std::uint16_t write_;
};

/// Wraps every accepted connection in a TracedConnection.
class TracedListener : public alba::Listener {
 public:
  TracedListener(std::unique_ptr<alba::Listener> inner,
                 const TraceContext& ctx, std::uint16_t read_name,
                 std::uint16_t write_name)
      : inner_(std::move(inner)), ctx_(ctx), read_(read_name),
        write_(write_name) {}
  std::unique_ptr<alba::Connection> accept_one() override {
    std::unique_ptr<alba::Connection> c = inner_->accept_one();
    if (c == nullptr) return nullptr;
    return std::make_unique<TracedConnection>(std::move(c), ctx_, read_,
                                              write_);
  }
  void close() override { inner_->close(); }
  int fd() const override { return inner_->fd(); }

 private:
  std::unique_ptr<alba::Listener> inner_;
  const TraceContext& ctx_;
  std::uint16_t read_;
  std::uint16_t write_;
};

class TracedDiagnoser : public alba::Diagnoser {
 public:
  TracedDiagnoser(alba::Diagnoser& inner, const TraceContext& ctx,
                  std::uint16_t name)
      : inner_(inner), ctx_(ctx), name_(name) {}
  alba::DiagnosisResult diagnose(
      const alba::DiagnoseRequest& request) override {
    ScopedSpan s(ctx_.tracer, name_, ctx_.item);
    return inner_.diagnose(request);
  }

 private:
  alba::Diagnoser& inner_;
  const TraceContext& ctx_;
  std::uint16_t name_;
};

}  // namespace perfbench
