#include "obs/telemetry.h"

#include "obs/json.h"
#include "utils/check.h"

namespace hire {
namespace obs {

TelemetrySink& TelemetrySink::Global() {
  static TelemetrySink* sink = new TelemetrySink();
  return *sink;
}

TelemetrySink::~TelemetrySink() { Close(); }

void TelemetrySink::Open(const std::string& path, bool append) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  file_ = std::fopen(path.c_str(), append ? "a" : "w");
  HIRE_CHECK(file_ != nullptr)
      << "cannot open telemetry output '" << path << "'";
}

bool TelemetrySink::enabled() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return file_ != nullptr;
}

void TelemetrySink::WriteLine(const std::string& json_object) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) return;
  std::fwrite(json_object.data(), 1, json_object.size(), file_);
  std::fputc('\n', file_);
  std::fflush(file_);
}

void TelemetrySink::WriteStep(const StepTelemetry& step) {
  std::string line = "{\"type\":\"step\",\"source\":" +
                     JsonString(step.source) +
                     ",\"step\":" + std::to_string(step.step) +
                     ",\"total_steps\":" + std::to_string(step.total_steps) +
                     ",\"loss\":" + JsonNumber(step.loss) +
                     ",\"masked_mse\":" + JsonNumber(step.loss) +
                     ",\"grad_norm\":" + JsonNumber(step.grad_norm) +
                     ",\"lr\":" + JsonNumber(step.lr) +
                     ",\"lr_scale\":" + JsonNumber(step.lr_scale) +
                     ",\"wall_s\":" + JsonNumber(step.wall_seconds);
  if (step.has_kernel_delta) {
    line += ",\"kernels\":{";
    for (int i = 0; i < KernelTimers::kNumCategories; ++i) {
      const auto category = static_cast<KernelCategory>(i);
      if (i > 0) line += ",";
      line += JsonString(std::string(KernelTimers::Name(category)) + "_s") +
              ":" + JsonNumber(step.kernel_delta.Seconds(category));
    }
    line += "}";
  }
  line += "}";
  WriteLine(line);
}

void TelemetrySink::WriteEvent(const std::string& name, int64_t step,
                               const TelemetryFields& fields) {
  std::string line = "{\"type\":\"event\",\"name\":" + JsonString(name) +
                     ",\"step\":" + std::to_string(step);
  for (const auto& [key, json_value] : fields) {
    line += ",";
    line += JsonString(key);
    line += ":";
    line += json_value;
  }
  line += "}";
  WriteLine(line);
}

void TelemetrySink::WriteMetricsSnapshot(
    const MetricsRegistry::Snapshot& snapshot) {
  WriteLine("{\"type\":\"metrics_snapshot\",\"metrics\":" + snapshot.ToJson() +
            "}");
}

void TelemetrySink::Close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

}  // namespace obs
}  // namespace hire
