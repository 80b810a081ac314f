#ifndef HIRE_OBS_TELEMETRY_H_
#define HIRE_OBS_TELEMETRY_H_

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/kernel_timers.h"
#include "obs/metrics.h"

namespace hire {
namespace obs {

/// One structured training-step record. Deterministic fields (step, loss,
/// grad_norm, lr, lr_scale) replay bit-identically across --resume; timing
/// fields (wall_seconds, kernel deltas) naturally vary run to run.
struct StepTelemetry {
  /// Which trainer produced the record ("hire" or a baseline model name).
  std::string source = "hire";
  int64_t step = 0;        // 1-based index of the completed step
  int64_t total_steps = 0;
  double loss = 0.0;       // batch-mean masked MSE
  double grad_norm = 0.0;  // pre-clip global gradient norm
  double lr = 0.0;         // effective learning rate used for the update
  double lr_scale = 1.0;   // divergence-guard backoff multiplier
  double wall_seconds = 0.0;
  /// Kernel-time accumulated since the previous telemetry record.
  KernelTimers::Snapshot kernel_delta;
  bool has_kernel_delta = false;
};

/// Pre-rendered JSON values keyed by field name; values must already be
/// valid JSON fragments (use JsonString/JsonNumber from obs/json.h).
using TelemetryFields = std::vector<std::pair<std::string, std::string>>;

/// Process-wide JSONL telemetry writer. One JSON object per line:
///   {"type":"step",...}              per logged training step
///   {"type":"event","name":...}      discrete events (checkpoint written,
///                                    non-finite step skipped, rollback, ...)
///   {"type":"metrics_snapshot",...}  full registry export (run end)
/// Writes are serialised by a mutex and flushed per line so a crash loses at
/// most the line being written. All write calls are no-ops until Open().
class TelemetrySink {
 public:
  static TelemetrySink& Global();

  /// Starts writing to `path`. With `append`, existing records are kept —
  /// used by --resume so a resumed run extends the original stream. Throws
  /// hire::CheckError when the file cannot be opened.
  void Open(const std::string& path, bool append = false);

  bool enabled() const;

  void WriteStep(const StepTelemetry& step);
  void WriteEvent(const std::string& name, int64_t step,
                  const TelemetryFields& fields = {});
  void WriteMetricsSnapshot(const MetricsRegistry::Snapshot& snapshot);

  /// Writes one raw, already-serialised JSON object line.
  void WriteLine(const std::string& json_object);

  void Close();

  ~TelemetrySink();

 private:
  TelemetrySink() = default;
  mutable std::mutex mutex_;
  std::FILE* file_ = nullptr;
};

}  // namespace obs
}  // namespace hire

#endif  // HIRE_OBS_TELEMETRY_H_
