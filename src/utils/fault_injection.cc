#include "utils/fault_injection.h"

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "utils/check.h"
#include "utils/logging.h"
#include "utils/string_utils.h"

namespace hire {

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

void FaultInjector::Reset() {
  crash_at_step_ = -1;
  nan_loss_steps_.clear();
  truncate_checkpoint_ = false;
  bitflip_checkpoint_ = false;
  serve_slow_handler_ms_ = 0;
  serve_corrupt_reload_ = false;
  serve_corrupt_reload_shard_.store(-1);
  serve_reset_every_ = 0;
  serve_reset_counter_.store(0);
  serve_stall_client_ms_ = 0;
  serve_fail_forward_.store(0);
  ReleaseServeWorker();
}

void FaultInjector::LoadFromEnv() {
  if (const char* value = std::getenv("HIRE_FAULT_CRASH_AT_STEP")) {
    crash_at_step_ = ParseInt64(value);
  }
  if (const char* value = std::getenv("HIRE_FAULT_NAN_LOSS_AT_STEPS")) {
    for (const std::string& field : Split(value, ',')) {
      const std::string token = Trim(field);
      if (!token.empty()) nan_loss_steps_.insert(ParseInt64(token));
    }
  }
  if (const char* value = std::getenv("HIRE_FAULT_TRUNCATE_CHECKPOINT")) {
    truncate_checkpoint_ = std::string(value) != "0";
  }
  if (const char* value = std::getenv("HIRE_FAULT_BITFLIP_CHECKPOINT")) {
    bitflip_checkpoint_ = std::string(value) != "0";
  }
  if (const char* value = std::getenv("HIRE_FAULT_SERVE_SLOW_HANDLER_MS")) {
    serve_slow_handler_ms_ = ParseInt64(value);
  }
  if (const char* value = std::getenv("HIRE_FAULT_SERVE_CORRUPT_RELOAD")) {
    serve_corrupt_reload_ = std::string(value) != "0";
  }
  if (const char* value =
          std::getenv("HIRE_FAULT_SERVE_CORRUPT_RELOAD_SHARD")) {
    serve_corrupt_reload_shard_.store(ParseInt64(value));
  }
  if (const char* value = std::getenv("HIRE_FAULT_SERVE_RESET_EVERY")) {
    serve_reset_every_ = ParseInt64(value);
  }
  if (const char* value = std::getenv("HIRE_FAULT_SERVE_STALL_CLIENT_MS")) {
    serve_stall_client_ms_ = ParseInt64(value);
  }
  if (const char* value = std::getenv("HIRE_FAULT_SERVE_FAIL_FORWARD")) {
    serve_fail_forward_.store(ParseInt64(value));
  }
}

void FaultInjector::ArmCrashAtStep(int64_t step) { crash_at_step_ = step; }

void FaultInjector::ArmNanLossAtSteps(std::multiset<int64_t> steps) {
  nan_loss_steps_ = std::move(steps);
}

void FaultInjector::ArmTruncateCheckpoint(bool on) {
  truncate_checkpoint_ = on;
}

void FaultInjector::ArmBitflipCheckpoint(bool on) {
  bitflip_checkpoint_ = on;
}

void FaultInjector::ArmServeSlowHandler(int64_t ms) {
  serve_slow_handler_ms_ = ms;
}

void FaultInjector::ArmServeCorruptReload(bool on) {
  serve_corrupt_reload_ = on;
}

void FaultInjector::ArmServeCorruptReloadShard(int64_t shard) {
  serve_corrupt_reload_shard_.store(shard);
}

void FaultInjector::ArmServeResetEvery(int64_t every) {
  serve_reset_every_ = every;
  serve_reset_counter_.store(0);
}

void FaultInjector::ArmServeStallClient(int64_t ms) {
  serve_stall_client_ms_ = ms;
}

void FaultInjector::ArmServeFailForward(int64_t count) {
  serve_fail_forward_.store(count);
}

void FaultInjector::ParkServeWorker() {
  std::lock_guard<std::mutex> lock(serve_park_mutex_);
  serve_park_armed_.store(true);
}

void FaultInjector::ReleaseServeWorker() {
  {
    std::lock_guard<std::mutex> lock(serve_park_mutex_);
    serve_park_armed_.store(false);
  }
  serve_park_changed_.notify_all();
}

bool FaultInjector::AwaitServeWorkerParked(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(serve_park_mutex_);
  return serve_park_changed_.wait_for(
      lock, timeout, [this] { return serve_parked_workers_ > 0; });
}

void FaultInjector::MaybeParkServeWorker() {
  if (!serve_park_armed_.load(std::memory_order_relaxed)) return;
  std::unique_lock<std::mutex> lock(serve_park_mutex_);
  if (!serve_park_armed_.load()) return;
  ++serve_parked_workers_;
  serve_park_changed_.notify_all();
  serve_park_changed_.wait(lock, [this] { return !serve_park_armed_.load(); });
  --serve_parked_workers_;
}

void FaultInjector::MaybeCorruptServeReload(const std::string& path) {
  if (!serve_corrupt_reload_) return;
  const uint64_t size = FileSize(path);
  HIRE_CHECK_GT(size, 0u);
  FlipFileBit(path, size / 2, 2);
  HIRE_LOG(Warning) << "fault injection: corrupted snapshot '" << path
                    << "' before reload";
}

bool FaultInjector::ConsumeServeCorruptReloadShard(int64_t shard) {
  int64_t armed = serve_corrupt_reload_shard_.load();
  while (armed >= 0 && armed == shard) {
    if (serve_corrupt_reload_shard_.compare_exchange_weak(armed, -1)) {
      HIRE_LOG(Warning) << "fault injection: corrupting reload for shard "
                        << shard << " (one-shot)";
      return true;
    }
  }
  return false;
}

bool FaultInjector::ConsumeServeConnectionReset() {
  if (serve_reset_every_ <= 0) return false;
  const int64_t n = serve_reset_counter_.fetch_add(1) + 1;
  if (n % serve_reset_every_ != 0) return false;
  HIRE_LOG(Warning) << "fault injection: resetting HTTP connection (request "
                    << n << ")";
  return true;
}

bool FaultInjector::ConsumeServeFailForward() {
  int64_t remaining = serve_fail_forward_.load();
  while (remaining > 0) {
    if (serve_fail_forward_.compare_exchange_weak(remaining, remaining - 1)) {
      HIRE_LOG(Warning) << "fault injection: failing batch forward ("
                        << remaining - 1 << " left)";
      return true;
    }
  }
  return false;
}

void FaultInjector::MaybeCrash(int64_t step) {
  if (crash_at_step_ < 0 || step != crash_at_step_) return;
  HIRE_LOG(Warning) << "fault injection: SIGKILL at step " << step;
  std::raise(SIGKILL);
  // SIGKILL cannot be handled; if raise somehow returns, hard-exit anyway so
  // the harness still observes an abnormal termination.
  std::_Exit(137);
}

bool FaultInjector::ConsumeNanLoss(int64_t step) {
  auto it = nan_loss_steps_.find(step);
  if (it == nan_loss_steps_.end()) return false;
  nan_loss_steps_.erase(it);
  HIRE_LOG(Warning) << "fault injection: poisoning loss with NaN at step "
                    << step;
  return true;
}

void FaultInjector::MaybeCorruptCheckpoint(const std::string& path) {
  if (truncate_checkpoint_) {
    const uint64_t size = FileSize(path);
    TruncateFile(path, size / 2);
    HIRE_LOG(Warning) << "fault injection: truncated checkpoint '" << path
                      << "' to " << size / 2 << " bytes";
  }
  if (bitflip_checkpoint_) {
    const uint64_t size = FileSize(path);
    HIRE_CHECK_GT(size, 0u);
    FlipFileBit(path, size / 2, 3);
    HIRE_LOG(Warning) << "fault injection: flipped a bit in checkpoint '"
                      << path << "'";
  }
}

void TruncateFile(const std::string& path, uint64_t keep_bytes) {
  std::error_code error;
  std::filesystem::resize_file(path, keep_bytes, error);
  HIRE_CHECK(!error) << "cannot truncate '" << path
                     << "': " << error.message();
}

void FlipFileBit(const std::string& path, uint64_t byte_offset, int bit) {
  HIRE_CHECK(bit >= 0 && bit < 8);
  std::fstream file(path,
                    std::ios::binary | std::ios::in | std::ios::out);
  HIRE_CHECK(file.is_open()) << "cannot open '" << path << "' to flip a bit";
  file.seekg(static_cast<std::streamoff>(byte_offset));
  char byte = 0;
  file.read(&byte, 1);
  HIRE_CHECK(file.good()) << "offset " << byte_offset << " past end of '"
                          << path << "'";
  byte = static_cast<char>(byte ^ (1 << bit));
  file.seekp(static_cast<std::streamoff>(byte_offset));
  file.write(&byte, 1);
  HIRE_CHECK(file.good()) << "cannot write flipped byte to '" << path << "'";
}

uint64_t FileSize(const std::string& path) {
  std::error_code error;
  const uint64_t size = std::filesystem::file_size(path, error);
  HIRE_CHECK(!error) << "cannot stat '" << path << "': " << error.message();
  return size;
}

}  // namespace hire
