#ifndef HIRE_UTILS_FAULT_INJECTION_H_
#define HIRE_UTILS_FAULT_INJECTION_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>

namespace hire {

/// Process-wide fault-injection harness for robustness testing. The trainer,
/// checkpoint writer, and serving tier consult it at well-defined points; in
/// production nothing is armed and every hook is a cheap no-op.
///
/// Faults are armed from environment variables the first time Global() is
/// called (or programmatically from tests):
///
///   HIRE_FAULT_CRASH_AT_STEP=k        raise SIGKILL when training step k
///                                     begins (simulates a hard kill / OOM)
///   HIRE_FAULT_NAN_LOSS_AT_STEPS=a,b  poison the loss with NaN at the
///                                     listed steps (one-shot per listed
///                                     entry, like a transient numeric
///                                     fault; list a step twice to also
///                                     poison its post-rollback replay)
///   HIRE_FAULT_TRUNCATE_CHECKPOINT=1  truncate every checkpoint just after
///                                     it is written
///   HIRE_FAULT_BITFLIP_CHECKPOINT=1   flip one payload bit in every
///                                     checkpoint just after it is written
///
/// Serve-side faults (the serve_chaos drill drives all of these):
///
///   HIRE_FAULT_SERVE_SLOW_HANDLER_MS=n  sleep n ms in the batch worker
///                                     before each forward (a slow model /
///                                     GC pause; expires deadlines)
///   HIRE_FAULT_SERVE_CORRUPT_RELOAD=1 flip one bit in the snapshot file a
///                                     /reload names before it is read (the
///                                     CRC check must reject it and the old
///                                     model must stay published)
///   HIRE_FAULT_SERVE_CORRUPT_RELOAD_SHARD=k  one-shot: corrupt the snapshot
///                                     only for engine shard k's next reload
///                                     (on a private copy, so the other
///                                     shards still read the intact file);
///                                     the sick shard must degrade to the
///                                     bias-table fallback while the rest of
///                                     the fleet serves, and the following
///                                     reload must recover it
///   HIRE_FAULT_SERVE_RESET_EVERY=k    close every k-th HTTP connection
///                                     without sending the response
///                                     (client sees a connection reset)
///   HIRE_FAULT_SERVE_STALL_CLIENT_MS=n  HttpClient sends its request head
///                                     in two halves with an n ms stall in
///                                     between (slow-loris client; the
///                                     server's header-read deadline must
///                                     cut it off)
///   HIRE_FAULT_SERVE_FAIL_FORWARD=k   make the next k batch forwards throw
///                                     (repeated batch failures; trips the
///                                     serve circuit breaker)
///
/// The batch-worker park (ParkServeWorker / ReleaseServeWorker) has no
/// environment variable: only an in-process caller can release it.
class FaultInjector {
 public:
  /// Singleton; arms faults from the environment on first use.
  static FaultInjector& Global();

  /// Disarms everything (tests call this between cases).
  void Reset();

  /// Re-reads the HIRE_FAULT_* environment variables.
  void LoadFromEnv();

  void ArmCrashAtStep(int64_t step);
  void ArmNanLossAtSteps(std::multiset<int64_t> steps);
  void ArmTruncateCheckpoint(bool on);
  void ArmBitflipCheckpoint(bool on);
  void ArmServeSlowHandler(int64_t ms);
  void ArmServeCorruptReload(bool on);
  void ArmServeCorruptReloadShard(int64_t shard);
  void ArmServeResetEvery(int64_t every);
  void ArmServeStallClient(int64_t ms);
  void ArmServeFailForward(int64_t count);

  /// Parks the serve batch workers: from now on, a worker that has closed a
  /// batch blocks before its forward until ReleaseServeWorker(). Requests
  /// submitted meanwhile queue up and form the worker's next batch, which
  /// makes co-batching and overload deterministic to test.
  void ParkServeWorker();
  /// Disarms the park and wakes every parked worker. Reset() releases too.
  void ReleaseServeWorker();
  /// Blocks until at least one batch worker is parked or `timeout` passes;
  /// returns whether one is parked.
  bool AwaitServeWorkerParked(std::chrono::milliseconds timeout);

  /// Batch-worker hook between closing a batch and running it: blocks while
  /// the park is armed. One relaxed load when disarmed.
  void MaybeParkServeWorker();

  /// Kills the process (SIGKILL) if a crash is armed for `step`.
  void MaybeCrash(int64_t step);

  /// True exactly once per armed entry: the caller should poison that step's
  /// loss with NaN. Each entry is one-shot so a post-rollback re-run of the
  /// same step index succeeds, modelling a transient fault; arming a step
  /// multiple times poisons that many visits to it.
  bool ConsumeNanLoss(int64_t step);

  /// Applies the armed checkpoint corruption (truncate / bit flip) to the
  /// file at `path`. Called by the checkpoint writer after each write.
  void MaybeCorruptCheckpoint(const std::string& path);

  bool AnyCheckpointCorruptionArmed() const {
    return truncate_checkpoint_ || bitflip_checkpoint_;
  }

  /// Milliseconds the serve batch worker should stall before each forward
  /// (0 = disarmed).
  int64_t ServeSlowHandlerMs() const { return serve_slow_handler_ms_; }

  /// Milliseconds an HttpClient should stall mid-header (0 = disarmed).
  int64_t ServeStallClientMs() const { return serve_stall_client_ms_; }

  /// Flips one bit in `path` when corrupt-reload is armed. The serving tier
  /// calls this on the snapshot file a /reload names, before reading it.
  void MaybeCorruptServeReload(const std::string& path);

  /// True exactly once when `shard` matches the armed
  /// HIRE_FAULT_SERVE_CORRUPT_RELOAD_SHARD index, then disarms (so the next
  /// rolling reload recovers the shard). The shard router corrupts a private
  /// copy of the snapshot for that shard only.
  bool ConsumeServeCorruptReloadShard(int64_t shard);

  /// True every k-th call when reset-every is armed: the HTTP server should
  /// close this connection without sending the response. Thread-safe (the
  /// connection pool calls it concurrently).
  bool ConsumeServeConnectionReset();

  /// True while armed forward failures remain; consumes one per call. The
  /// batch worker throws instead of running the forward.
  bool ConsumeServeFailForward();

 private:
  FaultInjector() { LoadFromEnv(); }

  int64_t crash_at_step_ = -1;
  std::multiset<int64_t> nan_loss_steps_;
  bool truncate_checkpoint_ = false;
  bool bitflip_checkpoint_ = false;
  int64_t serve_slow_handler_ms_ = 0;
  bool serve_corrupt_reload_ = false;
  std::atomic<int64_t> serve_corrupt_reload_shard_{-1};
  int64_t serve_reset_every_ = 0;
  std::atomic<int64_t> serve_reset_counter_{0};
  int64_t serve_stall_client_ms_ = 0;
  std::atomic<int64_t> serve_fail_forward_{0};
  std::atomic<bool> serve_park_armed_{false};
  std::mutex serve_park_mutex_;
  std::condition_variable serve_park_changed_;
  int64_t serve_parked_workers_ = 0;  // guarded by serve_park_mutex_
};

/// Truncates the file at `path` to its first `keep_bytes` bytes.
void TruncateFile(const std::string& path, uint64_t keep_bytes);

/// Flips bit `bit` (0-7) of the byte at `byte_offset` in the file at `path`.
void FlipFileBit(const std::string& path, uint64_t byte_offset, int bit);

/// Size in bytes of the file at `path`; throws if it cannot be stat'd.
uint64_t FileSize(const std::string& path);

}  // namespace hire

#endif  // HIRE_UTILS_FAULT_INJECTION_H_
