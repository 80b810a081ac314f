#ifndef HIRE_CORE_INFERENCE_FORWARD_H_
#define HIRE_CORE_INFERENCE_FORWARD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/hire_config.h"
#include "core/hire_model.h"
#include "data/dataset.h"
#include "graph/context_builder.h"
#include "nn/fused_attention.h"
#include "tensor/tensor.h"

namespace hire {
namespace core {

/// Bump allocator backing the tape-free forward. Buffers are handed out in
/// call order and released all at once (Reset per forward, Rewind per HIM
/// block), so a forward over a context shape the arena has seen before
/// allocates zero heap: the backing blocks are retained across Reset and
/// the identical allocation sequence lands in the same places. Growth only
/// happens while warming up on a new, larger (n, m, e) shape —
/// growth_count() is monotone and tests pin it flat across warmed-up
/// requests.
///
/// Lifetime rule (serve tier): an arena is pure scratch owned by the
/// forward's driver (the micro-batcher worker, a predictor), holds no
/// pointers into any model snapshot, and is Reset at the start of every
/// forward — so it may outlive snapshots across hot-swaps, and snapshots
/// never reference it back.
class InferenceArena {
 public:
  InferenceArena() = default;
  InferenceArena(const InferenceArena&) = delete;
  InferenceArena& operator=(const InferenceArena&) = delete;

  /// A buffer of `count` floats, valid until the next Reset/Rewind that
  /// covers it. Contents are unspecified (stale bytes from prior forwards).
  float* Alloc(int64_t count);

  /// Rewinds everything; capacity is retained.
  void Reset();

  /// Stack discipline for per-block scratch: Mark before the block's
  /// allocations, Rewind after, and the space is reused by the next block.
  struct Mark {
    size_t block = 0;
    int64_t used = 0;
  };
  Mark CurrentMark() const;
  void Rewind(const Mark& mark);

  /// Backing blocks allocated since construction (never shrinks). Flat
  /// across repeated forwards == no per-request heap.
  int64_t growth_count() const { return growth_count_; }
  int64_t capacity_floats() const;

  /// The forward's output matrix, reused across calls; reallocated only
  /// when the context shape changes.
  Tensor& output(int64_t n, int64_t m);

 private:
  struct Block {
    std::unique_ptr<float[]> data;
    int64_t capacity = 0;
    int64_t used = 0;
  };
  std::vector<Block> blocks_;
  size_t active_ = 0;
  int64_t growth_count_ = 0;
  Tensor output_;
};

/// A trained HireModel's weights packed for tape-free inference: embedding
/// tables, per-block fused MHSA weights (QKV concatenated, see
/// nn::FusedAttentionWeights), layer-norm gains/offsets and the decoder,
/// all deep-copied at construction — packing happens once per snapshot
/// load, never per forward. Predict replays the exact forward semantics of
/// HireModel::Predict (encoder -> K HIM blocks -> sigmoid decoder, eval
/// mode) over arena buffers with no autograd tape, no Variable wrappers and
/// no per-op tensor allocation:
///
///   * the projections, residuals, layer norms, embedding gathers and the
///     decoder are bitwise identical to the tape forward (same kernels or
///     same rounding chains);
///   * the single-pass online-softmax attention re-associates only the
///     softmax normalisation, so whole-model predictions agree within 1e-5
///     max-abs (tests/core_test.cc and serve_test.cc pin this).
///
/// Pack after training: the copied weights do not track later updates to
/// the source model. Thread-safe for concurrent Predict calls as long as
/// each caller brings its own arena.
class InferenceModel {
 public:
  /// Packs `model`'s current parameters. `model.dataset()` must outlive
  /// this object (attribute schemas and rating normalisation are read per
  /// forward).
  explicit InferenceModel(const HireModel& model);

  /// Passed as `query_rows`: compute every row of the rating matrix.
  static constexpr int64_t kAllRows = -1;

  /// Predicted rating matrix [n, m], written into `arena->output`. The
  /// reference stays valid until the arena's next Predict.
  ///
  /// Only rows [0, query_rows) are computed (1 <= query_rows <= n, or
  /// kAllRows for all n); the rest are quiet NaN. Every HIM block but the
  /// last runs over all n rows. In the last one, MBU still takes keys and
  /// values from all n rows but computes queries, attention, the output
  /// projection, residual and layer norm only for the query rows; MBI, MBA
  /// and the decoder then run over their query_rows * m cells. Each of
  /// those steps is row-local and every GEMM row accumulates in the same
  /// order whatever the row count, so the computed rows are bitwise equal
  /// to the full forward's. The output keeps its [n, m] shape, so varying
  /// query_rows never reallocates it.
  const Tensor& Predict(const graph::PredictionContext& context,
                        InferenceArena* arena,
                        int64_t query_rows = kAllRows) const;

  int64_t cell_embed_dim() const { return cell_embed_dim_; }
  const HireConfig& config() const { return config_; }

 private:
  struct NormWeights {
    bool present = false;
    Tensor gamma;
    Tensor beta;
  };
  struct BlockWeights {
    bool has_user = false;
    bool has_item = false;
    bool has_attr = false;
    nn::FusedAttentionWeights user;
    nn::FusedAttentionWeights item;
    nn::FusedAttentionWeights attr;
    NormWeights user_norm;
    NormWeights item_norm;
    NormWeights attr_norm;
  };

  void EncodeInto(const graph::PredictionContext& context, float* h) const;
  /// One HIM block over h [n, m, e]; only rows [0, query_rows) of h are
  /// updated (all n unless this is the last block).
  void BlockForward(const BlockWeights& block, float* h, int64_t n,
                    int64_t m, int64_t query_rows,
                    InferenceArena* arena) const;

  const data::Dataset* dataset_;
  HireConfig config_;
  float rating_scale_;
  int64_t attr_embed_dim_;
  int64_t num_attribute_slots_;
  int64_t cell_embed_dim_;

  std::vector<Tensor> user_tables_;  // one per user attribute, [cats, f]
  std::vector<Tensor> item_tables_;
  bool continuous_ratings_ = false;
  Tensor rating_table_;   // discrete scales: [levels, f]
  Tensor rating_weight_;  // continuous scales: [1, f] + [f]
  Tensor rating_bias_;
  std::vector<BlockWeights> blocks_;
  Tensor decoder_weight_;  // [e, 1]
  Tensor decoder_bias_;    // [1]
};

}  // namespace core
}  // namespace hire

#endif  // HIRE_CORE_INFERENCE_FORWARD_H_
