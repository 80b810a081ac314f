#include "core/inference_forward.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "obs/kernel_timers.h"
#include "tensor/ops.h"
#include "utils/check.h"

namespace hire {
namespace core {

// ---------------------------------------------------------------------------
// InferenceArena.
// ---------------------------------------------------------------------------

float* InferenceArena::Alloc(int64_t count) {
  HIRE_CHECK_GT(count, 0);
  while (active_ < blocks_.size()) {
    Block& block = blocks_[active_];
    if (block.used + count <= block.capacity) {
      float* out = block.data.get() + block.used;
      block.used += count;
      return out;
    }
    // The tail of this block is wasted until the next Reset/Rewind. The
    // allocation sequence is identical every forward, so the same waste
    // recurs in the same place and capacity still converges.
    ++active_;
  }
  // Grow: at least double total capacity so warm-up takes O(log) blocks.
  constexpr int64_t kMinBlockFloats = int64_t{1} << 16;  // 256 KiB
  const int64_t want = std::max(count, std::max(kMinBlockFloats,
                                                2 * capacity_floats()));
  Block block;
  block.data = std::make_unique<float[]>(static_cast<size_t>(want));
  block.capacity = want;
  block.used = count;
  blocks_.push_back(std::move(block));
  active_ = blocks_.size() - 1;
  ++growth_count_;
  return blocks_.back().data.get();
}

void InferenceArena::Reset() {
  for (Block& block : blocks_) block.used = 0;
  active_ = 0;
}

InferenceArena::Mark InferenceArena::CurrentMark() const {
  Mark mark;
  mark.block = active_;
  mark.used = active_ < blocks_.size() ? blocks_[active_].used : 0;
  return mark;
}

void InferenceArena::Rewind(const Mark& mark) {
  HIRE_CHECK(mark.block <= blocks_.size());
  for (size_t b = mark.block; b < blocks_.size(); ++b) blocks_[b].used = 0;
  if (mark.block < blocks_.size()) blocks_[mark.block].used = mark.used;
  active_ = mark.block;
}

int64_t InferenceArena::capacity_floats() const {
  int64_t total = 0;
  for (const Block& block : blocks_) total += block.capacity;
  return total;
}

Tensor& InferenceArena::output(int64_t n, int64_t m) {
  if (output_.dim() != 2 || output_.shape(0) != n || output_.shape(1) != m) {
    output_ = Tensor({n, m});
  }
  return output_;
}

// ---------------------------------------------------------------------------
// InferenceModel: packing.
// ---------------------------------------------------------------------------

namespace {

using NamedParams = std::vector<std::pair<std::string, ag::Variable>>;

const Tensor& Find(const NamedParams& params, const std::string& name) {
  for (const auto& [param_name, variable] : params) {
    if (param_name == name) return variable.value();
  }
  HIRE_CHECK(false) << "missing model parameter " << name;
  static const Tensor* kEmpty = new Tensor();
  return *kEmpty;
}

nn::FusedAttentionWeights PackMhsa(const NamedParams& params,
                                   const std::string& prefix,
                                   int64_t embed_dim, int64_t num_heads,
                                   int64_t head_dim) {
  return nn::PackAttentionWeights(
      embed_dim, num_heads, head_dim, Find(params, prefix + "query.weight"),
      Find(params, prefix + "query.bias"), Find(params, prefix + "key.weight"),
      Find(params, prefix + "key.bias"), Find(params, prefix + "value.weight"),
      Find(params, prefix + "value.bias"),
      Find(params, prefix + "output.weight"),
      Find(params, prefix + "output.bias"));
}

}  // namespace

InferenceModel::InferenceModel(const HireModel& model)
    : dataset_(&model.dataset()), config_(model.config()) {
  rating_scale_ = dataset_->max_rating();
  attr_embed_dim_ = config_.attr_embed_dim;
  const auto& user_schema = dataset_->user_schema();
  const auto& item_schema = dataset_->item_schema();
  num_attribute_slots_ = static_cast<int64_t>(user_schema.size()) +
                         static_cast<int64_t>(item_schema.size()) + 1;
  cell_embed_dim_ = num_attribute_slots_ * attr_embed_dim_;

  const NamedParams params = model.NamedParameters();

  for (const auto& attr : user_schema) {
    user_tables_.push_back(Find(params, "encoder.user_" + attr.name +
                                            ".table"));
  }
  for (const auto& attr : item_schema) {
    item_tables_.push_back(Find(params, "encoder.item_" + attr.name +
                                            ".table"));
  }
  continuous_ratings_ = dataset_->continuous_ratings();
  if (continuous_ratings_) {
    rating_weight_ = Find(params, "encoder.rating.weight");  // [1, f]
    rating_bias_ = Find(params, "encoder.rating.bias");      // [f]
  } else {
    rating_table_ = Find(params, "encoder.rating.table");
  }

  // MhsaConfig resolves head_dim == 0 to embed_dim / num_heads; MBA layers
  // always derive max(1, f / heads) (see HimBlock's constructor).
  const int64_t cell_head_dim = config_.head_dim > 0
                                    ? config_.head_dim
                                    : cell_embed_dim_ / config_.num_heads;
  const int64_t attr_head_dim =
      std::max<int64_t>(1, attr_embed_dim_ / config_.num_heads);

  blocks_.resize(static_cast<size_t>(config_.num_him_blocks));
  for (int k = 0; k < config_.num_him_blocks; ++k) {
    BlockWeights& block = blocks_[static_cast<size_t>(k)];
    const std::string prefix = "him" + std::to_string(k) + ".";
    auto pack_norm = [&](const std::string& name, NormWeights* norm) {
      if (!config_.use_layer_norm) return;
      norm->present = true;
      norm->gamma = Find(params, prefix + name + ".gamma");
      norm->beta = Find(params, prefix + name + ".beta");
    };
    if (config_.use_user_attention) {
      block.has_user = true;
      block.user = PackMhsa(params, prefix + "mbu.", cell_embed_dim_,
                            config_.num_heads, cell_head_dim);
      pack_norm("mbu_norm", &block.user_norm);
    }
    if (config_.use_item_attention) {
      block.has_item = true;
      block.item = PackMhsa(params, prefix + "mbi.", cell_embed_dim_,
                            config_.num_heads, cell_head_dim);
      pack_norm("mbi_norm", &block.item_norm);
    }
    if (config_.use_attr_attention) {
      block.has_attr = true;
      block.attr = PackMhsa(params, prefix + "mba.", attr_embed_dim_,
                            config_.num_heads, attr_head_dim);
      pack_norm("mba_norm", &block.attr_norm);
    }
  }

  decoder_weight_ = Find(params, "decoder.weight");
  decoder_bias_ = Find(params, "decoder.bias");
  HIRE_CHECK_EQ(decoder_weight_.shape(0), cell_embed_dim_);
  HIRE_CHECK_EQ(decoder_weight_.shape(1), 1);
}

// ---------------------------------------------------------------------------
// InferenceModel: forward.
// ---------------------------------------------------------------------------

namespace {

/// Replicates ag::LayerNorm's forward rounding chain exactly: double mean
/// and variance, one float cast of the mean, float multiply by the float
/// inverse stddev, then gamma/beta.
void LayerNormInto(const float* x, const float* gamma, const float* beta,
                   float* y, int64_t rows, int64_t d) {
  constexpr float kEpsilon = 1e-5f;  // nn::LayerNorm's default
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * d;
    float* yr = y + r * d;
    double mean = 0.0;
    for (int64_t j = 0; j < d; ++j) mean += xr[j];
    mean /= static_cast<double>(d);
    double var = 0.0;
    for (int64_t j = 0; j < d; ++j) {
      const double c = xr[j] - mean;
      var += c * c;
    }
    var /= static_cast<double>(d);
    const float istd = static_cast<float>(1.0 / std::sqrt(var + kEpsilon));
    const float fmean = static_cast<float>(mean);
    for (int64_t j = 0; j < d; ++j) {
      yr[j] = (xr[j] - fmean) * istd * gamma[j] + beta[j];
    }
  }
}

}  // namespace

void InferenceModel::EncodeInto(const graph::PredictionContext& context,
                                float* h) const {
  const int64_t n = context.num_users();
  const int64_t m = context.num_items();
  const int64_t f = attr_embed_dim_;
  const int64_t e = cell_embed_dim_;
  const int64_t user_width = static_cast<int64_t>(user_tables_.size()) * f;
  const int64_t item_width = static_cast<int64_t>(item_tables_.size()) * f;
  const int64_t rating_offset = user_width + item_width;

  // Item attribute segment: gather once into row k = 0, replicate down.
  for (int64_t j = 0; j < m; ++j) {
    float* cell = h + j * e + user_width;
    const auto& attrs =
        dataset_->item_attributes(context.items[static_cast<size_t>(j)]);
    for (size_t a = 0; a < item_tables_.size(); ++a) {
      const float* row =
          item_tables_[a].data() + attrs[a] * f;
      std::copy(row, row + f, cell + static_cast<int64_t>(a) * f);
    }
  }
  for (int64_t k = 1; k < n; ++k) {
    for (int64_t j = 0; j < m; ++j) {
      const float* src = h + j * e + user_width;
      std::copy(src, src + item_width, h + (k * m + j) * e + user_width);
    }
  }

  // User attribute segment: gather once per user, replicate across items.
  for (int64_t k = 0; k < n; ++k) {
    float* first = h + k * m * e;
    const auto& attrs =
        dataset_->user_attributes(context.users[static_cast<size_t>(k)]);
    for (size_t a = 0; a < user_tables_.size(); ++a) {
      const float* row = user_tables_[a].data() + attrs[a] * f;
      std::copy(row, row + f, first + static_cast<int64_t>(a) * f);
    }
    for (int64_t j = 1; j < m; ++j) {
      std::copy(first, first + user_width, h + (k * m + j) * e);
    }
  }

  // Rating segment: level lookup (discrete) or scalar projection
  // (continuous); masked cells are zero vectors, matching the tape
  // encoder's -1-index lookup / mask product.
  for (int64_t k = 0; k < n; ++k) {
    for (int64_t j = 0; j < m; ++j) {
      float* cell = h + (k * m + j) * e + rating_offset;
      const bool visible = context.observed_mask.at(k, j) > 0.0f;
      if (!visible) {
        std::fill(cell, cell + f, 0.0f);
        continue;
      }
      const float rating = context.observed_ratings.at(k, j);
      if (continuous_ratings_) {
        const float s = dataset_->NormalizeRating(rating);
        const float* w = rating_weight_.data();
        const float* b = rating_bias_.data();
        for (int64_t c = 0; c < f; ++c) {
          // Two roundings, same as the tape's 1-wide GEMM + bias add.
          const float prod = s * w[c];
          cell[c] = prod + b[c];
        }
      } else {
        const float* row =
            rating_table_.data() + dataset_->RatingToLevel(rating) * f;
        std::copy(row, row + f, cell);
      }
    }
  }
}

void InferenceModel::BlockForward(const BlockWeights& block, float* h,
                                  int64_t n, int64_t m, int64_t query_rows,
                                  InferenceArena* arena) const {
  const int64_t e = cell_embed_dim_;
  const int64_t cells = n * m;
  // Only rows [0, query_rows) leave the block: MBU reads keys and values
  // from all n rows, everything after it is row-local.
  const int64_t out_cells = query_rows * m;
  const InferenceArena::Mark mark = arena->CurrentMark();

  // Residual + (optional) layer norm over the first out_cells cells,
  // writing the sublayer result back into h. Addition is commutative, so
  // `fused + h` is bitwise the tape's Add(current, fused).
  auto finish = [&](const float* fused, const NormWeights& norm) {
    ScopedKernelTimer timer(KernelCategory::kInferArena);
    float* merged = const_cast<float*>(fused);
    if (config_.use_residual) {
      for (int64_t i = 0; i < out_cells * e; ++i) merged[i] += h[i];
    }
    if (norm.present) {
      LayerNormInto(merged, norm.gamma.data(), norm.beta.data(), h,
                    out_cells, e);
    } else {
      std::copy(merged, merged + out_cells * e, h);
    }
  };

  // MBU: transpose to [m, n, e] so items batch sequences of n user tokens,
  // the first query_rows of which are queries.
  if (block.has_user) {
    float* views = arena->Alloc(cells * e);
    {
      ScopedKernelTimer timer(KernelCategory::kInferArena);
      for (int64_t k = 0; k < n; ++k) {
        for (int64_t j = 0; j < m; ++j) {
          std::copy(h + (k * m + j) * e, h + (k * m + j) * e + e,
                    views + (j * n + k) * e);
        }
      }
    }
    float* attn = arena->Alloc(out_cells * e);  // [m, query_rows, e]
    float* scratch = arena->Alloc(block.user.ScratchFloats(m, n));
    nn::FusedAttentionForward(block.user, views, m, n, query_rows, attn,
                              scratch);
    {
      ScopedKernelTimer timer(KernelCategory::kInferArena);
      for (int64_t j = 0; j < m; ++j) {
        for (int64_t k = 0; k < query_rows; ++k) {
          std::copy(attn + (j * query_rows + k) * e,
                    attn + (j * query_rows + k) * e + e,
                    views + (k * m + j) * e);
        }
      }
    }
    finish(views, block.user_norm);
  }

  // MBI: users already batch sequences of m item tokens.
  if (block.has_item) {
    float* attn = arena->Alloc(out_cells * e);
    float* scratch = arena->Alloc(block.item.ScratchFloats(query_rows, m));
    nn::FusedAttentionForward(block.item, h, query_rows, m, m, attn,
                              scratch);
    finish(attn, block.item_norm);
  }

  // MBA: reinterpret [n, m, e] as [n*m, h, f] — free, row-major layout.
  if (block.has_attr) {
    float* attn = arena->Alloc(out_cells * e);
    float* scratch = arena->Alloc(
        block.attr.ScratchFloats(out_cells, num_attribute_slots_));
    nn::FusedAttentionForward(block.attr, h, out_cells, num_attribute_slots_,
                              num_attribute_slots_, attn, scratch);
    finish(attn, block.attr_norm);
  }

  arena->Rewind(mark);
}

const Tensor& InferenceModel::Predict(const graph::PredictionContext& context,
                                      InferenceArena* arena,
                                      int64_t query_rows) const {
  HIRE_CHECK(arena != nullptr);
  const int64_t n = context.num_users();
  const int64_t m = context.num_items();
  HIRE_CHECK_GT(n, 0);
  HIRE_CHECK_GT(m, 0);
  const int64_t q = query_rows == kAllRows ? n : query_rows;
  HIRE_CHECK(q >= 1 && q <= n)
      << "query_rows " << query_rows << " of " << n << " context rows";

  arena->Reset();
  Tensor& out = arena->output(n, m);
  float* h = arena->Alloc(n * m * cell_embed_dim_);
  {
    ScopedKernelTimer timer(KernelCategory::kInferArena);
    EncodeInto(context, h);
  }
  for (size_t b = 0; b < blocks_.size(); ++b) {
    BlockForward(blocks_[b], h, n, m, b + 1 == blocks_.size() ? q : n,
                 arena);
  }
  // R_hat = alpha * sigmoid(decoder(h)) fused into the GEMM epilogue —
  // bitwise the tape's Linear -> Sigmoid -> MulScalar chain.
  ops::GemmBiasActInto(h, decoder_weight_.data(), decoder_bias_.data(),
                       out.data(), q * m, cell_embed_dim_, 1,
                       /*b_transposed=*/false, ops::Activation::kSigmoid,
                       rating_scale_);
  // Rows nobody asked for read as NaN, so a stray read fails loudly.
  std::fill(out.data() + q * m, out.data() + n * m,
            std::numeric_limits<float>::quiet_NaN());
  return out;
}

}  // namespace core
}  // namespace hire
