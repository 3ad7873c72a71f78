#include "llm/prepared_model.h"

#include <algorithm>
#include <cmath>

#include "common/bfloat16.h"
#include "common/kernel_profiler.h"
#include "common/kernels.h"
#include "llm/sequence_state.h"
#include "softmax/softmax.h"

namespace opal {

std::string to_string(RecordSite site) {
  switch (site) {
    case RecordSite::kAttnIn:
      return "attn_in";
    case RecordSite::kQuery:
      return "Query";
    case RecordSite::kKey:
      return "Key";
    case RecordSite::kValue:
      return "Value";
    case RecordSite::kProjIn:
      return "Proj";
    case RecordSite::kFc1In:
      return "fc1";
    case RecordSite::kFc2In:
      return "fc2";
  }
  return "?";
}

std::string EngineConfig::label() const {
  std::string out = "W";
  out += weight_quant ? std::to_string(weight_quant->bits) : "16";
  out += act_policy.label();
  out += " (";
  out += to_string(act_policy.scheme);
  out += ")";
  return out;
}

PreparedModel::PreparedModel(const SyntheticModel& model, EngineConfig config,
                             const CalibrationSet* calibration)
    : model_(&model), config_(std::move(config)) {
  prepare_layers(calibration);
  finish_construction();
}

PreparedModel::PreparedModel(const SyntheticModel& model, EngineConfig config,
                             const HessianSet& hessians)
    : model_(&model), config_(std::move(config)) {
  require(config_.weight_quant.has_value(),
          "PreparedModel: GPTQ requires weight_quant");
  prepare_layers_gptq(hessians);
  finish_construction();
}

void PreparedModel::finish_construction() {
  const auto& cfg = model_->config();
  quant_post_ln_ =
      config_.act_policy.make_quantizer(ActivationSite::kPostLayerNorm);
  quant_attn_in_ =
      config_.act_policy.make_quantizer(ActivationSite::kAttentionInput);
  quant_general_ =
      config_.act_policy.make_quantizer(ActivationSite::kGeneral);
  final_norm_ =
      std::make_unique<Norm>(cfg.norm, model_->final_norm_gain());
}

SequenceState PreparedModel::make_sequence() const {
  return SequenceState(model_->config(), config_.max_seq_len,
                       std::make_unique<KvBlockPool>(
                           kv_blocks_per_sequence(), config_.kv_block_size,
                           model_->config().d_model, KvQuantMode::kFp32));
}

SequenceState PreparedModel::make_sequence(KvBlockPool& pool) const {
  require(pool.block_size() == config_.kv_block_size,
          "PreparedModel::make_sequence: pool block size mismatch");
  return SequenceState(model_->config(), config_.max_seq_len, pool);
}

std::size_t PreparedModel::kv_blocks_per_sequence() const {
  return PagedKvCache::blocks_for(model_->config().n_layers,
                                  config_.max_seq_len, config_.kv_block_size);
}

PrefixCache PreparedModel::make_prefix_cache(KvBlockPool& pool) const {
  require(pool.block_size() == config_.kv_block_size &&
              pool.d_model() == model_->config().d_model &&
              pool.mode() == config_.kv_mode,
          "PreparedModel::make_prefix_cache: pool does not match the model");
  return PrefixCache(pool, model_->config().n_layers);
}

KvBlockPool PreparedModel::make_kv_pool(double n_full_sequences) const {
  const auto want = static_cast<std::size_t>(
      n_full_sequences * static_cast<double>(kv_blocks_per_sequence()));
  // A pool must at least fit one block column, or no sequence can start.
  const std::size_t floor_blocks = PagedKvCache::blocks_for(
      model_->config().n_layers, 1, config_.kv_block_size);
  return KvBlockPool(std::max(want, floor_blocks), config_.kv_block_size,
                     model_->config().d_model, config_.kv_mode);
}

void PreparedModel::prepare_layers_gptq(const HessianSet& hessians) {
  const auto& cfg = model_->config();
  require(hessians.size() == cfg.n_layers,
          "PreparedModel: Hessian layer count mismatch");
  const auto& wq_cfg = *config_.weight_quant;
  GptqConfig gcfg;
  gcfg.bits = wq_cfg.bits;
  gcfg.outlier_fraction = wq_cfg.outlier_fraction;
  gcfg.group_size = wq_cfg.group_size;
  gcfg.optimize_clip = wq_cfg.optimize_clip;

  layers_.reserve(cfg.n_layers);
  for (std::size_t l = 0; l < cfg.n_layers; ++l) {
    const auto& src = model_->layers()[l];
    const auto& hess = hessians[l];
    PreparedLayer layer;
    layer.attn_norm = std::make_unique<Norm>(cfg.norm, src.attn_norm_gain);
    layer.ffn_norm = std::make_unique<Norm>(cfg.norm, src.ffn_norm_gain);
    layer.total_weight_values =
        4 * cfg.d_model * cfg.d_model + 2 * cfg.d_ffn * cfg.d_model;
    auto take = [&](OwqMatrix&& q, Matrix& dst) {
      layer.fp_weight_values += q.fp_columns.size() * q.dequantized.rows();
      layer.storage_bits += q.storage_bits;
      dst = std::move(q.dequantized);
    };
    take(gptq_quantize(src.wq, hess.attn_in, gcfg), layer.wq);
    take(gptq_quantize(src.wk, hess.attn_in, gcfg), layer.wk);
    take(gptq_quantize(src.wv, hess.attn_in, gcfg), layer.wv);
    take(gptq_quantize(src.wo, hess.proj_in, gcfg), layer.wo);
    take(gptq_quantize(src.w_fc1, hess.fc1_in, gcfg), layer.w_fc1);
    take(gptq_quantize(src.w_fc2, hess.fc2_in, gcfg), layer.w_fc2);
    layers_.push_back(std::move(layer));
  }
}

void PreparedModel::prepare_layers(const CalibrationSet* calibration) {
  const auto& cfg = model_->config();
  if (calibration != nullptr) {
    require(calibration->size() == cfg.n_layers,
            "PreparedModel: calibration layer count mismatch");
  }
  layers_.reserve(cfg.n_layers);
  for (std::size_t l = 0; l < cfg.n_layers; ++l) {
    const auto& src = model_->layers()[l];
    PreparedLayer layer;
    layer.attn_norm = std::make_unique<Norm>(cfg.norm, src.attn_norm_gain);
    layer.ffn_norm = std::make_unique<Norm>(cfg.norm, src.ffn_norm_gain);
    layer.total_weight_values =
        4 * cfg.d_model * cfg.d_model + 2 * cfg.d_ffn * cfg.d_model;

    if (!config_.weight_quant) {
      // BF16 baseline: weights stored (and multiplied) at bf16 precision.
      auto round_matrix = [](const Matrix& m) {
        Matrix out(m.rows(), m.cols());
        for (std::size_t i = 0; i < m.size(); ++i) {
          out.flat()[i] = to_bf16(m.flat()[i]);
        }
        return out;
      };
      layer.wq = round_matrix(src.wq);
      layer.wk = round_matrix(src.wk);
      layer.wv = round_matrix(src.wv);
      layer.wo = round_matrix(src.wo);
      layer.w_fc1 = round_matrix(src.w_fc1);
      layer.w_fc2 = round_matrix(src.w_fc2);
      layer.fp_weight_values = layer.total_weight_values;
      layer.storage_bits = layer.total_weight_values * 16;
    } else {
      const auto& wq_cfg = *config_.weight_quant;
      auto quantize = [&](const Matrix& m,
                          const CalibrationStats* stats) -> OwqMatrix {
        if (stats != nullptr) {
          return owq_quantize(m, stats->hessian_diag(), wq_cfg);
        }
        return owq_quantize_weight_only(m, wq_cfg);
      };
      const LayerCalibration* cal =
          calibration != nullptr ? &(*calibration)[l] : nullptr;
      auto take = [&](OwqMatrix&& q, Matrix& dst) {
        layer.fp_weight_values += q.fp_columns.size() * q.dequantized.rows();
        layer.storage_bits += q.storage_bits;
        dst = std::move(q.dequantized);
      };
      take(quantize(src.wq, cal ? &cal->attn_in : nullptr), layer.wq);
      take(quantize(src.wk, cal ? &cal->attn_in : nullptr), layer.wk);
      take(quantize(src.wv, cal ? &cal->attn_in : nullptr), layer.wv);
      take(quantize(src.wo, cal ? &cal->proj_in : nullptr), layer.wo);
      take(quantize(src.w_fc1, cal ? &cal->fc1_in : nullptr), layer.w_fc1);
      take(quantize(src.w_fc2, cal ? &cal->fc2_in : nullptr), layer.w_fc2);
    }
    layers_.push_back(std::move(layer));
  }
}

void PreparedModel::maybe_quantize(ActivationSite site,
                                   std::span<float> v) const {
  const Quantizer* q = nullptr;
  switch (site) {
    case ActivationSite::kPostLayerNorm:
      q = quant_post_ln_.get();
      break;
    case ActivationSite::kAttentionInput:
      q = quant_attn_in_.get();
      break;
    default:
      q = quant_general_.get();
      break;
  }
  if (q != nullptr) q->quantize_dequantize(v, v);
}

void PreparedModel::attend(std::size_t l, SequenceState& seq,
                           std::span<const float> q, std::span<float> z,
                           std::size_t len) const {
  const auto& cfg = model_->config();
  const std::size_t d_head = cfg.d_head();
  const std::size_t d_model = cfg.d_model;
  // The cached prefix [0, len) as one row-major segment per block: float
  // spans for fp32 pools, code spans for quantized pools (decoded
  // in-register by the fused kernels below). Iterating segments outer /
  // rows inner visits positions 0..len-1 in order, so within one kernel
  // table the result is bitwise equal to attending over gather()'s floats
  // as one contiguous segment.
  const std::span<const KvSegment> kv = seq.attend_view(l, len);
  const float inv_sqrt_dk = 1.0f / std::sqrt(static_cast<float>(d_head));
  const KernelOps& ops = kernels();

  std::fill(z.begin(), z.end(), 0.0f);
  const std::span<float> scores = std::span<float>(seq.scores_).first(len);
  const std::span<float> probs = std::span<float>(seq.probs_).first(len);
  for (std::size_t head = 0; head < cfg.n_heads; ++head) {
    const std::size_t base = head * d_head;
    const float* q_head = q.data() + base;
    std::size_t t = 0;
    for (const KvSegment& seg : kv) {
      switch (seg.mode) {
        case KvQuantMode::kFp32:
          ops.attend_scores(q_head, seg.k.data() + base, seg.rows, d_model,
                            d_head, inv_sqrt_dk, scores.data() + t);
          break;
        case KvQuantMode::kInt8:
          ops.dequant_scores_int8(q_head, seg.k_codes.data() + base, seg.rows,
                                  d_model, d_head, seg.k_scale / 127.0f,
                                  inv_sqrt_dk, scores.data() + t);
          break;
        case KvQuantMode::kLog2:
          ops.dequant_scores_log2(q_head, seg.k_codes.data() + base, seg.rows,
                                  d_model, d_head,
                                  static_cast<int>(seg.k_scale), inv_sqrt_dk,
                                  scores.data() + t);
          break;
      }
      t += seg.rows;
    }
    // Attention weights, materialized once per head so the weighted value
    // sum runs through one kernel regardless of the softmax flavor.
    if (config_.log2_softmax) {
      log2_softmax_weights(scores, Log2SoftmaxConfig{config_.softmax_bits},
                           probs);
    } else {
      softmax_reference(scores, probs);
    }
    float* z_head = z.data() + base;
    std::size_t u = 0;
    for (const KvSegment& seg : kv) {
      switch (seg.mode) {
        case KvQuantMode::kFp32:
          ops.attend_accum(probs.data() + u, seg.v.data() + base, seg.rows,
                           d_model, d_head, z_head);
          break;
        case KvQuantMode::kInt8:
          ops.dequant_accum_int8(probs.data() + u, seg.v_codes.data() + base,
                                 seg.rows, d_model, d_head,
                                 seg.v_scale / 127.0f, z_head);
          break;
        case KvQuantMode::kLog2:
          ops.dequant_accum_log2(probs.data() + u, seg.v_codes.data() + base,
                                 seg.rows, d_model, d_head,
                                 static_cast<int>(seg.v_scale), z_head);
          break;
      }
      u += seg.rows;
    }
  }
}

void PreparedModel::forward_token_layer(std::size_t l, SequenceState& seq,
                                        std::span<float> x, std::size_t pos,
                                        ActivationRecorder* recorder) const {
  const auto& layer = layers_[l];
  auto maybe_record = [&](RecordSite site, std::span<const float> v) {
    if (recorder != nullptr) recorder->record(l, site, v);
  };
  std::span<float> h = seq.h_;
  std::span<float> q = seq.q_;
  std::span<float> k = seq.k_;
  std::span<float> v = seq.v_;
  std::span<float> z = seq.z_;
  std::span<float> hidden = seq.hidden_;
  // Phase attribution (nullptr slot — the common case — makes every scope a
  // no-op). The scopes wrap the existing statements without reordering or
  // touching data, so the output bits are unchanged.
  KernelProfile* prof = KernelProfiler::slot();

  // --- Attention block (Fig 5(c)) ---
  {
    PhaseScope phase(prof, LayerPhase::kNorm, l);
    layer.attn_norm->apply(x, h);
    maybe_record(RecordSite::kAttnIn, h);
    maybe_quantize(ActivationSite::kPostLayerNorm, h);
  }

  {
    PhaseScope phase(prof, LayerPhase::kQkv, l);
    matvec(layer.wq, h, q);
    matvec(layer.wk, h, k);
    matvec(layer.wv, h, v);
    maybe_record(RecordSite::kQuery, q);
    maybe_record(RecordSite::kKey, k);
    maybe_record(RecordSite::kValue, v);
    // Q, K enter Q.K^T and V enters Attn.V at the high bit-width.
    maybe_quantize(ActivationSite::kAttentionInput, q);
    maybe_quantize(ActivationSite::kAttentionInput, k);
    maybe_quantize(ActivationSite::kAttentionInput, v);
    seq.write_kv_at(l, pos, k, v);
  }

  {
    PhaseScope phase(prof, LayerPhase::kAttend, l);
    attend(l, seq, q, z, pos + 1);
    maybe_record(RecordSite::kProjIn, z);
    maybe_quantize(ActivationSite::kGeneral, z);

    const std::span<float> attn_out = seq.attn_out_;
    matvec(layer.wo, z, attn_out);
    kernels().axpy(1.0f, attn_out.data(), x.data(), x.size());
  }

  // --- FFN block (Fig 5(b)) ---
  {
    PhaseScope phase(prof, LayerPhase::kNorm, l);
    layer.ffn_norm->apply(x, h);
    maybe_record(RecordSite::kFc1In, h);
    maybe_quantize(ActivationSite::kPostLayerNorm, h);
  }

  {
    PhaseScope phase(prof, LayerPhase::kFfn, l);
    matvec(layer.w_fc1, h, hidden);
    apply_activation(model_->config().activation, hidden);
    maybe_record(RecordSite::kFc2In, hidden);
    maybe_quantize(ActivationSite::kGeneral, hidden);

    const std::span<float> ffn_out = seq.ffn_out_;
    matvec(layer.w_fc2, hidden, ffn_out);
    kernels().axpy(1.0f, ffn_out.data(), x.data(), x.size());
  }
}

void PreparedModel::finish_logits(SequenceState& seq,
                                  std::span<const float> x,
                                  std::span<float> out) const {
  PhaseScope phase(KernelProfiler::slot(), LayerPhase::kLogits);
  final_norm_->apply(x, seq.h_);
  // Tied embedding head: logit[v] = E[v,:] . h.
  matvec(model_->embedding(), seq.h_, out);
  kernels().scale(model_->logit_scale(), out.data(), out.size());
}

std::span<const float> PreparedModel::step(SequenceState& seq,
                                           std::size_t token,
                                           ActivationRecorder* recorder) const {
  return prefill_chunk(seq, {&token, 1}, recorder);
}

std::span<const float> PreparedModel::prefill_chunk(
    SequenceState& seq, std::span<const std::size_t> tokens,
    ActivationRecorder* recorder) const {
  const auto& cfg = model_->config();
  const std::size_t n = tokens.size();
  require(n >= 1, "PreparedModel::prefill_chunk: empty chunk");
  for (const std::size_t token : tokens) {
    require(token < cfg.vocab,
            "PreparedModel::prefill_chunk: token out of range");
  }
  require(seq.d_model_ == cfg.d_model && seq.vocab_ == cfg.vocab,
          "PreparedModel::prefill_chunk: state sized for a different model");

  const std::size_t p0 = seq.position();
  seq.advance_cache_by(n);  // opens (and reserves) the whole chunk's KV
  seq.begin_chunk(n);
  for (std::size_t t = 0; t < n; ++t) {
    const auto emb = model_->embedding().row(tokens[t]);
    std::copy(emb.begin(), emb.end(), seq.chunk_x_row(t).begin());
  }

  // Layer-major sweep: every token still calls matvec once per weight
  // matrix (the sweep buys cache locality, not fewer weight passes), and
  // every token's ops run in the token-by-token order *within* its own
  // computation — token t writes its K/V at p0+t before attending over
  // [0, p0+t], exactly like a one-row pass at that position. Attention
  // reads the blocks' live storage, so a rescale caused by a quantized
  // write is already visible. The results are bitwise identical to n
  // one-row passes.
  for (std::size_t l = 0; l < cfg.n_layers; ++l) {
    for (std::size_t t = 0; t < n; ++t) {
      forward_token_layer(l, seq, seq.chunk_x_row(t), p0 + t, recorder);
    }
  }

  for (std::size_t t = 0; t < n; ++t) {
    finish_logits(seq, seq.chunk_x_row(t), seq.chunk_logits_row_mut(t));
  }
  return seq.logits();
}

double PreparedModel::fp_weight_fraction() const {
  std::size_t fp = 0, total = 0;
  for (const auto& layer : layers_) {
    fp += layer.fp_weight_values;
    total += layer.total_weight_values;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(fp) / static_cast<double>(total);
}

std::size_t PreparedModel::weight_storage_bits() const {
  std::size_t bits = 0;
  for (const auto& layer : layers_) bits += layer.storage_bits;
  return bits;
}

}  // namespace opal
