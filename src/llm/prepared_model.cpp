#include "llm/prepared_model.h"

#include <algorithm>
#include <cmath>
#include <utility>

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

namespace {

/// Refuses a KV block no serving pool can size: a zero block size divides
/// by zero in block counts, and a block longer than max_seq_len commits
/// rows no sequence can fill.
EngineConfig checked_kv_layout(EngineConfig config) {
  require(config.kv_block_size >= 1 &&
              config.kv_block_size <= config.max_seq_len,
          "PreparedModel: kv_block_size " +
              std::to_string(config.kv_block_size) +
              " must be in [1, max_seq_len " +
              std::to_string(config.max_seq_len) + "]");
  return config;
}

}  // namespace

PreparedModel::PreparedModel(const SyntheticModel& model, EngineConfig config,
                             const CalibrationSet* calibration)
    : model_(&model), config_(checked_kv_layout(std::move(config))) {
  prepare_layers(calibration);
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

KvBlockPool PreparedModel::make_kv_pool(std::size_t blocks) const {
  const std::size_t floor_blocks = PagedKvCache::blocks_for(
      model_->config().n_layers, 1, config_.kv_block_size);
  return KvBlockPool(std::max(blocks, floor_blocks), config_.kv_block_size,
                     model_->config().d_model, config_.kv_mode);
}

namespace {

/// BF16 baseline: weights stored (and multiplied) at bf16 precision, every
/// column kept in floating point at 16 bits a value.
OwqMatrix round_to_bf16(const Matrix& m) {
  OwqMatrix out;
  out.dequantized = Matrix(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.size(); ++i) {
    out.dequantized.flat()[i] = to_bf16(m.flat()[i]);
  }
  out.fp_columns.resize(m.cols());
  for (std::size_t c = 0; c < m.cols(); ++c) out.fp_columns[c] = c;
  out.storage_bits = m.size() * 16;
  return out;
}

}  // namespace

void PreparedModel::prepare_layers(const CalibrationSet* calibration) {
  const auto& cfg = model_->config();
  if (calibration != nullptr) {
    require(calibration->size() == cfg.n_layers,
            "PreparedModel: calibration layer count mismatch");
  }
  // The per-matrix quantize step: bf16 rounding without weight_quant, else
  // OWQ — sensitivity from the calibration's Hessian diagonal of the
  // matrix's input (`input`, the LayerCalibration field its quantizer
  // reads), or weight-only without one.
  using Input = CalibrationStats LayerCalibration::*;
  const auto quantize = [&](std::size_t l, const Matrix& w,
                            Input input) -> OwqMatrix {
    if (!config_.weight_quant) return round_to_bf16(w);
    const OwqConfig& wq = *config_.weight_quant;
    if (calibration != nullptr) {
      return owq_quantize(w, ((*calibration)[l].*input).hessian_diag(), wq);
    }
    return owq_quantize_weight_only(w, wq);
  };

  layers_.reserve(cfg.n_layers);
  for (std::size_t l = 0; l < cfg.n_layers; ++l) {
    const auto& src = model_->layers()[l];
    PreparedLayer layer;
    layer.attn_norm = std::make_unique<Norm>(cfg.norm, src.attn_norm_gain);
    layer.ffn_norm = std::make_unique<Norm>(cfg.norm, src.ffn_norm_gain);
    layer.total_weight_values =
        4 * cfg.d_model * cfg.d_model + 2 * cfg.d_ffn * cfg.d_model;
    auto take = [&](const Matrix& w, Input input, Matrix& dst) {
      OwqMatrix q = quantize(l, w, input);
      layer.fp_weight_values += q.fp_columns.size() * q.dequantized.rows();
      layer.storage_bits += q.storage_bits;
      dst = std::move(q.dequantized);
    };
    take(src.wq, &LayerCalibration::attn_in, layer.wq);
    take(src.wk, &LayerCalibration::attn_in, layer.wk);
    take(src.wv, &LayerCalibration::attn_in, layer.wv);
    take(src.wo, &LayerCalibration::proj_in, layer.wo);
    take(src.w_fc1, &LayerCalibration::fc1_in, layer.w_fc1);
    take(src.w_fc2, &LayerCalibration::fc2_in, layer.w_fc2);
    layers_.push_back(std::move(layer));
  }
}

void PreparedModel::maybe_quantize(ActivationSite site, std::span<float> rows,
                                   std::size_t width) const {
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
  if (q != nullptr) q->quantize_dequantize_rows(rows, rows, width);
}

void PreparedModel::attend(std::size_t l, SequenceState& seq,
                           std::span<const float> q, std::span<float> z,
                           std::size_t len, PassScratch& scratch) const {
  const auto& cfg = model_->config();
  const std::size_t d_head = cfg.d_head();
  const std::size_t d_model = cfg.d_model;
  // The cached prefix [0, len) as one row-major segment per block: float
  // spans for fp32 pools, code spans for quantized pools (decoded
  // in-register by the fused kernels below). Iterating segments outer /
  // rows inner visits positions 0..len-1 in order, so within one kernel
  // table the result is bitwise equal to attending over the decoded floats
  // as one contiguous segment (tests/kv_read_reference.h's gather).
  const std::span<const KvSegment> kv = seq.attend_view(l, len);
  const float inv_sqrt_dk = 1.0f / std::sqrt(static_cast<float>(d_head));
  const KernelOps& ops = kernels();

  std::fill(z.begin(), z.end(), 0.0f);
  const std::span<float> scores =
      std::span<float>(scratch.scores_).first(len);
  const std::span<float> probs = std::span<float>(scratch.probs_).first(len);
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

namespace {

// Rows [first, first + count) of a row-major buffer `width` floats wide.
std::span<float> rows_of(std::vector<float>& buf, std::size_t width,
                         std::size_t first, std::size_t count) {
  return std::span<float>(buf).subspan(first * width, count * width);
}

// Rows of `m`'s feed that get logits: its trailing logit_rows, at most all.
std::size_t logit_rows_of(const PassMember& m) {
  return std::min(m.logit_rows, m.feed.size());
}

}  // namespace

PassScratch::PassScratch(const ModelConfig& config, std::size_t max_seq_len)
    : d_model_(config.d_model), d_ffn_(config.d_ffn), vocab_(config.vocab) {
  scores_.resize(max_seq_len);
  probs_.resize(max_seq_len);
  reserve(1, 1);  // every one-row pass runs on construction-time storage
}

void PassScratch::reserve(std::size_t rows, std::size_t logit_rows) {
  auto grow = [](std::vector<float>& buf, std::size_t size) {
    if (buf.size() < size) buf.resize(size);
  };
  for (auto* buf : {&x_, &h_, &q_, &k_, &v_, &z_, &attn_out_, &ffn_out_}) {
    grow(*buf, rows * d_model_);
  }
  grow(hidden_, rows * d_ffn_);
  grow(head_in_, logit_rows * d_model_);
  grow(logits_, logit_rows * vocab_);
}

PassScratch PreparedModel::make_scratch() const {
  return PassScratch(model_->config(), config_.max_seq_len);
}

void PreparedModel::finish_logits(std::span<const PassMember> members,
                                  std::size_t count,
                                  PassScratch& scratch) const {
  if (count == 0) return;
  PhaseScope phase(KernelProfiler::slot(), LayerPhase::kLogits);
  const std::size_t d = model_->config().d_model;
  const std::size_t vocab = model_->config().vocab;
  // Each member's trailing rows, normed into consecutive head input rows.
  std::size_t r = 0, k = 0;
  for (const PassMember& m : members) {
    const std::size_t n = m.feed.size();
    for (std::size_t t = n - logit_rows_of(m); t < n; ++t) {
      final_norm_->apply(rows_of(scratch.x_, d, r + t, 1),
                         rows_of(scratch.head_in_, d, k++, 1));
    }
    r += n;
  }
  // Tied embedding head: logit[v] = E[v,:] . h, one pass for every row of
  // every member.
  const std::span<float> out = rows_of(scratch.logits_, vocab, 0, count);
  matvec(model_->embedding(), rows_of(scratch.head_in_, d, 0, count), out);
  kernels().scale(model_->logit_scale(), out.data(), out.size());
  k = 0;
  for (const PassMember& m : members) {
    const std::size_t n = m.feed.size();
    const std::size_t km = logit_rows_of(m);
    const std::span<const float> src = rows_of(scratch.logits_, vocab, k, km);
    std::copy(src.begin(), src.end(),
              rows_of(m.seq->chunk_logits_, vocab, n - km, km).begin());
    k += km;
  }
}

std::span<const float> PreparedModel::step(SequenceState& seq,
                                           std::size_t token,
                                           PassScratch& scratch,
                                           ActivationRecorder* recorder) const {
  return prefill_chunk(seq, {&token, 1}, scratch, recorder);
}

std::span<const float> PreparedModel::prefill_chunk(
    SequenceState& seq, std::span<const std::size_t> tokens,
    PassScratch& scratch, ActivationRecorder* recorder,
    std::size_t logit_rows) const {
  const PassMember member{&seq, tokens, logit_rows};
  prefill_group({&member, 1}, scratch, recorder);
  return seq.logits();
}

void PreparedModel::prefill_group(std::span<const PassMember> members,
                                  PassScratch& scratch,
                                  ActivationRecorder* recorder) const {
  const auto& cfg = model_->config();
  require(!members.empty(), "PreparedModel::prefill_group: empty group");
  require(scratch.d_model_ == cfg.d_model && scratch.d_ffn_ == cfg.d_ffn &&
              scratch.vocab_ == cfg.vocab,
          "PreparedModel::prefill_group: scratch sized for a different model");
  std::size_t rows = 0, logit_rows = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const PassMember& m = members[i];
    require(m.seq != nullptr, "PreparedModel::prefill_group: null sequence");
    require(!m.feed.empty(), "PreparedModel::prefill_group: empty feed");
    for (const std::size_t token : m.feed) {
      require(token < cfg.vocab,
              "PreparedModel::prefill_group: token out of range");
    }
    require(m.seq->d_model_ == cfg.d_model && m.seq->vocab_ == cfg.vocab,
            "PreparedModel::prefill_group: state sized for a different model");
    require(m.seq->max_seq_len() <= scratch.scores_.size(),
            "PreparedModel::prefill_group: scratch shorter than a sequence");
    for (std::size_t j = 0; j < i; ++j) {
      require(members[j].seq != m.seq,
              "PreparedModel::prefill_group: a sequence appears twice");
    }
    rows += m.feed.size();
    logit_rows += logit_rows_of(m);
  }
  // Open every member's KV for its whole feed (reserving blocks unless
  // reserve_for did), all-or-nothing: a dry pool rolls back the members
  // already opened before the throw leaves.
  for (std::size_t i = 0; i < members.size(); ++i) {
    try {
      members[i].seq->advance_cache_by(members[i].feed.size());
    } catch (...) {
      for (std::size_t j = 0; j < i; ++j) {
        SequenceState& opened = *members[j].seq;
        opened.truncate(opened.position() - members[j].feed.size());
      }
      throw;
    }
  }
  scratch.reserve(rows, logit_rows);
  for (const PassMember& m : members) {
    m.seq->begin_chunk(m.feed.size(), logit_rows_of(m));
  }

  const std::size_t d = cfg.d_model;
  auto row = [](std::vector<float>& buf, std::size_t width, std::size_t r) {
    return rows_of(buf, width, r, 1);
  };
  auto all = [rows](std::vector<float>& buf, std::size_t width) {
    return rows_of(buf, width, 0, rows);
  };
  auto each_row = [rows](auto&& fn) {
    for (std::size_t r = 0; r < rows; ++r) fn(r);
  };
  PassScratch& s = scratch;
  {
    std::size_t r = 0;
    for (const PassMember& m : members) {
      for (const std::size_t token : m.feed) {
        const auto emb = model_->embedding().row(token);
        std::copy(emb.begin(), emb.end(), row(s.x_, d, r++).begin());
      }
    }
  }

  // Layer-major sweep, each layer's weights streamed once for all the
  // group's rows (one multi-row matvec per weight matrix). Every row's own
  // ops run in the order a one-row pass runs them, an n-row matvec is
  // bitwise n one-row calls, and only the attend phase touches a sequence
  // (its own), so each member's results are bitwise identical to its own
  // one-row passes. Phase attribution: a nullptr slot (the common case)
  // makes every scope a no-op, and the scopes only wrap statements, so the
  // output bits are unchanged.
  KernelProfile* prof = KernelProfiler::slot();
  for (std::size_t l = 0; l < cfg.n_layers; ++l) {
    const auto& layer = layers_[l];
    // The recorder sees each site's rows, pre-quantize, in member then row
    // order; then one quantizer call covers every row (each row its own
    // tensor), so a layer makes seven quantizer calls per group.
    auto record_and_quantize = [&](RecordSite record_site,
                                   ActivationSite site,
                                   std::vector<float>& buf,
                                   std::size_t width) {
      if (recorder != nullptr) {
        each_row([&](std::size_t r) {
          recorder->record(l, record_site, row(buf, width, r));
        });
      }
      maybe_quantize(site, all(buf, width), width);
    };

    // --- Attention block (Fig 5(c)) ---
    {
      PhaseScope phase(prof, LayerPhase::kNorm, l);
      each_row([&](std::size_t r) {
        layer.attn_norm->apply(row(s.x_, d, r), row(s.h_, d, r));
      });
      record_and_quantize(RecordSite::kAttnIn, ActivationSite::kPostLayerNorm,
                          s.h_, d);
    }

    {
      PhaseScope phase(prof, LayerPhase::kQkv, l);
      matvec(layer.wq, all(s.h_, d), all(s.q_, d));
      matvec(layer.wk, all(s.h_, d), all(s.k_, d));
      matvec(layer.wv, all(s.h_, d), all(s.v_, d));
      // Q, K enter Q.K^T and V enters Attn.V at the high bit-width.
      const std::pair<RecordSite, std::vector<float>*> qkv[] = {
          {RecordSite::kQuery, &s.q_},
          {RecordSite::kKey, &s.k_},
          {RecordSite::kValue, &s.v_}};
      for (const auto& [site, buf] : qkv) {
        record_and_quantize(site, ActivationSite::kAttentionInput, *buf, d);
      }
    }

    {
      PhaseScope phase(prof, LayerPhase::kAttend, l);
      // A member's token t writes its K/V at p0+t, then attends over
      // [0, p0+t], as a one-row pass at that position does. Quantized
      // blocks' scales only grow, so writing row t+1 before row t attends
      // would change the bits. Attention reads the blocks' live storage, so
      // a rescale caused by a write is already visible to the attend after
      // it.
      std::size_t r = 0;
      for (const PassMember& m : members) {
        SequenceState& seq = *m.seq;
        const std::size_t n = m.feed.size();
        const std::size_t p0 = seq.position() - n;
        for (std::size_t t = 0; t < n; ++t, ++r) {
          seq.write_kv_at(l, p0 + t, row(s.k_, d, r), row(s.v_, d, r));
          attend(l, seq, row(s.q_, d, r), row(s.z_, d, r), p0 + t + 1, s);
        }
      }
      record_and_quantize(RecordSite::kProjIn, ActivationSite::kGeneral, s.z_,
                          d);
      matvec(layer.wo, all(s.z_, d), all(s.attn_out_, d));
      each_row([&](std::size_t r) {
        kernels().axpy(1.0f, row(s.attn_out_, d, r).data(),
                       row(s.x_, d, r).data(), d);
      });
    }

    // --- FFN block (Fig 5(b)) ---
    {
      PhaseScope phase(prof, LayerPhase::kNorm, l);
      each_row([&](std::size_t r) {
        layer.ffn_norm->apply(row(s.x_, d, r), row(s.h_, d, r));
      });
      record_and_quantize(RecordSite::kFc1In, ActivationSite::kPostLayerNorm,
                          s.h_, d);
    }

    {
      PhaseScope phase(prof, LayerPhase::kFfn, l);
      matvec(layer.w_fc1, all(s.h_, d), all(s.hidden_, cfg.d_ffn));
      each_row([&](std::size_t r) {
        apply_activation(cfg.activation, row(s.hidden_, cfg.d_ffn, r));
      });
      record_and_quantize(RecordSite::kFc2In, ActivationSite::kGeneral,
                          s.hidden_, cfg.d_ffn);
      matvec(layer.w_fc2, all(s.hidden_, cfg.d_ffn), all(s.ffn_out_, d));
      each_row([&](std::size_t r) {
        kernels().axpy(1.0f, row(s.ffn_out_, d, r).data(),
                       row(s.x_, d, r).data(), d);
      });
    }
  }
  finish_logits(members, logit_rows, scratch);
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
