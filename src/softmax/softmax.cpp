#include "softmax/softmax.h"

#include <algorithm>
#include <cmath>

#include "common/bfloat16.h"
#include "common/float_bits.h"

namespace opal {

void softmax_reference(std::span<const float> in, std::span<float> out) {
  require(in.size() == out.size() && !in.empty(), "softmax: bad spans");
  float max_v = in[0];
  for (const float v : in) max_v = std::max(max_v, v);
  double sum = 0.0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const double e = std::exp(static_cast<double>(in[i]) - max_v);
    out[i] = static_cast<float>(e);
    sum += e;
  }
  for (auto& v : out) v = static_cast<float>(v / sum);
}

std::vector<std::uint8_t> log2_softmax_exact(std::span<const float> in,
                                             int bits) {
  require(bits >= 1 && bits <= 8, "log2_softmax_exact: bits in [1,8]");
  std::vector<float> probs(in.size());
  softmax_reference(in, probs);
  const int max_code = (1 << bits) - 1;
  std::vector<std::uint8_t> codes(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    // softmax output is in (0, 1], so log2 is <= 0 and -log2 >= 0.
    const double l = -std::round(std::log2(static_cast<double>(probs[i])));
    codes[i] = static_cast<std::uint8_t>(
        std::clamp(static_cast<long>(l), 0L, static_cast<long>(max_code)));
  }
  return codes;
}

namespace {

/// The log2 unit's datapath. `exps` (same size as `in`, may alias it)
/// receives the bf16 exponentials; emit(i, code) is called once per element
/// in order, after every exponential is in place.
template <typename Emit>
void run_log2_unit(std::span<const float> in, int bits,
                   std::span<float> exps, Emit emit) {
  require(!in.empty(), "log2_softmax_unit: empty input");
  require(in.size() == exps.size(), "log2_softmax_unit: size mismatch");
  require(bits >= 1 && bits <= 8, "log2_softmax_unit: bits in [1,8]");

  // Max subtraction keeps exp() in range; it cancels in the ratio e_i / S so
  // the produced codes are unaffected.
  float max_v = in[0];
  for (const float v : in) max_v = std::max(max_v, v);

  // Exponentials land in the Exp Softmax Buffer as bfloat16 (Fig 6(c)).
  double sum_acc = 0.0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    exps[i] = to_bf16(std::exp(in[i] - max_v));
    sum_acc += exps[i];  // FP adder tree accumulation
  }
  const bfloat16 sum(static_cast<float>(sum_acc));

  const int e_sum = sum.biased_exponent();
  const int m_sum = sum.mantissa();  // 7-bit fraction of 1.Ms
  const int max_code = (1 << bits) - 1;

  for (std::size_t i = 0; i < in.size(); ++i) {
    // Exact: exps[i] is already bf16.
    const bfloat16 e = bfloat16::from_bits(
        static_cast<std::uint16_t>(f32_bits(exps[i]) >> 16));
    if (e.is_zero()) {  // fully underflowed: weight rounds to zero
      emit(i, static_cast<std::uint8_t>(max_code));
      continue;
    }
    // Eq. (3): INT exponent subtraction ...
    int log2_ratio = e.biased_exponent() - e_sum;
    // ... plus the mantissa comparator: +/-1 when the 7-bit mantissa
    // difference is at least 0.5 (64 counts).
    const int m_diff = e.mantissa() - m_sum;
    if (m_diff >= 64) {
      log2_ratio += 1;
    } else if (m_diff <= -64) {
      log2_ratio -= 1;
    }
    // log2(softmax) <= 0; the negation gives the attention code.
    emit(i, static_cast<std::uint8_t>(std::clamp(-log2_ratio, 0, max_code)));
  }
}

}  // namespace

std::vector<std::uint8_t> log2_softmax_unit(std::span<const float> in,
                                            const Log2SoftmaxConfig& config) {
  std::vector<float> exps(in.size());
  std::vector<std::uint8_t> codes(in.size());
  run_log2_unit(in, config.bits, exps,
                [&codes](std::size_t i, std::uint8_t code) { codes[i] = code; });
  return codes;
}

void log2_softmax_weights(std::span<const float> in,
                          const Log2SoftmaxConfig& config,
                          std::span<float> out) {
  run_log2_unit(in, config.bits, out, [out](std::size_t i, std::uint8_t code) {
    out[i] = log2_code_weight(code);
  });
}

void attention_weights_from_codes(std::span<const std::uint8_t> codes,
                                  std::span<float> out) {
  require(codes.size() == out.size(), "attention_weights: size mismatch");
  for (std::size_t i = 0; i < codes.size(); ++i) {
    out[i] = log2_code_weight(codes[i]);
  }
}

void shift_accumulate_attn_v(std::span<const std::uint8_t> codes,
                             const Matrix& v, std::span<float> out) {
  require(codes.size() == v.rows(), "shift_accumulate: codes vs V rows");
  require(out.size() == v.cols(), "shift_accumulate: out vs V cols");
  std::fill(out.begin(), out.end(), 0.0f);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    const float w = log2_code_weight(codes[i]);
    const auto row = v.row(i);
    for (std::size_t c = 0; c < out.size(); ++c) out[c] += w * row[c];
  }
}

void reference_attn_v(std::span<const float> probs, const Matrix& v,
                      std::span<float> out) {
  require(probs.size() == v.rows(), "reference_attn_v: probs vs V rows");
  require(out.size() == v.cols(), "reference_attn_v: out vs V cols");
  std::fill(out.begin(), out.end(), 0.0f);
  for (std::size_t i = 0; i < probs.size(); ++i) {
    const auto row = v.row(i);
    for (std::size_t c = 0; c < out.size(); ++c) out[c] += probs[i] * row[c];
  }
}

}  // namespace opal
