#include "eval/mse_analysis.h"

#include <algorithm>

#include "common/error_metrics.h"
#include "common/tensor.h"
#include "eval/perplexity.h"

namespace opal {

void SiteCapture::record(std::size_t layer, RecordSite site,
                         std::span<const float> values) {
  if (layer != layer_) return;
  auto& store = data_[site];
  store.insert(store.end(), values.begin(), values.end());
}

const std::vector<float>& SiteCapture::at(RecordSite site) const {
  const auto it = data_.find(site);
  require(it != data_.end() && !it->second.empty(),
          "SiteCapture::at: no data for site " + to_string(site));
  return it->second;
}

std::vector<RecordSite> SiteCapture::figure4_sites() {
  return {RecordSite::kQuery, RecordSite::kKey,   RecordSite::kValue,
          RecordSite::kProjIn, RecordSite::kFc1In, RecordSite::kFc2In};
}

SiteCapture capture_layer_activations(const SyntheticModel& model,
                                      std::size_t layer,
                                      std::size_t n_tokens,
                                      std::uint64_t seed) {
  EngineConfig bf16;
  bf16.max_seq_len = n_tokens + 1;
  bf16.kv_block_size = std::min(bf16.kv_block_size, bf16.max_seq_len);
  InferenceEngine engine(model, bf16);
  SiteCapture capture(layer);
  engine.set_recorder(&capture);
  // The stream itself is discarded; generation only drives the recorder.
  static_cast<void>(generate_stream(engine, n_tokens, seed));
  return capture;
}

double site_mse(const SiteCapture& capture, RecordSite site,
                const Quantizer& quantizer) {
  const auto& original = capture.at(site);
  std::vector<float> quantized(original.size());
  quantizer.quantize_dequantize(original, quantized);
  return mse(original, quantized);
}

RelativeMseSeries relative_mse_series(const SiteCapture& capture,
                                      const Quantizer& quantizer,
                                      const Quantizer& baseline,
                                      const std::string& name) {
  RelativeMseSeries series;
  series.name = name;
  double sum = 0.0;
  for (const RecordSite site : SiteCapture::figure4_sites()) {
    const double q = site_mse(capture, site, quantizer);
    const double b = site_mse(capture, site, baseline);
    const double ratio = b > 0.0 ? q / b : 1.0;
    series.per_site.push_back(ratio);
    sum += ratio;
  }
  series.average = sum / static_cast<double>(series.per_site.size());
  return series;
}

}  // namespace opal
