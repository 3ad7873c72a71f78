#include "accel/device.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "model_reference.h"

namespace opal {
namespace {

// One TokenReport, field for field, as the DeviceGolden tables record it.
struct GoldenToken {
  double latency_s, core_energy_j, mem_access_j, weight_leak_j, act_leak_j;
  std::size_t total_macs;
  double int_mac_fraction;
};

void expect_bits(const TokenReport& r, const GoldenToken& g,
                 const std::string& where) {
  EXPECT_EQ(r.latency_s, g.latency_s) << where;
  EXPECT_EQ(r.core_energy_j, g.core_energy_j) << where;
  EXPECT_EQ(r.mem_access_j, g.mem_access_j) << where;
  EXPECT_EQ(r.weight_leak_j, g.weight_leak_j) << where;
  EXPECT_EQ(r.act_leak_j, g.act_leak_j) << where;
  EXPECT_EQ(r.total_macs, g.total_macs) << where;
  EXPECT_EQ(r.int_mac_fraction, g.int_mac_fraction) << where;
}

std::vector<DeviceConfig> fig8_devices() {
  return {make_bf16_device(), make_owq_device(4), make_opal_device(4, 7, 4),
          make_opal_device(3, 5, 3)};
}

ModelConfig small_model() { return scaled_for_eval(llama2_7b(), 128, 2, 64); }

TEST(Device, BufferBytesScaleWithPrecision) {
  const auto bf16 = make_bf16_device();
  const auto owq = make_owq_device(4);
  const auto opal47 = make_opal_device(4, 7, 4);
  const auto opal35 = make_opal_device(3, 5, 3);
  // Weight buffer: 16b -> 4.5b effective (4b codes + g=32 scales) ~3.6x.
  EXPECT_NEAR(static_cast<double>(bf16.weight_buffer_bytes()) /
                  static_cast<double>(owq.weight_buffer_bytes()),
              16.0 / 4.5, 0.05);
  // Activation buffer: BF16 acts vs 7b MX-OPAL acts.
  EXPECT_GT(bf16.act_buffer_bytes(), 2 * opal47.act_buffer_bytes());
  EXPECT_GT(opal47.act_buffer_bytes(), opal35.act_buffer_bytes());
  // OWQ keeps BF16 activations.
  EXPECT_EQ(owq.act_buffer_bytes(), bf16.act_buffer_bytes());
}

TEST(Device, CoreAreaOrderingMatchesFig8b) {
  const double a_bf16 = device_core_area_mm2(make_bf16_device());
  const double a_owq = device_core_area_mm2(make_owq_device(4));
  const double a_47 = device_core_area_mm2(make_opal_device(4, 7, 4));
  const double a_35 = device_core_area_mm2(make_opal_device(3, 5, 3));
  EXPECT_LT(a_35, a_47);
  EXPECT_LT(a_47, a_owq);
  EXPECT_EQ(a_owq, a_bf16);  // OWQ computes on the same BF16 array
  // Abstract: 2.4~3.1x area reduction.
  EXPECT_GT(a_bf16 / a_47, 2.0);
  EXPECT_LT(a_bf16 / a_47, 3.0);
  EXPECT_GT(a_bf16 / a_35, 2.7);
  EXPECT_LT(a_bf16 / a_35, 3.8);
}

TEST(Device, OpalCoreAreaMatchesTable3) {
  const double a_47 = device_core_area_mm2(make_opal_device(4, 7, 4));
  EXPECT_NEAR(a_47, 0.9293, 0.02);
}

TEST(Device, TokenReportComponentsPositive) {
  const auto model = llama2_7b();
  const auto report = simulate_token(make_opal_device(4, 7, 4), model, 512);
  EXPECT_GT(report.latency_s, 0.0);
  EXPECT_GT(report.core_energy_j, 0.0);
  EXPECT_GT(report.mem_access_j, 0.0);
  EXPECT_GT(report.weight_leak_j, 0.0);
  EXPECT_GT(report.act_leak_j, 0.0);
  EXPECT_EQ(report.total_macs, model_reference::macs_per_token(model, 512));
}

TEST(Device, EnergyOrderingMatchesFig8a) {
  const auto model = llama2_70b();
  const std::size_t seq = 1024;
  const auto bf16 = simulate_token(make_bf16_device(), model, seq);
  const auto owq = simulate_token(make_owq_device(4), model, seq);
  const auto opal47 = simulate_token(make_opal_device(4, 7, 4), model, seq);
  const auto opal35 = simulate_token(make_opal_device(3, 5, 3), model, seq);
  EXPECT_LT(owq.total_j(), bf16.total_j());
  EXPECT_LT(opal47.total_j(), owq.total_j());
  EXPECT_LT(opal35.total_j(), opal47.total_j());
}

TEST(Device, OpalSavingsVsOwqInPaperBallpark) {
  // Paper: OPAL saves 38.6% (W4A4/7) and 53.5% (W3A3/5) vs OWQ.
  const auto model = llama2_70b();
  const std::size_t seq = 1024;
  const auto owq = simulate_token(make_owq_device(4), model, seq);
  const auto opal47 = simulate_token(make_opal_device(4, 7, 4), model, seq);
  const auto opal35 = simulate_token(make_opal_device(3, 5, 3), model, seq);
  const double save47 = 1.0 - opal47.total_j() / owq.total_j();
  const double save35 = 1.0 - opal35.total_j() / owq.total_j();
  EXPECT_GT(save47, 0.2);
  EXPECT_LT(save47, 0.6);
  EXPECT_GT(save35, 0.35);
  EXPECT_LT(save35, 0.7);
  EXPECT_GT(save35, save47);
}

TEST(Device, Llama70bLatencyNearPaper) {
  // §5.2: 1.98 s per token for Llama2-70B on OPAL (DRAM-streaming bound).
  const auto model = llama2_70b();
  const auto report =
      simulate_token(make_opal_device(4, 7, 4), model, 1024);
  EXPECT_GT(report.latency_s, 1.2);
  EXPECT_LT(report.latency_s, 2.8);
}

TEST(Device, Bf16LatencyRoughlyFourTimesOpal) {
  const auto model = llama2_70b();
  const auto bf16 = simulate_token(make_bf16_device(), model, 1024);
  const auto opal = simulate_token(make_opal_device(4, 7, 4), model, 1024);
  EXPECT_NEAR(bf16.latency_s / opal.latency_s, 16.0 / 4.5, 0.8);
}

TEST(Device, IntMacFractionNearPaper) {
  // Conclusion: "96.9% of computations are done in INT multipliers".
  const auto model = llama2_70b();
  const auto report =
      simulate_token(make_opal_device(4, 7, 4), model, 1024);
  EXPECT_GT(report.int_mac_fraction, 0.95);
  EXPECT_LT(report.int_mac_fraction, 0.985);
}

TEST(Device, BaselinesDoNoIntMacs) {
  const auto model = llama2_7b();
  const auto report = simulate_token(make_bf16_device(), model, 128);
  EXPECT_EQ(report.int_mac_fraction, 0.0);
}

TEST(Device, GenerationAveragesOverSeqGrowth) {
  const auto model = scaled_for_eval(llama2_7b(), 512, 4, 1024);
  const auto dev = make_opal_device(4, 7, 4);
  const auto avg = simulate_generation(dev, model, 64, 8);
  const auto first = simulate_token(dev, model, 64);
  const auto last = simulate_token(dev, model, 71);
  EXPECT_GE(avg.latency_s, first.latency_s * 0.999);
  EXPECT_LE(avg.latency_s, last.latency_s * 1.001);
}

TEST(Device, PrefillIsComputeBoundAndAmortized) {
  // Decode streams all weights per token (DRAM-bound); a prefill chunk
  // reuses each streamed weight across the whole prompt, so per-token
  // prefill time is far below decode time.
  const auto model = llama2_7b();
  const auto dev = make_opal_device(4, 7, 4);
  const std::size_t prompt = 512;
  const StepReport decode = simulate_step(dev, model, {{{0, prompt - 1, 1}}});
  const StepReport prefill = simulate_step(dev, model, {{{0, 0, prompt}}});
  EXPECT_TRUE(decode.dram_bound);
  EXPECT_FALSE(prefill.dram_bound);
  const double prefill_per_token =
      prefill.totals.latency_s / static_cast<double>(prompt);
  EXPECT_LT(prefill_per_token, decode.totals.latency_s / 10.0);
  // Total prefill work exceeds one decode step's work many times over.
  EXPECT_GT(prefill.totals.total_macs,
            decode.totals.total_macs * (prompt / 2));
}

TEST(Device, TraceSumsToTokenReport) {
  const auto model = scaled_for_eval(llama2_7b(), 512, 3, 1024);
  const auto dev = make_opal_device(4, 7, 4);
  const auto report = simulate_token(dev, model, 128);
  const auto trace = trace_token(dev, model, 128);
  double latency = 0.0, core_energy = 0.0;
  for (const auto& entry : trace) {
    latency += entry.latency_s;
    core_energy += entry.core_energy_j;
  }
  // Same op list, same per-op pricing, same summation order: bitwise.
  EXPECT_EQ(latency, report.latency_s);
  EXPECT_EQ(core_energy, report.core_energy_j);
}

TEST(Device, TokenNeedsItsOwnPosition) {
  // seq_len counts the generated token, so 0 is not a token.
  const auto model = small_model();
  const auto dev = make_opal_device(4, 7, 4);
  EXPECT_THROW((void)simulate_token(dev, model, 0), std::invalid_argument);
  EXPECT_THROW((void)trace_token(dev, model, 0), std::invalid_argument);
  EXPECT_NO_THROW((void)simulate_token(dev, model, 1));
}

TEST(Device, TraceWeightOpsAreDramBound) {
  // At the paper's bandwidth, every weight-streaming op is DRAM-bound.
  const auto model = llama2_70b();
  const auto trace = trace_token(make_opal_device(4, 7, 4), model, 1024);
  for (const auto& entry : trace) {
    if (entry.kind == OpKind::kWeightMxv) {
      EXPECT_TRUE(entry.dram_bound) << entry.name;
    }
    if (entry.kind == OpKind::kQuantize) {
      EXPECT_FALSE(entry.dram_bound) << entry.name;
      EXPECT_EQ(entry.dram_bytes, 0.0) << entry.name;
    }
  }
}

TEST(Device, MultiCoreScalesComputeNotDram) {
  // Compute-bound regime: a fast DRAM makes core count matter.
  const auto model = llama2_7b();
  auto one = make_opal_device(4, 7, 4);
  one.dram.bandwidth_gbps = 1e6;  // effectively free streaming
  auto four = one;
  four.n_cores = 4;
  const auto r1 = simulate_token(one, model, 256);
  const auto r4 = simulate_token(four, model, 256);
  EXPECT_NEAR(r1.latency_s / r4.latency_s, 4.0, 0.5);
  // Same MAC work, same dynamic core energy.
  EXPECT_NEAR(r4.core_energy_j, r1.core_energy_j, 1e-12);
  // Area scales with core count.
  EXPECT_NEAR(device_core_area_mm2(four) / device_core_area_mm2(one), 4.0,
              1e-9);
}

TEST(Device, MultiCoreCannotBeatDramBound) {
  // At the paper's DRAM bandwidth, token generation is streaming-bound, so
  // extra cores barely move latency (why the paper evaluates one core).
  const auto model = llama2_70b();
  auto one = make_opal_device(4, 7, 4);
  auto four = one;
  four.n_cores = 4;
  const auto r1 = simulate_token(one, model, 1024);
  const auto r4 = simulate_token(four, model, 1024);
  EXPECT_GT(r4.latency_s, r1.latency_s * 0.9);
}

TEST(Device, QuantizerAndSoftmaxEnergyOnlyOnOpal) {
  const auto model = scaled_for_eval(llama2_7b(), 512, 2, 1024);
  const auto opal = simulate_token(make_opal_device(4, 7, 4), model, 64);
  // OPAL reports must include nonzero core energy even for tiny models.
  EXPECT_GT(opal.core_energy_j, 0.0);
}

// --- golden bits: the device model's outputs, pinned ----------------------
//
// Hex-float literals recorded from the device model; every comparison is
// exact. The model's arithmetic is IEEE-exact (+, *, /, sqrt, ceil) and the
// tree builds with -ffp-contract=off, so these bits hold on every build.

TEST(DeviceGolden, Fig8TokenReports) {
  static constexpr GoldenToken kGolden[] = {
      // BF16 70b@1024
      {0x1.af71e6130b927p+2, 0x1.d84fdf2a9a04dp-4, 0x1.84802848ba79dp+2,
       0x1.82931bf87d0e8p+2, 0x1.c5c5ae552ecb8p+2, 60660121600, 0x0p+0},
      // OWQ 70b@1024
      {0x1.008753fb50054p+1, 0x1.d84fdf2a9a04dp-4, 0x1.8656ec3c5d7c4p+0,
       0x1.0294b2dc8e19cp-1, 0x1.0dcdd1bc599ap+1, 60660121600, 0x0p+0},
      // OPAL-4/7 70b@1024
      {0x1.ebc8349fbb4cbp+0, 0x1.84604cc82873dp-6, 0x1.7079dbedb6f4dp+0,
       0x1.efb7600d8db1bp-2, 0x1.d60eeb407a1acp-1, 60660121600,
       0x1.ee64f116424a4p-1},
      // OPAL-3/5 70b@1024
      {0x1.82d4151f1c39dp+0, 0x1.2eff487de25fcp-6, 0x1.1a1329cba9ac9p+0,
       0x1.339b32eb5a90ep-2, 0x1.1022418c07b27p-1, 60660121600,
       0x1.edfe677ca8b0ap-1},
  };
  const auto devices = fig8_devices();
  for (std::size_t i = 0; i < devices.size(); ++i) {
    expect_bits(simulate_token(devices[i], llama2_70b(), 1024), kGolden[i],
                devices[i].name);
  }
}

TEST(DeviceGolden, SmallModelTokenReports) {
  // Per device: KV length 1, 18, 64.
  static constexpr GoldenToken kGolden[] = {
      // BF16 small@1
      {0x1.03af8830443bap-15, 0x1.1479ce5774aeep-21, 0x1.d4f31f1316da1p-16,
       0x1.d15b5242037d5p-16, 0x1.111fd9073e8c5p-15, 270848, 0x0p+0},
      // BF16 small@18
      {0x1.0b6661be4ed6dp-15, 0x1.1d8ce5d02f77fp-21, 0x1.e3207adbf29e2p-16,
       0x1.df2e40906c83p-16, 0x1.193ce564c3afep-15, 279552, 0x0p+0},
      // BF16 small@64
      {0x1.1ae0f763522a5p-15, 0x1.361ae916dd97fp-21, 0x1.ff7d349e7bea2p-16,
       0x1.faeb3426b81abp-16, 0x1.29848b5bb98dap-15, 303104, 0x0p+0},
      // OWQ small@1
      {0x1.3a532aaeab416p-17, 0x1.1479ce5774aeep-21, 0x1.e59309bc36271p-18,
       0x1.3cd6e770940cap-19, 0x1.4a9757b505245p-17, 270848, 0x0p+0},
      // OWQ small@18
      {0x1.592e90e6d5ae1p-17, 0x1.1d8ce5d02f77fp-21, 0x1.0f243c6fd29bap-17,
       0x1.5bf17fa100597p-19, 0x1.6b0b892b19b2bp-17, 279552, 0x0p+0},
      // OWQ small@64
      {0x1.9718e77ae2fbfp-17, 0x1.361ae916dd97fp-21, 0x1.47ddaff4e5338p-17,
       0x1.9a5aa3b32a6eap-19, 0x1.ac2a2106f129ap-17, 303104, 0x0p+0},
      // OPAL-4/7 small@1
      {0x1.3331ce3d9122cp-17, 0x1.ce402274a45dbp-24, 0x1.bff79e1c6476fp-18,
       0x1.35a6f0a88e337p-19, 0x1.259fea4bf2fd7p-18, 270848,
       0x1.eeb6ed206c669p-1},
      // OPAL-4/7 small@18
      {0x1.40dadd0a9aaf3p-17, 0x1.ece06adb28d53p-24, 0x1.d5bbf37477bb8p-18,
       0x1.436bf96f0a839p-19, 0x1.32ae7ed67dba2p-18, 279552,
       0x1.ee41a41a41a42p-1},
      // OPAL-4/7 small@64
      {0x1.5c4f56bc7e15ap-17, 0x1.1f430d1e56de8p-23, 0x1.00a38c7af470cp-17,
       0x1.5f18ad7239761p-19, 0x1.4cec7f75520c8p-18, 303104,
       0x1.ed260dd67c8a6p-1},
      // OPAL-3/5 small@1
      {0x1.e70ae68de90c4p-18, 0x1.6ca13c0e6cc45p-24, 0x1.56231c39925f7p-18,
       0x1.834bed83c477cp-20, 0x1.56a26baabef51p-19, 270848,
       0x1.ee4912df93997p-1},
      // OPAL-3/5 small@18
      {0x1.faba5432958cfp-18, 0x1.85708a2df0e0dp-24, 0x1.650d6f59cac0fp-18,
       0x1.92f348dc9aa4cp-20, 0x1.647ba88b85ap-19, 279552,
       0x1.edd7357357357p-1},
      // OPAL-3/5 small@64
      {0x1.112ef3d5c794ap-17, 0x1.c75939fc83e1bp-24, 0x1.82e36ff2d9a32p-18,
       0x1.b278a4dfc7965p-20, 0x1.805e7a6769733p-19, 303104,
       0x1.ecc3e45306eb4p-1},
  };
  const auto devices = fig8_devices();
  const std::size_t seqs[] = {1, 18, 64};
  for (std::size_t i = 0; i < devices.size(); ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      expect_bits(simulate_token(devices[i], small_model(), seqs[j]),
                  kGolden[3 * i + j],
                  devices[i].name + " @" + std::to_string(seqs[j]));
    }
  }
}

TEST(DeviceGolden, GenerationAverages) {
  static constexpr GoldenToken kGolden[] = {
      // BF16 gen
      {0x1.2194bf0324667p-15, 0x1.37f931afb8c15p-21, 0x1.05f17ec2a559fp-15,
       0x1.0376f0c76c64p-15, 0x1.30911da216bb6p-15, 304896, 0x0p+0},
      // OWQ gen
      {0x1.b1e805fa2bec9p-17, 0x1.37f931afb8c15p-21, 0x1.60a941c282c73p-17,
       0x1.b560a9dd73f4ap-19, 0x1.c85c6a2065e09p-17, 304896, 0x0p+0},
      // OPAL-4/7 gen
      {0x1.6825331b102c8p-17, 0x1.22ce0d035a6a4p-23, 0x1.0a2842d65370ep-17,
       0x1.6b06c6f876b3fp-19, 0x1.583c84d604739p-18, 304896,
       0x1.ed1251e52012p-1},
      // OPAL-3/5 gen
      {0x1.19ada338fcc8fp-17, 0x1.cd3cabe519f59p-24, 0x1.8feef30b59155p-18,
       0x1.bffb44263278dp-20, 0x1.8c5242950b9adp-19, 304896,
       0x1.ecb0bbb54cf2bp-1},
  };
  const auto devices = fig8_devices();
  for (std::size_t i = 0; i < devices.size(); ++i) {
    expect_bits(simulate_generation(devices[i], small_model(), 64, 8),
                kGolden[i], devices[i].name);
  }
}

TEST(DeviceGolden, TraceSums) {
  struct GoldenTrace {
    double latency_s, core_energy_j, dram_bytes;
    std::size_t dram_bound_ops, ops;
  };
  // Per device: Llama2-70B at 1024, then the small model at 64.
  static constexpr GoldenTrace kGolden[] = {
      // BF16 70b@1024
      {0x1.af71e6130b927p+2, 0x1.d84fdf2a9a04dp-4, 0x1.c3f40ap+36, 641, 721},
      // BF16 small@64
      {0x1.1ae0f763522a5p-15, 0x1.361ae916dd97fp-21, 0x1.2808p+19, 17, 19},
      // OWQ 70b@1024
      {0x1.008753fb50054p+1, 0x1.d84fdf2a9a04dp-4, 0x1.0c9954p+35, 641, 721},
      // OWQ small@64
      {0x1.9718e77ae2fbfp-17, 0x1.361ae916dd97fp-21, 0x1.a92p+17, 17, 19},
      // OPAL-4/7 70b@1024
      {0x1.ebc8349fbb4cbp+0, 0x1.84604cc82873dp-6, 0x1.015954p+35, 641, 1121},
      // OPAL-4/7 small@64
      {0x1.5c4f56bc7e15ap-17, 0x1.1f430d1e56de8p-23, 0x1.612p+17, 17, 29},
      // OPAL-3/5 70b@1024
      {0x1.82d4151f1c39dp+0, 0x1.2eff487de25fcp-6, 0x1.94bbe8000003p+34, 641,
       1121},
      // OPAL-3/5 small@64
      {0x1.112ef3d5c794ap-17, 0x1.c75939fc83e1bp-24, 0x1.126ccccccccccp+17, 17,
       29},
  };
  const auto devices = fig8_devices();
  for (std::size_t i = 0; i < devices.size(); ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      const auto trace =
          j == 0 ? trace_token(devices[i], llama2_70b(), 1024)
                 : trace_token(devices[i], small_model(), 64);
      double latency = 0.0, core_energy = 0.0, dram_bytes = 0.0;
      std::size_t dram_bound = 0;
      for (const auto& entry : trace) {
        latency += entry.latency_s;
        core_energy += entry.core_energy_j;
        dram_bytes += entry.dram_bytes;
        if (entry.dram_bound) ++dram_bound;
      }
      const GoldenTrace& g = kGolden[2 * i + j];
      const std::string where = devices[i].name + (j == 0 ? " 70b" : " small");
      EXPECT_EQ(latency, g.latency_s) << where;
      EXPECT_EQ(core_energy, g.core_energy_j) << where;
      EXPECT_EQ(dram_bytes, g.dram_bytes) << where;
      EXPECT_EQ(dram_bound, g.dram_bound_ops) << where;
      EXPECT_EQ(trace.size(), g.ops) << where;
    }
  }
}

TEST(DeviceGolden, MixedStep) {
  struct GoldenSeq {
    double latency_s, energy_j, dram_bytes;
  };
  struct GoldenStep {
    GoldenToken totals;
    double dram_bytes, compute_s, dram_s;
    bool dram_bound;
    GoldenSeq seqs[3];
  };
  // BF16, OWQ-W4, OPAL-4/7 on a prefill chunk + decode + verify burst.
  static constexpr GoldenStep kGolden[] = {
      // BF16
      {{0x1.1b2276f0b73e6p-15, 0x1.a3e92e9916722p-18, 0x1.068b19f9f2d5ap-15,
        0x1.fb60939ae1f9p-16, 0x1.29c96ea1a7207p-15, 3291648, 0x0p+0},
       0x1.2808p+19, 0x1.b42c8f4c860cfp-18, 0x1.1a8b1127c9681p-15, true,
       {{0x1.5faf1abdcf0bap-16, 0x1.0e3e0252c03a4p-14, 0x1.7004000000001p+18},
        {0x1.23827d095702bp-18, 0x1.b497d015df93cp-17, 0x1.301ffffffffffp+16},
        {0x1.1b6a67c29360fp-17, 0x1.b1bfff226acf4p-16, 0x1.2808p+17}}},
      // OWQ
      {{0x1.981ee5b0774c5p-17, 0x1.a3e92e9916722p-18, 0x1.630fae9fb8b5ep-17,
        0x1.9b62ba7888a2fp-19, 0x1.ad3dae1ea774bp-17, 3291648, 0x0p+0},
       0x1.a92p+17, 0x1.b42c8f4c860cfp-18, 0x1.95c14e8cbff35p-17, true,
       {{0x1.b8d8783409f1cp-18, 0x1.33f5ddebed0ecp-16, 0x1.cc1p+16},
        {0x1.558bfd61e1763p-19, 0x1.9c311919b6224p-18, 0x1.634p+15},
        {0x1.993ea8f7e7d6dp-19, 0x1.13165a44585dap-17, 0x1.a92p+15}}},
      // OPAL-4/7
      {{0x1.bc01d50fa66cep-17, 0x1.5f2c031e15033p-20, 0x1.0cfd768f7f9f5p-17,
        0x1.bf8f28af84f0dp-19, 0x1.a864ce19dc914p-18, 3291648,
        0x1.ee8202c991101p-1},
       0x1.612p+17, 0x1.07abb4bdfc136p-17, 0x1.51091eec2498ep-17, true,
       {{0x1.10ec9e7d23a94p-17, 0x1.85498f9314219p-17, 0x1.a81p+16},
        {0x1.de3b90c823cc4p-20, 0x1.6023f294f178ep-19, 0x1.a68p+14},
        {0x1.bd3711e5f9281p-19, 0x1.3f4d37e782898p-18, 0x1.612p+15}}},
  };
  StepComposition mixed;
  mixed.seqs.push_back({1, 0, 8});   // prefill chunk
  mixed.seqs.push_back({2, 20, 1});  // decode
  mixed.seqs.push_back({3, 10, 3});  // spec-verify burst
  const DeviceConfig devices[] = {make_bf16_device(), make_owq_device(4),
                                  make_opal_device(4, 7, 4)};
  for (std::size_t i = 0; i < 3; ++i) {
    const StepReport step = simulate_step(devices[i], small_model(), mixed);
    const GoldenStep& g = kGolden[i];
    const std::string& where = devices[i].name;
    expect_bits(step.totals, g.totals, where);
    EXPECT_EQ(step.dram_bytes, g.dram_bytes) << where;
    EXPECT_EQ(step.compute_s, g.compute_s) << where;
    EXPECT_EQ(step.dram_s, g.dram_s) << where;
    EXPECT_EQ(step.dram_bound, g.dram_bound) << where;
    ASSERT_EQ(step.seqs.size(), 3u);
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(step.seqs[j].latency_s, g.seqs[j].latency_s) << where << j;
      EXPECT_EQ(step.seqs[j].energy_j, g.seqs[j].energy_j) << where << j;
      EXPECT_EQ(step.seqs[j].dram_bytes, g.seqs[j].dram_bytes) << where << j;
    }
  }
}

}  // namespace
}  // namespace opal
