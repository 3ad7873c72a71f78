#include "accel/sram.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace opal {
namespace {

TEST(Sram, AnchorsReproduced) {
  const SramModel m(64 * 1024);
  const SramParams p;
  EXPECT_DOUBLE_EQ(m.read_energy_pj(), p.read_energy_pj_at_64kb);
  EXPECT_DOUBLE_EQ(m.leakage_mw(), p.leakage_mw_at_64kb);
}

TEST(Sram, LeakageLinear) {
  const SramModel small(64 * 1024), big(256 * 1024);
  EXPECT_NEAR(big.leakage_mw() / small.leakage_mw(), 4.0, 1e-9);
}

TEST(Sram, AccessEnergySqrtScaling) {
  const SramModel small(64 * 1024), big(256 * 1024);
  EXPECT_NEAR(big.read_energy_pj() / small.read_energy_pj(), 2.0, 1e-9);
}

TEST(Sram, StreamingEnergyProportionalToBytes) {
  const SramModel m(512 * 1024);
  EXPECT_NEAR(m.read_energy_j(2048) / m.read_energy_j(1024), 2.0, 1e-9);
}

TEST(Sram, LeakageEnergyProportionalToTime) {
  const SramModel m(512 * 1024);
  EXPECT_NEAR(m.leakage_energy_j(2.0) / m.leakage_energy_j(1.0), 2.0,
              1e-9);
  // 512KB at 8x the 64KB anchor leakage.
  EXPECT_NEAR(m.leakage_energy_j(1.0), 8.0 * 56.0 * 1e-3, 1e-6);
}

TEST(Sram, RejectsZeroCapacity) {
  EXPECT_THROW(SramModel(0), std::invalid_argument);
}

TEST(Dram, TransferTimeAndEnergy) {
  DramModel dram;
  dram.bandwidth_gbps = 10.0;
  dram.energy_pj_per_bit = 5.0;
  EXPECT_NEAR(dram.transfer_seconds(10ull * 1000 * 1000 * 1000), 1.0,
              1e-9);
  EXPECT_NEAR(dram.transfer_energy_j(1000), 1000.0 * 8 * 5e-12, 1e-15);
}

}  // namespace
}  // namespace opal
