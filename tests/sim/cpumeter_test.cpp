#include "net/cpumeter.hpp"

#include <gtest/gtest.h>

namespace whisper::net {
namespace {

TEST(CpuMeter, ChargeAccumulatesPerCategory) {
  CpuMeter meter;
  meter.charge(CpuCategory::kAes, [] {});
  meter.charge(CpuCategory::kAes, [] {});
  meter.charge(CpuCategory::kRsaDecrypt, [] {});
  EXPECT_EQ(meter.ops(CpuCategory::kAes), 2u);
  EXPECT_EQ(meter.ops(CpuCategory::kRsaDecrypt), 1u);
  EXPECT_EQ(meter.ops(CpuCategory::kRsaEncrypt), 0u);
  EXPECT_GE(meter.spent(CpuCategory::kAes), 2u);  // at least 1 us per op
}

TEST(CpuMeter, ChargeReturnsPositiveTime) {
  CpuMeter meter;
  const Time t = meter.charge(CpuCategory::kRsaSign, [] {});
  EXPECT_GE(t, 1u);
}

TEST(CpuMeter, MeasuresRealWork) {
  CpuMeter meter;
  // A busy loop of ~1 ms must register clearly above the 1 us floor.
  const Time t = meter.charge(CpuCategory::kRsaEncrypt, [] {
    volatile std::uint64_t acc = 0;
    for (int i = 0; i < 2'000'000; ++i) acc += static_cast<std::uint64_t>(i);
  });
  EXPECT_GT(t, 100u);
}

TEST(CpuMeter, TotalSumsCategories) {
  CpuMeter meter;
  meter.charge(CpuCategory::kAes, [] {});
  meter.charge(CpuCategory::kRsaDecrypt, [] {});
  EXPECT_EQ(meter.total(),
            meter.spent(CpuCategory::kAes) + meter.spent(CpuCategory::kRsaDecrypt));
}

TEST(CpuMeter, ResetClears) {
  CpuMeter meter;
  meter.charge(CpuCategory::kAes, [] {});
  meter.reset();
  EXPECT_EQ(meter.total(), 0u);
  EXPECT_EQ(meter.ops(CpuCategory::kAes), 0u);
}

TEST(CpuMeter, ProbeObservesEveryCharge) {
  CpuMeter meter;
  std::vector<std::pair<CpuCategory, Time>> samples;
  meter.set_probe([&](CpuCategory c, Time t) { samples.emplace_back(c, t); });
  meter.charge(CpuCategory::kAes, [] {});
  meter.charge(CpuCategory::kRsaDecrypt, [] {});
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].first, CpuCategory::kAes);
  EXPECT_EQ(samples[1].first, CpuCategory::kRsaDecrypt);
  meter.set_probe(nullptr);
  meter.charge(CpuCategory::kAes, [] {});
  EXPECT_EQ(samples.size(), 2u);  // detached probe sees nothing
}

}  // namespace
}  // namespace whisper::net
