// Tests for the power/energy/thermal substrate: DVFS tables, the CMOS power
// model, variability sampling, execution-time model, node energy optimum,
// thermal RC, simulated RAPL (including counter wrap), and the cooling/PUE
// model — each checked against the physical property it must reproduce.
#include <gtest/gtest.h>

#include <cmath>

#include "power/cooling.hpp"
#include "power/dvfs.hpp"
#include "power/model.hpp"
#include "power/rapl.hpp"
#include "power/thermal.hpp"
#include "support/stats.hpp"

namespace antarex::power {
namespace {

// --------------------------------------------------------------------------
// DvfsTable / DeviceSpec
// --------------------------------------------------------------------------

TEST(Dvfs, LinearLadderEndpoints) {
  const DvfsTable t = DvfsTable::linear(1.0, 3.0, 0.8, 1.2, 5);
  ASSERT_EQ(t.size(), 5u);
  EXPECT_DOUBLE_EQ(t.lowest().freq_ghz, 1.0);
  EXPECT_DOUBLE_EQ(t.highest().freq_ghz, 3.0);
  EXPECT_DOUBLE_EQ(t.lowest().voltage_v, 0.8);
  EXPECT_DOUBLE_EQ(t.highest().voltage_v, 1.2);
}

TEST(Dvfs, AtLeastSnapsUp) {
  const DvfsTable t = DvfsTable::linear(1.0, 3.0, 0.8, 1.2, 5);
  EXPECT_DOUBLE_EQ(t.at_least(1.4).freq_ghz, 1.5);
  EXPECT_DOUBLE_EQ(t.at_least(0.2).freq_ghz, 1.0);
  EXPECT_DOUBLE_EQ(t.at_least(9.9).freq_ghz, 3.0);
}

TEST(Dvfs, RejectsNonMonotonicTables) {
  EXPECT_THROW(DvfsTable({{2.0, 1.0}, {1.0, 0.9}}), Error);
  EXPECT_THROW(DvfsTable({{1.0, 1.0}, {2.0, 0.9}}), Error);
  EXPECT_THROW(DvfsTable(std::vector<OperatingPoint>{}), Error);
}

TEST(Dvfs, DevicePresetsAreSane) {
  for (const DeviceSpec& s :
       {DeviceSpec::xeon_haswell(), DeviceSpec::xeon_phi(), DeviceSpec::gpgpu()}) {
    EXPECT_GE(s.dvfs.size(), 2u) << s.name;
    EXPECT_GT(s.peak_gflops(s.dvfs.highest()), 100.0) << s.name;
    EXPECT_GT(s.peak_gflops(s.dvfs.highest()),
              s.peak_gflops(s.dvfs.lowest()))
        << s.name;
  }
  // The accelerators out-compute the CPU socket (the premise of
  // heterogeneity, paper Sec. I).
  const auto cpu = DeviceSpec::xeon_haswell();
  const auto gpu = DeviceSpec::gpgpu();
  EXPECT_GT(gpu.peak_gflops(gpu.dvfs.highest()),
            2.0 * cpu.peak_gflops(cpu.dvfs.highest()));
}

// --------------------------------------------------------------------------
// PowerModel
// --------------------------------------------------------------------------

class PowerModelTest : public ::testing::Test {
 protected:
  DeviceSpec spec_ = DeviceSpec::xeon_haswell();
  PowerModel pm_{DeviceSpec::xeon_haswell()};
};

TEST_F(PowerModelTest, DynamicPowerScalesWithCV2F) {
  const auto& lo = spec_.dvfs.lowest();
  const auto& hi = spec_.dvfs.highest();
  const double p_lo = PowerModel::dynamic_power_w(spec_, {}, lo, 1.0);
  const double p_hi = PowerModel::dynamic_power_w(spec_, {}, hi, 1.0);
  const double expected_ratio = (hi.voltage_v * hi.voltage_v * hi.freq_ghz) /
                                (lo.voltage_v * lo.voltage_v * lo.freq_ghz);
  EXPECT_NEAR(p_hi / p_lo, expected_ratio, 1e-9);
}

TEST_F(PowerModelTest, DynamicPowerLinearInActivity) {
  const auto& op = spec_.dvfs.highest();
  EXPECT_NEAR(PowerModel::dynamic_power_w(spec_, {}, op, 0.5),
              0.5 * PowerModel::dynamic_power_w(spec_, {}, op, 1.0), 1e-9);
  EXPECT_DOUBLE_EQ(PowerModel::dynamic_power_w(spec_, {}, op, 0.0), 0.0);
  EXPECT_THROW(PowerModel::dynamic_power_w(spec_, {}, op, 1.5), Error);
}

TEST_F(PowerModelTest, LeakageGrowsExponentiallyWithTemperature) {
  const auto& op = spec_.dvfs.highest();
  const double p50 =
      PowerModel::static_power_w(spec_, {}, pm_.v_nom(), op, 50.0);
  const double p85 =
      PowerModel::static_power_w(spec_, {}, pm_.v_nom(), op, 85.0);
  EXPECT_NEAR(p85 / p50, std::exp(spec_.leak_temp_coeff * 35.0), 1e-9);
  EXPECT_GT(p85, p50);
}

TEST_F(PowerModelTest, IdleIsMuchCheaperThanBusy) {
  const auto& op = spec_.dvfs.highest();
  EXPECT_LT(PowerModel::idle_power_w(spec_, {}, pm_.v_nom(), op, 50.0),
            0.35 * pm_.total_power_w(op, 0.9, 50.0));
}

TEST(Variability, MeanNearOneAndDeterministic) {
  Rng rng(7);
  RunningStats leak, ceff;
  for (int i = 0; i < 4000; ++i) {
    const Variability v = Variability::sample(rng, 0.03);
    leak.add(v.leak_mult);
    ceff.add(v.ceff_mult);
  }
  EXPECT_NEAR(leak.mean(), 1.0, 0.02);
  EXPECT_NEAR(ceff.mean(), 1.0, 0.01);
  // Leakage spread exceeds capacitance spread (3x sigma).
  EXPECT_GT(leak.stddev(), 2.0 * ceff.stddev());

  Rng r1(9), r2(9);
  const Variability a = Variability::sample(r1, 0.05);
  const Variability b = Variability::sample(r2, 0.05);
  EXPECT_DOUBLE_EQ(a.leak_mult, b.leak_mult);
  EXPECT_DOUBLE_EQ(a.ceff_mult, b.ceff_mult);
}

TEST(Variability, ProducesPaperScaleEnergySpread) {
  // Paper Sec. V: same nominal component, ~15% variation in energy.
  // 64 instances of the same SKU running the same workload.
  Rng rng(2016);
  WorkloadModel w;
  w.cpu_gcycles = 10.0;
  w.cores_used = 12;
  w.mem_seconds = 0.05;
  const DeviceSpec spec = DeviceSpec::xeon_haswell();
  RunningStats energy;
  for (int i = 0; i < 64; ++i) {
    PowerModel pm(spec, Variability::sample(rng, 0.035));
    energy.add(energy_j(pm, w, spec.dvfs.highest(), 1.0, 65.0));
  }
  const double spread = (energy.max() - energy.min()) / energy.mean();
  EXPECT_GT(spread, 0.08);
  EXPECT_LT(spread, 0.30);
}

// --------------------------------------------------------------------------
// WorkloadModel / energy
// --------------------------------------------------------------------------

TEST(Workload, TimeSplitsIntoScalingAndStallParts) {
  WorkloadModel w;
  w.cpu_gcycles = 2.0;
  w.mem_seconds = 0.5;
  w.cores_used = 2;
  const OperatingPoint op{2.0, 1.0};
  EXPECT_DOUBLE_EQ(w.execution_time_s(op), 2.0 / (2.0 * 2.0) + 0.5);
  // Doubling frequency halves only the compute part.
  const OperatingPoint op2{4.0, 1.2};
  EXPECT_DOUBLE_EQ(w.execution_time_s(op2), 0.25 + 0.5);
}

TEST(Workload, MemoryBoundednessIncreasesWithFrequency) {
  WorkloadModel w;
  w.cpu_gcycles = 1.0;
  w.mem_seconds = 0.2;
  const double low = w.memory_boundedness({1.0, 0.8});
  const double high = w.memory_boundedness({3.0, 1.2});
  EXPECT_GT(high, low);
  EXPECT_GT(low, 0.0);
  EXPECT_LT(high, 1.0);
}

/// Savings of the energy-optimal P-state against the highest one, in [0, 1).
double savings_vs_highest(const NodeEnergyModel& nm, const WorkloadModel& w) {
  const auto& dvfs = nm.power_model().spec().dvfs;
  const double e_default = nm.energy_to_solution_j(w, dvfs.highest(), 1.0);
  const double e_opt = nm.energy_to_solution_j(w, dvfs.at(nm.optimal_op_index(w)), 1.0);
  return 1.0 - e_opt / e_default;
}

class NodeEnergyTest : public ::testing::TestWithParam<double> {};

TEST_P(NodeEnergyTest, SavingsInPaperBand) {
  // Paper Sec. V: optimal OP selection saves 18-50% of node energy vs the
  // default governor (= highest P-state when busy). Sweep memory-boundedness;
  // every realistic HPC mix point must land in a band consistent with the
  // claim (we accept [0.10, 0.55] per-point; the bench reports the full
  // min/max across the app mix).
  const double mem_frac = GetParam();
  const DeviceSpec spec = DeviceSpec::xeon_haswell();
  NodeEnergyModel nm{PowerModel(spec), 30.0};
  WorkloadModel w;
  w.cpu_gcycles = 10.0;
  w.cores_used = 12;
  w.activity = 0.9;
  const double t_cpu = 10.0 / (3.6 * 12);
  w.mem_seconds = mem_frac / (1.0 - mem_frac + 1e-12) * t_cpu;

  const double savings = savings_vs_highest(nm, w);
  EXPECT_GT(savings, 0.10);
  EXPECT_LT(savings, 0.55);
}

INSTANTIATE_TEST_SUITE_P(MemoryBoundednessSweep, NodeEnergyTest,
                         ::testing::Values(0.0, 0.2, 0.4, 0.6, 0.8, 0.9));

TEST(NodeEnergy, MemoryBoundSavesMoreThanComputeBound) {
  const DeviceSpec spec = DeviceSpec::xeon_haswell();
  NodeEnergyModel nm{PowerModel(spec), 30.0};
  WorkloadModel compute;
  compute.cpu_gcycles = 10.0;
  compute.cores_used = 12;
  WorkloadModel memory = compute;
  memory.mem_seconds = 2.0;
  EXPECT_GT(savings_vs_highest(nm, memory), savings_vs_highest(nm, compute));
}

TEST(NodeEnergy, SteadyTempHigherAtHighFrequency) {
  const DeviceSpec spec = DeviceSpec::xeon_haswell();
  NodeEnergyModel nm{PowerModel(spec)};
  EXPECT_GT(nm.steady_temp_c(spec.dvfs.highest(), 0.9),
            nm.steady_temp_c(spec.dvfs.lowest(), 0.9) + 10.0);
}

// --------------------------------------------------------------------------
// ThermalModel
// --------------------------------------------------------------------------

/// Temperature after `steps` steps of `dt_s` at constant power and ambient.
double relax(double temp_c, double power_w, double ambient_c, double tau_s,
             double dt_s, int steps = 1, double r_th = 0.25) {
  const double decay = ThermalModel::decay(dt_s, tau_s);
  for (int i = 0; i < steps; ++i)
    temp_c = ThermalModel::relaxed_c(temp_c, power_w, ambient_c, decay, r_th);
  return temp_c;
}

TEST(Thermal, ConvergesToSteadyState) {
  // Steady state: ambient + power * r_th = 20 + 100 * 0.25.
  EXPECT_NEAR(relax(30.0, 100.0, 20.0, 10.0, 1.0, 200), 45.0, 0.1);
}

TEST(Thermal, TimeConstantGovernsRise) {
  const double t = relax(20.0, 100.0, 20.0, 10.0, 10.0);  // one time constant
  // After one tau: ~63% of the way to 45 C.
  EXPECT_NEAR((t - 20.0) / (45.0 - 20.0), 0.632, 0.01);
}

TEST(Thermal, CoolsWhenPowerDrops) {
  EXPECT_NEAR(relax(80.0, 0.0, 20.0, 10.0, 100.0), 20.0, 0.5);
}

TEST(Thermal, StableForLargeTimeSteps) {
  // A huge dt must not overshoot or oscillate: it lands on 25 + 120 * 0.25.
  EXPECT_NEAR(relax(40.0, 120.0, 25.0, 5.0, 1e6), 55.0, 1e-6);
}

// The sharded plant evaluates decay() once per step and applies relaxed_c()
// per device. That must reproduce the single-expression update the golden
// fixtures were recorded with bit for bit, or every golden would drift.
TEST(Thermal, HoistedDecayMatchesFusedUpdateBitForBit) {
  const double dts[] = {0.0, 1e-3, 0.1, 0.25, 0.5, 1.0, 2.5, 10.0, 1e6};
  const double taus[] = {0.5, 5.0, 12.0, 60.0};
  const double powers[] = {0.0, 7.5, 88.25, 310.0};
  for (const double tau : taus)
    for (const double dt : dts) {
      const double decay = ThermalModel::decay(dt, tau);
      for (const double p : powers)
        for (double t0 = 18.0; t0 < 100.0; t0 += 7.3) {
          const double hoisted =
              ThermalModel::relaxed_c(t0, p, 21.0, decay, 0.3);
          double fused = t0;
          fused += (21.0 + p * 0.3 - fused) * (1.0 - std::exp(-dt / tau));
          EXPECT_EQ(hoisted, fused)
              << "dt=" << dt << " tau=" << tau << " p=" << p << " t0=" << t0;
        }
    }
  EXPECT_THROW(ThermalModel::decay(-1.0), Error);
}

// --------------------------------------------------------------------------
// RAPL
// --------------------------------------------------------------------------

TEST(Rapl, AccumulatesEnergy) {
  RaplDomain r("pkg");
  r.accumulate(100.0, 2.5);
  EXPECT_DOUBLE_EQ(r.total_j(), 250.0);
  EXPECT_EQ(r.counter_uj(), 250000000u);
}

TEST(Rapl, CounterWrapsLikeThe32BitMsr) {
  RaplDomain r;
  // Push just below the wrap (2^32 uJ ~ 4294.97 J), sample, cross the wrap.
  r.accumulate(1000.0, 4.2);  // 4200 J
  const u32 before = r.counter_uj();
  r.accumulate(1000.0, 0.2);  // 4400 J total -> wrapped
  const u32 after = r.counter_uj();
  EXPECT_LT(after, before);  // raw counter wrapped
  EXPECT_NEAR(RaplDomain::delta_j(before, after), 200.0, 1e-3);
}

TEST(Rapl, RejectsNegativeInputs) {
  RaplDomain r;
  EXPECT_THROW(r.accumulate(-1.0, 1.0), Error);
  EXPECT_THROW(r.accumulate(1.0, -1.0), Error);
}

// --------------------------------------------------------------------------
// Cooling / PUE
// --------------------------------------------------------------------------

TEST(Cooling, CopDegradesWithAmbient) {
  CoolingModel c;
  EXPECT_GT(c.cop(5.0), c.cop(35.0));
  EXPECT_DOUBLE_EQ(c.cop(5.0), c.params().cop_ref);
  EXPECT_GE(c.cop(200.0), c.params().cop_min);
}

TEST(Cooling, PueAboveOneAndMonotoneInAmbient) {
  CoolingModel c;
  const double winter = c.pue(1e6, 5.0);
  const double summer = c.pue(1e6, 35.0);
  EXPECT_GT(winter, 1.0);
  EXPECT_GT(summer, winter);
}

TEST(Cooling, PaperClaimWinterToSummerPueLossAbove10Percent) {
  // Paper Sec. V (citing [23]): "more than 10% PUE loss when transitioning
  // from winter to summer".
  CoolingModel c;
  const double winter = c.pue(1e6, 5.0);
  const double summer = c.pue(1e6, 35.0);
  const double loss = (summer - winter) / winter;
  EXPECT_GT(loss, 0.10);
  EXPECT_LT(loss, 0.35);  // and not absurdly large
}

TEST(Cooling, PueIndependentOfItScale) {
  CoolingModel c;
  EXPECT_NEAR(c.pue(1e3, 20.0), c.pue(1e7, 20.0), 1e-12);
  EXPECT_DOUBLE_EQ(c.pue(0.0, 20.0), 1.0);
}

}  // namespace
}  // namespace antarex::power
