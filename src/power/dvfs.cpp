#include "power/dvfs.hpp"

namespace antarex::power {

DvfsTable::DvfsTable(std::vector<OperatingPoint> points) : points_(std::move(points)) {
  ANTAREX_REQUIRE(!points_.empty(), "DvfsTable: empty P-state table");
  for (std::size_t i = 1; i < points_.size(); ++i) {
    ANTAREX_REQUIRE(points_[i].freq_ghz > points_[i - 1].freq_ghz,
                    "DvfsTable: P-states must be ascending in frequency");
    ANTAREX_REQUIRE(points_[i].voltage_v >= points_[i - 1].voltage_v,
                    "DvfsTable: voltage must be non-decreasing with frequency");
  }
}

const OperatingPoint& DvfsTable::at(std::size_t i) const {
  ANTAREX_REQUIRE(i < points_.size(), "DvfsTable: P-state index out of range");
  return points_[i];
}

const OperatingPoint& DvfsTable::at_least(double freq_ghz) const {
  ANTAREX_REQUIRE(!points_.empty(), "DvfsTable: empty table");
  for (const auto& op : points_)
    if (op.freq_ghz >= freq_ghz) return op;
  return points_.back();
}

DvfsTable DvfsTable::linear(double f_lo, double f_hi, double v_lo, double v_hi,
                            std::size_t n) {
  ANTAREX_REQUIRE(n >= 2, "DvfsTable::linear: need at least 2 points");
  ANTAREX_REQUIRE(f_hi > f_lo && v_hi >= v_lo, "DvfsTable::linear: bad ranges");
  std::vector<OperatingPoint> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(n - 1);
    pts.push_back({f_lo + t * (f_hi - f_lo), v_lo + t * (v_hi - v_lo)});
  }
  return DvfsTable(std::move(pts));
}

double DeviceSpec::peak_gflops(const OperatingPoint& op) const {
  return op.freq_ghz * flops_per_cycle_per_core * static_cast<double>(cores);
}

DeviceSpec DeviceSpec::xeon_haswell() {
  DeviceSpec s;
  s.type = DeviceType::Cpu;
  s.name = "xeon-haswell-12c";
  s.cores = 12;
  s.flops_per_cycle_per_core = 16.0;  // 2x AVX2 FMA
  s.c_eff_nf = 32.0;
  s.leak_w_ref = 18.0;
  s.leak_temp_coeff = 0.02;
  s.idle_activity = 0.06;
  s.mem_bw_gbs = 68.0;
  s.dvfs = DvfsTable::linear(1.2, 3.6, 0.75, 1.25, 13);
  return s;
}

DeviceSpec DeviceSpec::xeon_phi() {
  DeviceSpec s;
  s.type = DeviceType::Mic;
  s.name = "xeon-phi-61c";
  s.cores = 61;
  s.flops_per_cycle_per_core = 16.0;  // 512-bit vector FMA
  s.c_eff_nf = 180.0;
  s.leak_w_ref = 40.0;
  s.leak_temp_coeff = 0.02;
  s.idle_activity = 0.08;
  s.mem_bw_gbs = 180.0;
  s.dvfs = DvfsTable::linear(0.8, 1.2, 0.85, 1.00, 5);
  return s;
}

DeviceSpec DeviceSpec::gpgpu() {
  DeviceSpec s;
  s.type = DeviceType::Gpu;
  s.name = "gpgpu-dp";
  s.cores = 2496;                     // DP lanes
  s.flops_per_cycle_per_core = 1.0;   // 1 DP FMA-equivalent flop/cycle/lane
  s.c_eff_nf = 200.0;
  s.leak_w_ref = 45.0;
  s.leak_temp_coeff = 0.02;
  s.idle_activity = 0.05;
  s.mem_bw_gbs = 240.0;
  s.dvfs = DvfsTable::linear(0.56, 0.88, 0.85, 1.00, 5);
  return s;
}

}  // namespace antarex::power
