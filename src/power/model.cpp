#include "power/model.hpp"

#include <cmath>

namespace antarex::power {

Variability Variability::sample(Rng& rng, double sigma) {
  ANTAREX_REQUIRE(sigma >= 0.0, "Variability: sigma must be >= 0");
  Variability v;
  // mu = -sigma^2/2 keeps the mean multiplier at 1.0.
  const double leak_sigma = 3.0 * sigma;
  v.leak_mult = rng.lognormal(-leak_sigma * leak_sigma / 2.0, leak_sigma);
  v.ceff_mult = rng.lognormal(-sigma * sigma / 2.0, sigma);
  return v;
}

PowerModel::PowerModel(DeviceSpec spec, Variability var)
    : spec_(std::move(spec)), var_(var) {
  ANTAREX_REQUIRE(spec_.dvfs.size() > 0, "PowerModel: device has no P-states");
  v_nom_ = spec_.dvfs.highest().voltage_v;
}

double PowerModel::dynamic_power_w(const DeviceSpec& spec,
                                   const Variability& var,
                                   const OperatingPoint& op, double activity) {
  ANTAREX_REQUIRE(activity >= 0.0 && activity <= 1.0,
                  "PowerModel: activity outside [0, 1]");
  // C [nF] * V^2 [V^2] * f [GHz] -> nF * GHz = 1, so the product is in watts.
  return spec.c_eff_nf * var.ceff_mult * op.voltage_v * op.voltage_v *
         op.freq_ghz * activity;
}

double PowerModel::static_power_w(const DeviceSpec& spec,
                                  const Variability& var, double v_nom,
                                  const OperatingPoint& op, double temp_c) {
  return spec.leak_w_ref * var.leak_mult * (op.voltage_v / v_nom) *
         std::exp(spec.leak_temp_coeff * (temp_c - 50.0));
}

double PowerModel::total_power_w(const DeviceSpec& spec, const Variability& var,
                                 double v_nom, const OperatingPoint& op,
                                 double activity, double temp_c) {
  return dynamic_power_w(spec, var, op, activity) +
         static_power_w(spec, var, v_nom, op, temp_c);
}

double PowerModel::idle_power_w(const DeviceSpec& spec, const Variability& var,
                                double v_nom, const OperatingPoint& op,
                                double temp_c) {
  return total_power_w(spec, var, v_nom, op, spec.idle_activity, temp_c);
}

double PowerModel::total_power_w(const OperatingPoint& op, double activity,
                                 double temp_c) const {
  return total_power_w(spec_, var_, v_nom_, op, activity, temp_c);
}

double WorkloadModel::execution_time_s(const OperatingPoint& op) const {
  ANTAREX_REQUIRE(op.freq_ghz > 0.0, "WorkloadModel: zero frequency");
  ANTAREX_REQUIRE(cores_used >= 1, "WorkloadModel: cores_used must be >= 1");
  return cpu_gcycles / (op.freq_ghz * static_cast<double>(cores_used)) +
         mem_seconds;
}

double WorkloadModel::memory_boundedness(const OperatingPoint& op) const {
  const double t = execution_time_s(op);
  return t > 0.0 ? mem_seconds / t : 0.0;
}

double energy_j(const DeviceSpec& spec, const Variability& var, double v_nom,
                const WorkloadModel& w, const OperatingPoint& op, double units,
                double temp_c) {
  ANTAREX_REQUIRE(units >= 0.0, "energy_j: negative work");
  const double t = w.execution_time_s(op) * units;
  // During memory stalls the core switches less; blend activity accordingly.
  const double mem_frac = w.memory_boundedness(op);
  const double eff_activity =
      w.activity * (1.0 - mem_frac) + 0.25 * w.activity * mem_frac;
  return PowerModel::total_power_w(spec, var, v_nom, op, eff_activity, temp_c) *
         t;
}

double energy_j(const PowerModel& pm, const WorkloadModel& w,
                const OperatingPoint& op, double units, double temp_c) {
  return energy_j(pm.spec(), pm.variability(), pm.v_nom(), w, op, units,
                  temp_c);
}

NodeEnergyModel::NodeEnergyModel(PowerModel pm, double base_power_w,
                                 double r_th_c_per_w, double ambient_c)
    : pm_(std::move(pm)), base_w_(base_power_w), r_th_(r_th_c_per_w),
      ambient_c_(ambient_c) {
  ANTAREX_REQUIRE(base_w_ >= 0.0 && r_th_ > 0.0,
                  "NodeEnergyModel: invalid parameters");
}

double NodeEnergyModel::steady_temp_c(const OperatingPoint& op,
                                      double activity) const {
  // Fixed point of T = ambient + R_th * P(T); converges fast because the
  // leakage derivative times R_th is well below 1 for sane parameters.
  double t = ambient_c_ + 20.0;
  for (int i = 0; i < 24; ++i)
    t = ambient_c_ + r_th_ * pm_.total_power_w(op, activity, t);
  return t;
}

double NodeEnergyModel::energy_to_solution_j(const WorkloadModel& w,
                                             const OperatingPoint& op,
                                             double units) const {
  const double mem_frac = w.memory_boundedness(op);
  const double act =
      w.activity * (1.0 - mem_frac) + 0.25 * w.activity * mem_frac;
  const double temp = steady_temp_c(op, act);
  const double t = w.execution_time_s(op) * units;
  return (pm_.total_power_w(op, act, temp) + base_w_) * t;
}

std::size_t NodeEnergyModel::optimal_op_index(const WorkloadModel& w) const {
  const auto& pts = pm_.spec().dvfs.points();
  std::size_t best = 0;
  double best_e = energy_to_solution_j(w, pts[0], 1.0);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    const double e = energy_to_solution_j(w, pts[i], 1.0);
    if (e <= best_e) {
      best_e = e;
      best = i;
    }
  }
  return best;
}

}  // namespace antarex::power
