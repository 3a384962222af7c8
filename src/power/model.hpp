// CMOS power model, per-instance manufacturing variability, and the
// frequency-dependent execution-time model.
//
// Together these reproduce the physics behind the paper's Sec. V claims:
//  - "different instances of the same nominal component execute the same
//     application with 15% of variation in the energy-consumption"
//  - "optimal selection of operating points can save from 18% to 50% of node
//     energy with respect to the default frequency selection of the Linux OS
//     power governor"
#pragma once

#include "power/dvfs.hpp"
#include "support/rng.hpp"

namespace antarex::power {

/// Per-instance silicon variability: multipliers on leakage and switched
/// capacitance drawn at "manufacturing time". Sampled lognormally so the
/// distribution is positive and right-skewed like real process variation.
struct Variability {
  double leak_mult = 1.0;
  double ceff_mult = 1.0;

  /// sigma is the lognormal shape parameter; leakage varies ~3x more than
  /// dynamic capacitance, matching silicon measurements (leakage is
  /// exponential in threshold-voltage variation).
  static Variability sample(Rng& rng, double sigma);
};

/// Analytic device power model:
///   P_dyn    = C_eff * V^2 * f * activity
///   P_static = leak_ref * (V / V_nom) * exp(k * (T - 50C))
class PowerModel {
 public:
  explicit PowerModel(DeviceSpec spec, Variability var = {});

  double total_power_w(const OperatingPoint& op, double activity,
                       double temp_c) const;

  /// Stateless cores of the instance method above. The SoA cluster engine
  /// (rtrm::ShardedCluster) evaluates these directly from its flat arrays;
  /// the instance method delegates here, so both execute the same machine
  /// code.
  static double dynamic_power_w(const DeviceSpec& spec, const Variability& var,
                                const OperatingPoint& op, double activity);
  static double static_power_w(const DeviceSpec& spec, const Variability& var,
                               double v_nom, const OperatingPoint& op,
                               double temp_c);
  static double total_power_w(const DeviceSpec& spec, const Variability& var,
                              double v_nom, const OperatingPoint& op,
                              double activity, double temp_c);
  static double idle_power_w(const DeviceSpec& spec, const Variability& var,
                             double v_nom, const OperatingPoint& op,
                             double temp_c);

  const DeviceSpec& spec() const { return spec_; }
  const Variability& variability() const { return var_; }
  double v_nom() const { return v_nom_; }

 private:
  DeviceSpec spec_;
  Variability var_;
  double v_nom_;  ///< highest-P-state voltage, reference for leakage scaling
};

/// Frequency-dependent execution time of a work unit:
///   t(f) = cpu_cycles / (f * cores_used) + mem_seconds
/// cpu_cycles scale with frequency; memory stalls do not — the split is what
/// makes low-frequency operation profitable for memory-bound codes.
struct WorkloadModel {
  double cpu_gcycles = 1.0;   ///< giga-cycles of compute per unit of work
  double mem_seconds = 0.0;   ///< frequency-invariant stall time per unit
  double activity = 0.9;      ///< switching activity while running
  int cores_used = 1;

  double execution_time_s(const OperatingPoint& op) const;

  /// Fraction of time stalled on memory at the given frequency (0..1).
  double memory_boundedness(const OperatingPoint& op) const;
};

/// Energy to run `units` of a workload at a fixed operating point and
/// temperature (temperature feedback is handled by the plant; this is the
/// building block).
double energy_j(const PowerModel& pm, const WorkloadModel& w,
                const OperatingPoint& op, double units, double temp_c);

/// Stateless form of energy_j for callers that keep (spec, variability)
/// out-of-line instead of owning a PowerModel (the SoA cluster engine).
/// The PowerModel overload delegates here.
double energy_j(const DeviceSpec& spec, const Variability& var, double v_nom,
                const WorkloadModel& w, const OperatingPoint& op, double units,
                double temp_c);

/// Node-level energy-to-solution: device power with leakage at the
/// *steady-state* temperature of each operating point (hot at high
/// frequency, cool at low — the thermal feedback that gives compute-bound
/// codes an interior energy optimum) plus node base power (board, memory,
/// NIC) drawn for the whole runtime.
///
/// This is the quantity behind the paper's "18% to 50% of node energy"
/// claim: the optimum of this curve vs its value at the highest P-state
/// (where a busy ondemand governor sits).
class NodeEnergyModel {
 public:
  NodeEnergyModel(PowerModel pm, double base_power_w = 30.0,
                  double r_th_c_per_w = 0.30, double ambient_c = 22.0);

  double steady_temp_c(const OperatingPoint& op, double activity) const;
  double energy_to_solution_j(const WorkloadModel& w, const OperatingPoint& op,
                              double units) const;
  /// P-state index minimizing energy-to-solution.
  std::size_t optimal_op_index(const WorkloadModel& w) const;

  const PowerModel& power_model() const { return pm_; }
  double base_power_w() const { return base_w_; }

 private:
  PowerModel pm_;
  double base_w_;
  double r_th_;
  double ambient_c_;
};

}  // namespace antarex::power
