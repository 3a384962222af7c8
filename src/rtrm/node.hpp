// A compute node: a set of heterogeneous devices plus node-level overhead
// power (memory, NIC, fans, VRs).
//
// A node can crash (antarex::fault injects Weibull-MTBF failures): while
// failed it draws no power, makes no progress, and its devices cool toward
// ambient; fail() hands the interrupted jobs back for rescheduling.
#pragma once

#include <utility>
#include <vector>

#include "power/rapl.hpp"
#include "rtrm/device.hpp"

namespace antarex::rtrm {

class Node {
 public:
  Node(std::string name, double base_power_w = 60.0);

  const std::string& name() const { return name_; }

  Device& add_device(Device d);
  std::size_t device_count() const { return devices_.size(); }
  Device& device(std::size_t i);
  const Device& device(std::size_t i) const;
  std::vector<Device>& devices() { return devices_; }
  const std::vector<Device>& devices() const { return devices_; }

  /// Advance all devices; returns ids of jobs that completed in this step.
  std::vector<u64> step(double dt_s, double ambient_c);

  /// Instantaneous node power (devices + base).
  double power_w() const;
  double base_power_w() const { return base_power_w_; }

  /// Node-level energy counter (sum of device RAPL + base overhead).
  const power::RaplDomain& rapl() const { return rapl_; }
  /// Mutable counter access for sensor-glitch injection (antarex::fault).
  power::RaplDomain& rapl() { return rapl_; }

  // --- failure state --------------------------------------------------------
  /// Crash the node: every running job is interrupted and returned as
  /// (job id, units unfinished) for the dispatcher to reschedule. Idempotent
  /// (a second fail() on a downed node returns nothing).
  std::vector<std::pair<u64, double>> fail();
  void repair();
  bool failed() const { return failed_; }
  u64 crashes() const { return crashes_; }
  double downtime_s() const { return downtime_s_; }

 private:
  std::string name_;
  double base_power_w_;
  std::vector<Device> devices_;
  power::RaplDomain rapl_;
  bool failed_ = false;
  u64 crashes_ = 0;
  double downtime_s_ = 0.0;
};

}  // namespace antarex::rtrm
