// Use case 1: Computer-accelerated drug discovery (paper Sec. VII-a).
//
// Substitution note (DESIGN.md): the project's production code is LiGen, a
// proprietary de-novo design workflow. This mini-app reproduces the
// computational pattern the paper describes — grid-based rigid docking of
// many ligands where "the verification of each point in the solution space
// requires a widely varying time", making "dynamic load balancing and task
// placement critical".
//
// Pipeline: a receptor pocket is discretized into an affinity grid; each
// ligand is docked by enumerating rigid poses (rotations x translations) and
// scoring them against the grid; per-ligand cost is proportional to
// atoms x poses, with atom counts drawn heavy-tailed.
#pragma once

#include <array>
#include <vector>

#include "support/common.hpp"
#include "support/rng.hpp"

namespace antarex::dock {

struct Atom {
  double x = 0.0, y = 0.0, z = 0.0;
  double radius = 1.5;
  double charge = 0.0;
};

struct Molecule {
  std::vector<Atom> atoms;

  std::array<double, 3> centroid() const;
  /// Translate so the centroid is at the origin.
  void center();
};

/// Scalar affinity field sampled on a regular 3-D grid: negative values are
/// favourable (binding pocket), positive values are clashes.
class AffinityGrid {
 public:
  AffinityGrid(std::size_t nx, std::size_t ny, std::size_t nz, double spacing);

  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }
  std::size_t nz() const { return nz_; }
  double spacing() const { return spacing_; }
  double extent_x() const { return static_cast<double>(nx_ - 1) * spacing_; }
  double extent_y() const { return static_cast<double>(ny_ - 1) * spacing_; }
  double extent_z() const { return static_cast<double>(nz_ - 1) * spacing_; }

  double& at(std::size_t i, std::size_t j, std::size_t k);

  /// Trilinear interpolation; coordinates outside the box cost a steep
  /// out-of-bounds penalty (ligand must stay in the pocket region).
  double sample(double x, double y, double z) const;

  /// Synthesize a pocket: a few attractive spherical wells (binding site)
  /// over a mildly repulsive background, plus hard walls near the faces.
  static AffinityGrid synthetic_pocket(Rng& rng, std::size_t n = 24,
                                       double spacing = 1.0, int wells = 3);

 private:
  std::size_t nx_, ny_, nz_;
  double spacing_;
  std::vector<double> values_;
};

/// Rigid-body pose: ZYX Euler rotation plus translation.
struct Pose {
  double rx = 0.0, ry = 0.0, rz = 0.0;
  double tx = 0.0, ty = 0.0, tz = 0.0;
};

/// Apply a pose to an atom position.
std::array<double, 3> transform(const Pose& pose, const Atom& a);

/// Score = sum over atoms of grid affinity at the transformed position,
/// weighted by atom radius (bigger atoms bury more surface).
double score_pose(const AffinityGrid& grid, const Molecule& mol, const Pose& pose);

struct DockResult {
  double best_score = 0.0;
  Pose best_pose;
  u64 poses_evaluated = 0;
};

struct DockParams {
  int rotations = 24;     ///< sampled orientations per ligand
  int translations = 64;  ///< sampled placements per orientation
};

/// Exhaustively dock one ligand. Deterministic given the rng seed (pose
/// sampling uses its own stream).
DockResult dock_ligand(const AffinityGrid& grid, const Molecule& mol,
                       const DockParams& params, Rng& rng);

struct RefineParams {
  int steps = 400;  ///< annealing steps, cooling 2.0 -> 0.01 (score units)
};

/// Local pose refinement by simulated annealing, starting from `start`
/// (typically the best pose of the global dock_ligand search — LiGen-style
/// two-stage docking). Deterministic given the rng. The result never scores
/// worse than the start.
DockResult refine_pose(const AffinityGrid& grid, const Molecule& mol,
                       const Pose& start, const RefineParams& params, Rng& rng);

/// Random ligand with a heavy-tailed atom count:
/// atoms ~ min_atoms + Pareto(x_m, alpha), clamped to max_atoms.
Molecule random_ligand(Rng& rng, int min_atoms = 8, int max_atoms = 400,
                       double pareto_xm = 6.0, double pareto_alpha = 1.3);

/// Deterministic per-ligand cost estimate in "work units" (atoms x poses);
/// the scheduling simulators consume these.
double ligand_cost_units(const Molecule& mol, const DockParams& params);

// ---------------------------------------------------------------------------
// Load-balancing simulators: distribute per-task costs over P workers.
// ---------------------------------------------------------------------------

struct ScheduleResult {
  double makespan = 0.0;                ///< time until the last worker drains
  std::vector<double> worker_busy;      ///< per-worker busy time
  double imbalance = 0.0;               ///< max busy / mean busy
  u64 steals_or_pulls = 0;              ///< queue interactions (dynamic only)
};

/// Static block partition: task i goes to worker i*P/N (no runtime cost, full
/// exposure to imbalance).
ScheduleResult schedule_static(const std::vector<double>& costs, int workers);

/// Dynamic self-scheduling work queue: free workers pull the next batch of
/// `batch` tasks, paying `pull_overhead` per pull (the autotunable trade-off:
/// small batches balance better but pay more overhead).
ScheduleResult schedule_dynamic(const std::vector<double>& costs, int workers,
                                int batch = 1, double pull_overhead = 0.0);

}  // namespace antarex::dock
