#include "dock/dock.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

namespace antarex::dock {

std::array<double, 3> Molecule::centroid() const {
  ANTAREX_REQUIRE(!atoms.empty(), "Molecule: no atoms");
  double cx = 0, cy = 0, cz = 0;
  for (const auto& a : atoms) {
    cx += a.x;
    cy += a.y;
    cz += a.z;
  }
  const double n = static_cast<double>(atoms.size());
  return {cx / n, cy / n, cz / n};
}

void Molecule::center() {
  const auto c = centroid();
  for (auto& a : atoms) {
    a.x -= c[0];
    a.y -= c[1];
    a.z -= c[2];
  }
}

AffinityGrid::AffinityGrid(std::size_t nx, std::size_t ny, std::size_t nz,
                           double spacing)
    : nx_(nx), ny_(ny), nz_(nz), spacing_(spacing),
      values_(nx * ny * nz, 0.0) {
  ANTAREX_REQUIRE(nx >= 2 && ny >= 2 && nz >= 2, "AffinityGrid: too small");
  ANTAREX_REQUIRE(spacing > 0.0, "AffinityGrid: non-positive spacing");
}

double& AffinityGrid::at(std::size_t i, std::size_t j, std::size_t k) {
  ANTAREX_REQUIRE(i < nx_ && j < ny_ && k < nz_, "AffinityGrid: index out of range");
  return values_[(k * ny_ + j) * nx_ + i];
}

double AffinityGrid::sample(double x, double y, double z) const {
  constexpr double kOutOfBoxPenalty = 50.0;
  const double fx = x / spacing_;
  const double fy = y / spacing_;
  const double fz = z / spacing_;
  // Written as "not inside" so that a NaN, which fails every comparison,
  // lands here instead of in the index casts below.
  if (!(fx >= 0.0 && fy >= 0.0 && fz >= 0.0 &&
        fx <= static_cast<double>(nx_ - 1) && fy <= static_cast<double>(ny_ - 1) &&
        fz <= static_cast<double>(nz_ - 1))) {
    ANTAREX_REQUIRE(!std::isnan(fx) && !std::isnan(fy) && !std::isnan(fz),
                    "AffinityGrid::sample: NaN coordinate");
    return kOutOfBoxPenalty;
  }

  // The box test bounds every index, so the corners are read directly. The
  // casts go through i64: x86-64 converts signed integers in one instruction
  // and unsigned ones in a branchy sequence, and in range both agree.
  const auto i0 = static_cast<i64>(fx);
  const auto j0 = static_cast<i64>(fy);
  const auto k0 = static_cast<i64>(fz);
  const i64 i1 = std::min(i0 + 1, static_cast<i64>(nx_ - 1));
  const i64 j1 = std::min(j0 + 1, static_cast<i64>(ny_ - 1));
  const i64 k1 = std::min(k0 + 1, static_cast<i64>(nz_ - 1));
  const double dx = fx - static_cast<double>(i0);
  const double dy = fy - static_cast<double>(j0);
  const double dz = fz - static_cast<double>(k0);

  const double* v = values_.data();
  const auto nx = static_cast<i64>(nx_);
  const auto ny = static_cast<i64>(ny_);
  auto val = [&](i64 i, i64 j, i64 k) { return v[(k * ny + j) * nx + i]; };
  auto lerp = [](double a, double b, double t) { return a + (b - a) * t; };
  const double c00 = lerp(val(i0, j0, k0), val(i1, j0, k0), dx);
  const double c10 = lerp(val(i0, j1, k0), val(i1, j1, k0), dx);
  const double c01 = lerp(val(i0, j0, k1), val(i1, j0, k1), dx);
  const double c11 = lerp(val(i0, j1, k1), val(i1, j1, k1), dx);
  return lerp(lerp(c00, c10, dy), lerp(c01, c11, dy), dz);
}

AffinityGrid AffinityGrid::synthetic_pocket(Rng& rng, std::size_t n,
                                            double spacing, int wells) {
  AffinityGrid g(n, n, n, spacing);
  const double ext = g.extent_x();

  struct Well {
    double x, y, z, depth, sigma;
  };
  std::vector<Well> ws;
  for (int w = 0; w < wells; ++w) {
    ws.push_back({rng.uniform(0.3 * ext, 0.7 * ext),
                  rng.uniform(0.3 * ext, 0.7 * ext),
                  rng.uniform(0.3 * ext, 0.7 * ext),
                  rng.uniform(2.0, 5.0),
                  rng.uniform(0.1 * ext, 0.2 * ext)});
  }

  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = 0; i < n; ++i) {
        const double x = static_cast<double>(i) * spacing;
        const double y = static_cast<double>(j) * spacing;
        const double z = static_cast<double>(k) * spacing;
        double v = 0.15;  // mildly unfavourable background
        for (const auto& w : ws) {
          const double d2 = (x - w.x) * (x - w.x) + (y - w.y) * (y - w.y) +
                            (z - w.z) * (z - w.z);
          v -= w.depth * std::exp(-d2 / (2.0 * w.sigma * w.sigma));
        }
        // Hard walls near the faces (receptor surface).
        const double edge = std::min({x, y, z, ext - x, ext - y, ext - z});
        if (edge < 1.5 * spacing) v += 8.0 * (1.5 * spacing - edge);
        g.at(i, j, k) = v;
      }
    }
  }
  return g;
}

namespace {

/// Early termination: a translation scan stops when its running score exceeds
/// this fraction of the best; models the unpredictable per-ligand time (score
/// landscapes differ between ligands).
constexpr double kPruneThreshold = 0.25;
/// refine_pose's annealing schedule (score units) and proposal steps.
constexpr double kRefineTStart = 2.0;
constexpr double kRefineTEnd = 0.01;
constexpr double kMaxTranslate = 1.0;  ///< grid units
constexpr double kMaxRotate = 0.35;    ///< radians

/// A pose's ZYX Euler rotation with its six cosines and sines computed once,
/// so scoring a pose costs six trig calls rather than six per atom.
struct Rotation {
  double cx, sx, cy, sy, cz, sz;

  explicit Rotation(const Pose& pose)
      : cx(std::cos(pose.rx)),
        sx(std::sin(pose.rx)),
        cy(std::cos(pose.ry)),
        sy(std::sin(pose.ry)),
        cz(std::cos(pose.rz)),
        sz(std::sin(pose.rz)) {}

  /// Rz * Ry * Rx applied to (x, y, z); the caller adds the translation.
  std::array<double, 3> apply(const Atom& a) const {
    const double x1 = a.x;
    const double y1 = a.y * cx - a.z * sx;
    const double z1 = a.y * sx + a.z * cx;

    const double x2 = x1 * cy + z1 * sy;
    const double y2 = y1;
    const double z2 = -x1 * sy + z1 * cy;

    const double x3 = x2 * cz - y2 * sz;
    const double y3 = x2 * sz + y2 * cz;
    return {x3, y3, z2};
  }
};

/// A ligand's atoms under one rotation, stored structure-of-arrays. Every
/// translation of that orientation then costs three adds and one grid sample
/// per atom. Each docking call owns its own, so pool workers share nothing.
class RotatedLigand {
 public:
  explicit RotatedLigand(const Molecule& mol)
      : mol_(mol),
        x_(mol.atoms.size()),
        y_(mol.atoms.size()),
        z_(mol.atoms.size()) {}

  void rotate(const Pose& pose) {
    const Rotation rot(pose);
    for (std::size_t i = 0; i < mol_.atoms.size(); ++i) {
      const auto p = rot.apply(mol_.atoms[i]);
      x_[i] = p[0];
      y_[i] = p[1];
      z_[i] = p[2];
    }
  }

  /// score_pose for the last rotated orientation translated by `pose`.
  double score(const AffinityGrid& grid, const Pose& pose) const {
    double s = 0.0;
    for (std::size_t i = 0; i < x_.size(); ++i)
      s += grid.sample(x_[i] + pose.tx, y_[i] + pose.ty, z_[i] + pose.tz) *
           mol_.atoms[i].radius;
    return s;
  }

  void swap(RotatedLigand& other) {
    x_.swap(other.x_);
    y_.swap(other.y_);
    z_.swap(other.z_);
  }

 private:
  const Molecule& mol_;
  std::vector<double> x_, y_, z_;
};

}  // namespace

std::array<double, 3> transform(const Pose& pose, const Atom& a) {
  const auto p = Rotation(pose).apply(a);
  return {p[0] + pose.tx, p[1] + pose.ty, p[2] + pose.tz};
}

double score_pose(const AffinityGrid& grid, const Molecule& mol, const Pose& pose) {
  const Rotation rot(pose);
  double s = 0.0;
  for (const auto& atom : mol.atoms) {
    const auto p = rot.apply(atom);
    s += grid.sample(p[0] + pose.tx, p[1] + pose.ty, p[2] + pose.tz) * atom.radius;
  }
  return s;
}

DockResult dock_ligand(const AffinityGrid& grid, const Molecule& mol,
                       const DockParams& params, Rng& rng) {
  ANTAREX_REQUIRE(params.rotations >= 1 && params.translations >= 1,
                  "dock_ligand: need at least one pose");
  DockResult result;
  result.best_score = 1e300;

  const double ext = grid.extent_x();
  RotatedLigand rotated(mol);
  for (int r = 0; r < params.rotations; ++r) {
    Pose pose;
    pose.rx = rng.uniform(0.0, 6.283185307);
    pose.ry = rng.uniform(0.0, 6.283185307);
    pose.rz = rng.uniform(0.0, 6.283185307);
    rotated.rotate(pose);
    for (int t = 0; t < params.translations; ++t) {
      pose.tx = rng.uniform(0.2 * ext, 0.8 * ext);
      pose.ty = rng.uniform(0.2 * ext, 0.8 * ext);
      pose.tz = rng.uniform(0.2 * ext, 0.8 * ext);
      const double s = rotated.score(grid, pose);
      ++result.poses_evaluated;
      if (s < result.best_score) {
        result.best_score = s;
        result.best_pose = pose;
      } else if (result.best_score < 0.0 &&
                 s > kPruneThreshold * result.best_score) {
        // Landscape around this orientation is poor; skip to the next
        // orientation once the best found here is far off the incumbent.
        break;
      }
    }
  }
  return result;
}

DockResult refine_pose(const AffinityGrid& grid, const Molecule& mol,
                       const Pose& start, const RefineParams& params, Rng& rng) {
  ANTAREX_REQUIRE(params.steps >= 1, "refine_pose: need at least one step");

  DockResult result;
  Pose current = start;
  // `current_atoms` holds the current orientation; a rotation proposal is
  // rotated into `proposed_atoms`, and the two swap when it is accepted.
  RotatedLigand current_atoms(mol);
  RotatedLigand proposed_atoms(mol);
  current_atoms.rotate(current);
  double current_score = current_atoms.score(grid, current);
  result.best_pose = current;
  result.best_score = current_score;

  const double cooling = std::pow(kRefineTEnd / kRefineTStart, 1.0 / params.steps);
  double temperature = kRefineTStart;

  for (int step = 0; step < params.steps; ++step) {
    Pose proposal = current;
    // Perturb one degree of freedom at a time (better acceptance at low T).
    const i64 move = rng.uniform_int(0, 5);
    switch (move) {
      case 0: proposal.tx += rng.uniform(-kMaxTranslate, kMaxTranslate); break;
      case 1: proposal.ty += rng.uniform(-kMaxTranslate, kMaxTranslate); break;
      case 2: proposal.tz += rng.uniform(-kMaxTranslate, kMaxTranslate); break;
      case 3: proposal.rx += rng.uniform(-kMaxRotate, kMaxRotate); break;
      case 4: proposal.ry += rng.uniform(-kMaxRotate, kMaxRotate); break;
      default: proposal.rz += rng.uniform(-kMaxRotate, kMaxRotate); break;
    }
    const bool rotates = move >= 3;
    if (rotates) proposed_atoms.rotate(proposal);
    const double s = (rotates ? proposed_atoms : current_atoms).score(grid, proposal);
    ++result.poses_evaluated;
    const double delta = s - current_score;
    if (delta <= 0.0 || rng.bernoulli(std::exp(-delta / temperature))) {
      current = proposal;
      current_score = s;
      if (rotates) current_atoms.swap(proposed_atoms);
      if (s < result.best_score) {
        result.best_score = s;
        result.best_pose = proposal;
      }
    }
    temperature *= cooling;
  }
  return result;
}

Molecule random_ligand(Rng& rng, int min_atoms, int max_atoms, double pareto_xm,
                       double pareto_alpha) {
  ANTAREX_REQUIRE(min_atoms >= 1 && max_atoms >= min_atoms,
                  "random_ligand: bad atom bounds");
  const double tail = rng.pareto(pareto_xm, pareto_alpha);
  const int n = std::min(max_atoms, min_atoms + static_cast<int>(tail));

  Molecule m;
  m.atoms.reserve(static_cast<std::size_t>(n));
  // Random self-avoiding-ish blob: chain of atoms at bonded distance.
  double x = 0, y = 0, z = 0;
  for (int i = 0; i < n; ++i) {
    Atom a;
    a.x = x;
    a.y = y;
    a.z = z;
    a.radius = rng.uniform(1.2, 1.9);
    a.charge = rng.uniform(-0.5, 0.5);
    m.atoms.push_back(a);
    const double theta = rng.uniform(0.0, 6.283185307);
    const double phi = std::acos(rng.uniform(-1.0, 1.0));
    const double bond = 1.5;
    x += bond * std::sin(phi) * std::cos(theta);
    y += bond * std::sin(phi) * std::sin(theta);
    z += bond * std::cos(phi);
  }
  m.center();
  return m;
}

double ligand_cost_units(const Molecule& mol, const DockParams& params) {
  return static_cast<double>(mol.atoms.size()) *
         static_cast<double>(params.rotations) *
         static_cast<double>(params.translations) * 1e-4;
}

ScheduleResult schedule_static(const std::vector<double>& costs, int workers) {
  ANTAREX_REQUIRE(workers >= 1, "schedule_static: need at least one worker");
  ScheduleResult r;
  r.worker_busy.assign(static_cast<std::size_t>(workers), 0.0);
  const std::size_t n = costs.size();
  for (std::size_t i = 0; i < n; ++i) {
    const auto w = static_cast<std::size_t>(
        (i * static_cast<std::size_t>(workers)) / std::max<std::size_t>(n, 1));
    r.worker_busy[std::min(w, r.worker_busy.size() - 1)] += costs[i];
  }
  double total = 0.0;
  for (double b : r.worker_busy) {
    r.makespan = std::max(r.makespan, b);
    total += b;
  }
  const double mean = total / static_cast<double>(workers);
  r.imbalance = mean > 0.0 ? r.makespan / mean : 1.0;
  return r;
}

ScheduleResult schedule_dynamic(const std::vector<double>& costs, int workers,
                                int batch, double pull_overhead) {
  ANTAREX_REQUIRE(workers >= 1, "schedule_dynamic: need at least one worker");
  ANTAREX_REQUIRE(batch >= 1, "schedule_dynamic: batch must be >= 1");
  ANTAREX_REQUIRE(pull_overhead >= 0.0, "schedule_dynamic: negative overhead");

  ScheduleResult r;
  r.worker_busy.assign(static_cast<std::size_t>(workers), 0.0);

  // Event-driven: the worker with the earliest finish time pulls next.
  using Slot = std::pair<double, std::size_t>;  // (available_at, worker)
  std::priority_queue<Slot, std::vector<Slot>, std::greater<>> free_at;
  for (std::size_t w = 0; w < static_cast<std::size_t>(workers); ++w)
    free_at.push({0.0, w});

  std::size_t next_task = 0;
  while (next_task < costs.size()) {
    auto [t, w] = free_at.top();
    free_at.pop();
    double chunk = pull_overhead;
    for (int b = 0; b < batch && next_task < costs.size(); ++b)
      chunk += costs[next_task++];
    ++r.steals_or_pulls;
    r.worker_busy[w] += chunk;
    free_at.push({t + chunk, w});
  }
  double total = 0.0;
  while (!free_at.empty()) {
    r.makespan = std::max(r.makespan, free_at.top().first);
    free_at.pop();
  }
  for (double b : r.worker_busy) total += b;
  const double mean = total / static_cast<double>(workers);
  r.imbalance = mean > 0.0 ? r.makespan / mean : 1.0;
  return r;
}

}  // namespace antarex::dock
