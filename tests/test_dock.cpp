// Tests for the drug-discovery use case: grid scoring, pose transforms,
// docking search behaviour, heavy-tailed workload generation, and the
// static-vs-dynamic load-balancing simulators.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "dock/dock.hpp"
#include "dock/parallel.hpp"
#include "support/stats.hpp"
#include "support/strings.hpp"

namespace antarex::dock {
namespace {

// --------------------------------------------------------------------------
// Molecule / transforms
// --------------------------------------------------------------------------

TEST(MoleculeTest, CenterMovesCentroidToOrigin) {
  Molecule m;
  m.atoms = {{1, 2, 3, 1.5, 0}, {3, 4, 5, 1.5, 0}};
  m.center();
  const auto c = m.centroid();
  EXPECT_NEAR(c[0], 0.0, 1e-12);
  EXPECT_NEAR(c[1], 0.0, 1e-12);
  EXPECT_NEAR(c[2], 0.0, 1e-12);
}

TEST(Transform, IdentityPoseIsTranslationOnly) {
  Atom a{1.0, 2.0, 3.0, 1.5, 0.0};
  Pose p;
  p.tx = 10;
  p.ty = 20;
  p.tz = 30;
  const auto r = transform(p, a);
  EXPECT_NEAR(r[0], 11.0, 1e-12);
  EXPECT_NEAR(r[1], 22.0, 1e-12);
  EXPECT_NEAR(r[2], 33.0, 1e-12);
}

TEST(Transform, RotationPreservesDistanceFromPivot) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    Atom a{rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5), 1.5, 0};
    Pose p;
    p.rx = rng.uniform(0, 6.28);
    p.ry = rng.uniform(0, 6.28);
    p.rz = rng.uniform(0, 6.28);
    const auto r = transform(p, a);
    const double before = std::sqrt(a.x * a.x + a.y * a.y + a.z * a.z);
    const double after = std::sqrt(r[0] * r[0] + r[1] * r[1] + r[2] * r[2]);
    EXPECT_NEAR(before, after, 1e-9);
  }
}

// --------------------------------------------------------------------------
// AffinityGrid
// --------------------------------------------------------------------------

TEST(Grid, TrilinearInterpolationIsExactOnNodes) {
  AffinityGrid g(4, 4, 4, 2.0);
  g.at(1, 2, 3) = -7.5;
  EXPECT_DOUBLE_EQ(g.sample(2.0, 4.0, 6.0), -7.5);
}

TEST(Grid, InterpolatesBetweenNodes) {
  AffinityGrid g(2, 2, 2, 1.0);
  g.at(0, 0, 0) = 0.0;
  g.at(1, 0, 0) = 10.0;
  EXPECT_NEAR(g.sample(0.25, 0.0, 0.0), 2.5, 1e-12);
  EXPECT_NEAR(g.sample(0.5, 0.0, 0.0), 5.0, 1e-12);
}

TEST(Grid, OutOfBoxIsPenalized) {
  AffinityGrid g(4, 4, 4, 1.0);
  EXPECT_GT(g.sample(-0.5, 1.0, 1.0), 10.0);
  EXPECT_GT(g.sample(1.0, 1.0, 99.0), 10.0);
}

TEST(Grid, NaNCoordinateOnAnyAxisThrows) {
  AffinityGrid g(4, 4, 4, 1.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(g.sample(nan, 1.0, 1.0), Error);
  EXPECT_THROW(g.sample(1.0, nan, 1.0), Error);
  EXPECT_THROW(g.sample(1.0, 1.0, nan), Error);
  // Infinities are ordinary out-of-box points.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_GT(g.sample(inf, 1.0, 1.0), 10.0);
  EXPECT_GT(g.sample(1.0, -inf, 1.0), 10.0);
}

TEST(Grid, SyntheticPocketHasAttractiveWells) {
  Rng rng(11);
  const AffinityGrid g = AffinityGrid::synthetic_pocket(rng, 24, 1.0, 3);
  // Unit spacing: sampling at integer coordinates reads the grid nodes.
  double min_v = 1e300;
  for (std::size_t k = 0; k < g.nz(); ++k)
    for (std::size_t j = 0; j < g.ny(); ++j)
      for (std::size_t i = 0; i < g.nx(); ++i)
        min_v = std::min(min_v, g.sample(static_cast<double>(i),
                                         static_cast<double>(j),
                                         static_cast<double>(k)));
  EXPECT_LT(min_v, -1.0);  // somewhere clearly favourable
  // Walls repel.
  EXPECT_GT(g.sample(0.0, 12.0, 12.0), 1.0);
}

// --------------------------------------------------------------------------
// Docking
// --------------------------------------------------------------------------

class DockTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng grid_rng(2016);
    grid_ = std::make_unique<AffinityGrid>(
        AffinityGrid::synthetic_pocket(grid_rng, 20, 1.0, 2));
  }
  std::unique_ptr<AffinityGrid> grid_;
};

TEST_F(DockTest, NaNPoseThrows) {
  Rng rng(1);
  const Molecule lig = random_ligand(rng, 10, 40);
  Pose pose;
  pose.tx = pose.ty = pose.tz = 9.0;
  pose.ry = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(score_pose(*grid_, lig, pose), Error);
  pose.ry = 0.0;
  pose.tz = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(score_pose(*grid_, lig, pose), Error);
}

TEST_F(DockTest, FindsFavourablePose) {
  Rng rng(1);
  const Molecule lig = random_ligand(rng, 10, 40);
  DockParams params;
  Rng pose_rng(2);
  const DockResult r = dock_ligand(*grid_, lig, params, pose_rng);
  EXPECT_LT(r.best_score, 0.0);  // found a binding pose
  EXPECT_GT(r.poses_evaluated, 0u);
  EXPECT_LE(r.poses_evaluated,
            static_cast<u64>(params.rotations) * params.translations);
}

TEST_F(DockTest, DeterministicGivenSeeds) {
  Rng rng(1);
  const Molecule lig = random_ligand(rng, 10, 40);
  Rng p1(9), p2(9);
  const DockResult a = dock_ligand(*grid_, lig, {}, p1);
  const DockResult b = dock_ligand(*grid_, lig, {}, p2);
  EXPECT_DOUBLE_EQ(a.best_score, b.best_score);
  EXPECT_EQ(a.poses_evaluated, b.poses_evaluated);
}

TEST_F(DockTest, MorePosesNeverWorse) {
  Rng rng(1);
  const Molecule lig = random_ligand(rng, 10, 40);
  DockParams few{8, 16};
  DockParams many{32, 64};
  Rng p1(5), p2(5);
  const double s_few = dock_ligand(*grid_, lig, few, p1).best_score;
  const double s_many = dock_ligand(*grid_, lig, many, p2).best_score;
  EXPECT_LE(s_many, s_few + 1e-9);
}

TEST_F(DockTest, BestScoreIsTheScoreOfTheBestPose) {
  // dock_ligand scores translations of atoms it rotated once per
  // orientation; score_pose rotates per call. They must agree exactly.
  Rng lib(77);
  for (int i = 0; i < 200; ++i) {
    const Molecule lig = random_ligand(lib, 8, 120);
    Rng pose_rng(static_cast<u64>(i));
    const DockResult r = dock_ligand(*grid_, lig, {}, pose_rng);
    EXPECT_EQ(score_pose(*grid_, lig, r.best_pose), r.best_score) << "ligand " << i;
  }
}

TEST_F(DockTest, RefinementNeverWorsensAndUsuallyImproves) {
  Rng rng(1);
  const Molecule lig = random_ligand(rng, 12, 40);
  Rng p1(5);
  const DockResult coarse = dock_ligand(*grid_, lig, {12, 24}, p1);
  Rng p2(6);
  const DockResult refined =
      refine_pose(*grid_, lig, coarse.best_pose, {}, p2);
  EXPECT_LE(refined.best_score, coarse.best_score + 1e-12);
  // With 400 annealing steps the local optimizer should find a clearly
  // better pose than 288 random ones.
  EXPECT_LT(refined.best_score, coarse.best_score - 1e-6);
}

TEST_F(DockTest, RefinementIsDeterministic) {
  Rng rng(1);
  const Molecule lig = random_ligand(rng, 12, 40);
  Pose start;
  start.tx = start.ty = start.tz = 9.0;
  Rng a(7), b(7);
  const DockResult r1 = refine_pose(*grid_, lig, start, {}, a);
  const DockResult r2 = refine_pose(*grid_, lig, start, {}, b);
  EXPECT_DOUBLE_EQ(r1.best_score, r2.best_score);
  EXPECT_EQ(r1.poses_evaluated, r2.poses_evaluated);
}

TEST_F(DockTest, RefinementValidatesParams) {
  Rng rng(1);
  const Molecule lig = random_ligand(rng, 12, 20);
  Pose start;
  RefineParams bad;
  bad.steps = 0;
  EXPECT_THROW(refine_pose(*grid_, lig, start, bad, rng), Error);
}

// --------------------------------------------------------------------------
// Golden fixture: tests/golden/dock_scores.txt was recorded from the
// per-atom scoring kernel that computed the rotation's trig for every atom.
// Every later kernel must reproduce it byte for byte.
// --------------------------------------------------------------------------

void pose_fields(std::string& out, const Pose& p) {
  out += format(" pose=%.17g,%.17g,%.17g,%.17g,%.17g,%.17g", p.rx, p.ry, p.rz,
                p.tx, p.ty, p.tz);
}

/// 48 seeded ligands of 8 to 400 atoms (ligand 0 has exactly 8, the last
/// exactly 400), each on two pockets, one with unit spacing and one with
/// 0.8 (so x / spacing is inexact): dock_ligand's best score, pose count and
/// pose, refine_pose from that pose, and score_pose at fixed poses, two of
/// them partly out of the box and one wholly out of it.
std::string dock_golden() {
  Rng grid_rng(2016);
  std::vector<AffinityGrid> grids;
  grids.push_back(AffinityGrid::synthetic_pocket(grid_rng, 24, 1.0, 3));
  grids.push_back(AffinityGrid::synthetic_pocket(grid_rng, 28, 0.8, 2));

  Rng lib_rng(4242);
  std::string doc;
  for (int i = 0; i < 48; ++i) {
    const int lo = std::min(400, 8 + 9 * i);
    const Molecule mol = random_ligand(lib_rng, lo, i % 4 == 0 ? lo : 400);
    doc += format("ligand %d atoms=%zu\n", i, mol.atoms.size());
    for (std::size_t g = 0; g < grids.size(); ++g) {
      const AffinityGrid& grid = grids[g];
      const double mid = 0.5 * grid.extent_x();
      const Pose fixed[] = {{0.3, 1.1, 2.5, mid, mid, mid},
                            {0.0, 0.0, 0.0, mid, mid, mid},
                            {4.0, 0.7, 5.9, 1.5, mid, grid.extent_z() - 2.0},
                            {1.0, 2.0, 3.0, -50.0, mid, mid}};
      Rng dock_rng(1000 + static_cast<u64>(i));
      const DockResult d = dock_ligand(grid, mol, DockParams{}, dock_rng);
      Rng refine_rng(2000 + static_cast<u64>(i));
      const DockResult r =
          refine_pose(grid, mol, d.best_pose, RefineParams{}, refine_rng);

      doc += format("  grid %zu dock best=%.17g poses=%llu", g, d.best_score,
                    static_cast<unsigned long long>(d.poses_evaluated));
      pose_fields(doc, d.best_pose);
      doc += format("\n  grid %zu refine best=%.17g poses=%llu", g, r.best_score,
                    static_cast<unsigned long long>(r.poses_evaluated));
      pose_fields(doc, r.best_pose);
      doc += format("\n  grid %zu score", g);
      for (const Pose& p : fixed) doc += format(" %.17g", score_pose(grid, mol, p));
      doc += "\n";
    }
  }
  return doc;
}

TEST(DockGolden, ScoresMatchFixture) {
  const std::string path = std::string(ANTAREX_GOLDEN_DIR) + "/dock_scores.txt";
  std::ifstream in(path, std::ios::binary);
  std::ostringstream fixture;
  fixture << in.rdbuf();
  ASSERT_FALSE(fixture.str().empty()) << "missing fixture " << path;
  EXPECT_EQ(dock_golden(), fixture.str());
}

TEST(LigandGen, HeavyTailedSizes) {
  Rng rng(42);
  RunningStats sizes;
  for (int i = 0; i < 3000; ++i)
    sizes.add(static_cast<double>(random_ligand(rng).atoms.size()));
  // Heavy tail: max far beyond the mean; median modest.
  EXPECT_GT(sizes.max(), 5.0 * sizes.mean());
  EXPECT_GE(sizes.min(), 8.0);
  EXPECT_LE(sizes.max(), 400.0);  // clamped
}

TEST(LigandGen, CostUnitsScaleWithAtomsAndPoses) {
  Molecule small;
  small.atoms.resize(10);
  Molecule big;
  big.atoms.resize(100);
  const DockParams p{16, 32};
  EXPECT_NEAR(ligand_cost_units(big, p) / ligand_cost_units(small, p), 10.0, 1e-9);
  const DockParams p2{32, 32};
  EXPECT_NEAR(ligand_cost_units(small, p2) / ligand_cost_units(small, p), 2.0, 1e-9);
}

// --------------------------------------------------------------------------
// Load balancing
// --------------------------------------------------------------------------

std::vector<double> heavy_tailed_costs(std::size_t n, u64 seed = 99) {
  Rng rng(seed);
  std::vector<double> costs;
  costs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) costs.push_back(rng.pareto(1.0, 1.4));
  return costs;
}

TEST(Schedule, StaticConservesWork) {
  const auto costs = heavy_tailed_costs(500);
  const ScheduleResult r = schedule_static(costs, 8);
  double total = 0.0;
  for (double b : r.worker_busy) total += b;
  double expect = 0.0;
  for (double c : costs) expect += c;
  EXPECT_NEAR(total, expect, 1e-9);
  EXPECT_GE(r.imbalance, 1.0);
}

TEST(Schedule, DynamicBeatsStaticOnHeavyTails) {
  // The paper's Sec. VII-a premise: unpredictable task times make dynamic
  // balancing essential.
  const auto costs = heavy_tailed_costs(1000);
  const ScheduleResult stat = schedule_static(costs, 16);
  const ScheduleResult dyn = schedule_dynamic(costs, 16, 1, 0.0);
  EXPECT_LT(dyn.makespan, 0.8 * stat.makespan);
  EXPECT_LT(dyn.imbalance, stat.imbalance);
}

TEST(Schedule, DynamicLowerBoundedByCriticalPath) {
  const auto costs = heavy_tailed_costs(200);
  const ScheduleResult dyn = schedule_dynamic(costs, 8, 1, 0.0);
  double total = 0.0, longest = 0.0;
  for (double c : costs) {
    total += c;
    longest = std::max(longest, c);
  }
  EXPECT_GE(dyn.makespan + 1e-9, total / 8.0);
  EXPECT_GE(dyn.makespan + 1e-9, longest);
}

TEST(Schedule, OverheadMakesTinyBatchesExpensive) {
  // With per-pull overhead, batch=1 pays the most overhead; the optimum
  // batch is interior — exactly the knob the autotuner controls in UC1.
  std::vector<double> costs(2000, 0.01);  // uniform small tasks
  const double overhead = 0.02;
  const ScheduleResult b1 = schedule_dynamic(costs, 8, 1, overhead);
  const ScheduleResult b16 = schedule_dynamic(costs, 8, 16, overhead);
  EXPECT_LT(b16.makespan, b1.makespan);
}

TEST(Schedule, HugeBatchDegeneratesTowardStatic) {
  const auto costs = heavy_tailed_costs(400);
  const ScheduleResult huge = schedule_dynamic(costs, 8, 400, 0.0);
  const ScheduleResult fine = schedule_dynamic(costs, 8, 1, 0.0);
  EXPECT_GT(huge.makespan, fine.makespan);
}

TEST(Schedule, SingleWorkerMakespanIsTotal) {
  const auto costs = heavy_tailed_costs(50);
  double total = 0.0;
  for (double c : costs) total += c;
  EXPECT_NEAR(schedule_static(costs, 1).makespan, total, 1e-9);
  EXPECT_NEAR(schedule_dynamic(costs, 1, 1, 0.0).makespan, total, 1e-9);
}

TEST(Schedule, ValidatesArguments) {
  EXPECT_THROW(schedule_static({1.0}, 0), Error);
  EXPECT_THROW(schedule_dynamic({1.0}, 0), Error);
  EXPECT_THROW(schedule_dynamic({1.0}, 1, 0), Error);
  EXPECT_THROW(schedule_dynamic({1.0}, 1, 1, -0.1), Error);
}

// --------------------------------------------------------------------------
// Measured parallel docking (exec pool)
// --------------------------------------------------------------------------

TEST(ParallelDock, ByteIdenticalToSerialAcrossThreadCounts) {
  Rng rng(2024);
  const AffinityGrid grid = AffinityGrid::synthetic_pocket(rng, 16, 1.0, 2);
  std::vector<Molecule> ligands;
  for (int i = 0; i < 24; ++i) ligands.push_back(random_ligand(rng, 8, 60));
  DockParams params;
  params.rotations = 6;
  params.translations = 12;
  const u64 run_seed = 7;

  const LibraryRunResult serial =
      dock_library_serial(grid, ligands, params, run_seed);
  ASSERT_EQ(serial.results.size(), ligands.size());

  for (int threads : {1, 2, 8}) {
    exec::ThreadPool pool(threads);
    for (int batch : {1, 4}) {
      const LibraryRunResult par =
          run_parallel(pool, grid, ligands, params, run_seed, batch);
      ASSERT_EQ(par.results.size(), serial.results.size());
      for (std::size_t i = 0; i < serial.results.size(); ++i) {
        // Exact equality: the determinism contract, not a tolerance check.
        EXPECT_EQ(par.results[i].best_score, serial.results[i].best_score)
            << "threads=" << threads << " batch=" << batch << " ligand=" << i;
        EXPECT_EQ(par.results[i].poses_evaluated,
                  serial.results[i].poses_evaluated);
        EXPECT_EQ(par.results[i].best_pose.tx, serial.results[i].best_pose.tx);
        EXPECT_EQ(par.results[i].best_pose.rz, serial.results[i].best_pose.rz);
      }
      EXPECT_EQ(par.threads, threads);
      EXPECT_EQ(par.batch, batch);
      EXPECT_EQ(static_cast<int>(par.worker_busy_s.size()), threads);
      EXPECT_GE(par.imbalance, 1.0);
    }
  }
}

TEST(ParallelDock, RejectsNonPositiveBatch) {
  Rng rng(3);
  const AffinityGrid grid = AffinityGrid::synthetic_pocket(rng, 8, 1.0, 1);
  exec::ThreadPool pool(1);
  EXPECT_THROW(run_parallel(pool, grid, {}, DockParams{}, 1, 0), Error);
}

}  // namespace
}  // namespace antarex::dock
