// Discrete harmonic map of a disk-topology triangle mesh to the unit disk
// (paper Sec. III-B).
//
// Boundary vertices are pinned to the unit circle — by hop count (the
// paper's distributed scheme: uniform angular spacing in boundary-walk
// order) or by chord length (ablation option). Interior vertices relax to
// the weighted average of their neighbors. With convex boundary and
// positive weights this is Tutte/Floater: the result is a guaranteed
// embedding (Kneser / Choquet for the smooth case the paper cites).
//
// This is the centralized solver. The interior conditions form one sparse
// linear system shared by both disk coordinates; below
// `multigrid_threshold` interior vertices it is solved exactly by an
// envelope LU (harmonic/direct_solve.h), at or above it by multigrid
// V-cycles (harmonic/multigrid.h), and a stalled multigrid solve falls
// back to the direct one. Both engines give the same bytes at any arena
// thread count. The message-passing equivalent lives in
// distributed_disk_map and is verified against this one in tests.
#pragma once

#include <functional>
#include <vector>

#include "common/status.h"
#include "mesh/triangle_mesh.h"

namespace anr {

/// Interior weighting scheme.
enum class HarmonicWeights {
  kUniform,    ///< plain neighbor average — the paper's scheme
  kMeanValue,  ///< Floater mean-value coordinates (shape-aware ablation)
};

/// Boundary parametrization scheme.
enum class BoundarySpacing {
  kUniformHops,  ///< equal angles per boundary hop — the paper's scheme
  kChordLength,  ///< angles proportional to boundary edge lengths
};

/// Interior solve engine.
enum class HarmonicSolver {
  kAuto,       ///< direct below `multigrid_threshold`, multigrid at or above
  kDirect,     ///< always the envelope LU (harmonic/direct_solve.h)
  kMultigrid,  ///< always the V-cycle solver (harmonic/multigrid.h), with
               ///< the direct solve as its fallback on a stall
};

struct DiskMapOptions {
  HarmonicWeights weights = HarmonicWeights::kUniform;
  BoundarySpacing spacing = BoundarySpacing::kUniformHops;
  double tol = 1e-10;       ///< multigrid: max vertex move of a fine sweep
  double over_relax = 1.7;  ///< multigrid: SOR smoother factor in (0, 2)

  /// Solver selection. kAuto factors the system exactly on small meshes
  /// and switches to multigrid where the envelope factors grow faster
  /// than the V-cycles' work. If multigrid stalls (non-symmetric custom
  /// weights can defeat the Galerkin hierarchy), the direct solve takes
  /// over, so a stall never leaves a half-relaxed map.
  HarmonicSolver solver = HarmonicSolver::kAuto;
  /// Interior-vertex count at which kAuto switches to multigrid.
  int multigrid_threshold = 3000;

  /// When set, overrides `weights`: returns the positive weight of the
  /// directed edge (v, u). Used by the terrain layer to feed 3D
  /// (surface-metric) weights into the same solver.
  std::function<double(const TriangleMesh&, VertexId, VertexId)> custom_weight;
};

struct DiskMap {
  /// Disk position per mesh vertex (boundary on the unit circle).
  std::vector<Vec2> disk_pos;
  /// Per vertex: lies on the (single) boundary loop.
  std::vector<char> on_boundary;
  /// Finest-level smoothing sweeps of the multigrid engine (0 for the
  /// direct solve). The distributed solver reports its relaxation rounds
  /// here.
  int sweeps = 0;
  bool converged = false;
  /// True when the multigrid engine ran (possibly followed by the direct
  /// fallback); false for the direct solve alone.
  bool used_multigrid = false;
  /// V-cycles executed (0 for the direct solve).
  int cycles = 0;
  /// kOk when converged; FailedPrecondition when the direct solve met a
  /// pivot or solution that is not finite (interior positions then stay
  /// at the origin). Callers can propagate it as a typed error.
  Status status;

  /// Fraction of triangles that kept positive orientation in the disk —
  /// 1.0 for a valid embedding.
  double embedding_quality(const TriangleMesh& mesh) const;
};

/// Computes the harmonic map. `mesh` must be vertex-manifold with exactly
/// one boundary loop (fill holes first) and every vertex referenced by a
/// triangle.
DiskMap harmonic_disk_map(const TriangleMesh& mesh,
                          const DiskMapOptions& opt = {});

}  // namespace anr
