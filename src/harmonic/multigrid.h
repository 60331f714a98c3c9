// Geometric/algebraic multigrid for the interior harmonic system
// (Tutte/Floater relaxation at scale).
//
// harmonic_disk_map relaxes interior vertices toward the weighted average
// of their neighbors; as a linear system that is A x = b with
// A = diag(W_v) - [w_vu] over the interior vertices and b collecting the
// pinned boundary contributions. Plain (S)OR needs O(n) sweeps on a
// diameter-n mesh, and the exact envelope LU (harmonic/direct_solve.h)
// grows its factors faster than n, so large meshes come here. This solver
// builds a coarsening hierarchy once (greedy maximal-independent-set
// C-points in index order, weighted-average prolongation, Galerkin
// triple-product coarse operators) and runs V-cycles whose smoother is a
// multicolor SOR sweep parallelized with `parallel_chunks` — so results
// are byte-identical at any thread count. It has converged when a full
// fine sweep moves no unknown by more than tol.
//
// Everything about the setup is deterministic: C-point selection, coarse
// numbering, and Galerkin assembly are index-ordered and serial; only the
// sweeps and element-wise transfers run on the arena, and those follow the
// fixed-chunk-merge contract from common/task_arena.h.
#pragma once

#include <vector>

#include "geom/vec2.h"

namespace anr {

struct MultigridOptions {
  double tol = 1e-10;       ///< max vertex move of a fine sweep to converge
  double over_relax = 1.7;  ///< SOR factor shared by all levels
  int pre_sweeps = 2;       ///< smoothing sweeps before coarse correction
  int post_sweeps = 2;      ///< smoothing sweeps after coarse correction
  int max_cycles = 100;     ///< V-cycle budget before giving up
  int coarse_size = 200;    ///< stop coarsening at this many unknowns
};

struct MultigridResult {
  int fine_sweeps = 0;  ///< smoothing sweeps executed on the finest level
  int cycles = 0;       ///< V-cycles executed
  bool converged = false;
};

/// Multigrid solver for a fixed sparse operator with Vec2-valued unknowns
/// (the x and y disk coordinates relax through identical weights, so one
/// pass solves both). The operator is handed over in CSR split form:
/// `adiag[i]` is the diagonal, `aoff[k]` / `acol[k]` for
/// k in [astart[i], astart[i+1]) the off-diagonal entries of row i.
/// The off-diagonal pattern must be structurally symmetric (mesh
/// adjacency), values need not be.
class MultigridSolver {
 public:
  MultigridSolver(std::vector<int> astart, std::vector<int> acol,
                  std::vector<double> aoff, std::vector<double> adiag,
                  const MultigridOptions& opt = {});

  /// Number of levels in the hierarchy (>= 1).
  int levels() const { return static_cast<int>(levels_.size()); }

  /// Runs V-cycles from the given initial guess until the post-smoothing
  /// sweep moves every unknown by <= tol, or max_cycles is exhausted.
  /// `x` is updated in place; `b` is the right-hand side.
  MultigridResult solve(std::vector<Vec2>& x, const std::vector<Vec2>& b);

 private:
  struct Level {
    int n = 0;
    std::vector<int> astart, acol;
    std::vector<double> aoff, adiag;
    // Multicolor schedule (greedy, index order) for the SOR smoother.
    int num_colors = 0;
    std::vector<int> class_start, class_verts;
    // Prolongation from the next-coarser level: row f holds the coarse
    // indices/weights interpolating fine unknown f (empty on the coarsest).
    std::vector<int> pstart, pcol;
    std::vector<double> pw;
    // Work vectors.
    std::vector<Vec2> x, b, r;
  };

  static void build_coloring(Level& lv);
  void build_hierarchy(const MultigridOptions& opt);
  /// One multicolor SOR sweep on `lv`; returns the max move.
  double smooth(Level& lv, std::vector<Vec2>& x, const std::vector<Vec2>& b) const;
  void vcycle(std::size_t l);

  MultigridOptions opt_;
  std::vector<Level> levels_;
};

}  // namespace anr
