// Exact sparse direct solve of the interior harmonic system.
//
// harmonic_disk_map's interior system A x = b (A = diag(W_v) - [w_vu] over
// the interior vertices, b from the pinned boundary) is sparse, planar and
// the same for both disk coordinates, so one factorisation serves x and y.
// The unknowns are ordered by reverse Cuthill–McKee (George–Liu
// pseudo-peripheral start per component, neighbours by degree, ties by
// index), and A is factored as L U on that order's envelope without
// pivoting. A is a nonsingular, weakly diagonally dominant M-matrix for
// any positive weights on a connected mesh with a pinned boundary, so
// elimination keeps every pivot positive; symmetric weights are not
// required (mean-value and surface weights are not symmetric).
//
// Everything is serial and index-ordered, so the result is the same bytes
// at any arena thread count. The factors live only inside the call.
#pragma once

#include <vector>

#include "common/status.h"
#include "geom/vec2.h"

namespace anr {

/// Solves A x = b for Vec2-valued unknowns. A comes in the CSR split form
/// MultigridSolver takes: `adiag[i]` is the diagonal, `aoff[k]` / `acol[k]`
/// for k in [astart[i], astart[i+1]) the off-diagonal entries of row i.
/// `x` is resized to the unknown count and overwritten. Returns
/// FailedPrecondition when a pivot is not finite and positive or the
/// solution is not finite; `x` is then unspecified.
Status direct_solve(const std::vector<int>& astart,
                    const std::vector<int>& acol,
                    const std::vector<double>& aoff,
                    const std::vector<double>& adiag,
                    const std::vector<Vec2>& b, std::vector<Vec2>& x);

}  // namespace anr
