#include "mesh/delaunay.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/check.h"
#include "geom/polygon.h"
#include "geom/predicates.h"

namespace anr {

namespace {

// Below this size insertions follow input order; above it a serpentine
// grid sort makes consecutive insertions spatial neighbors, so the
// walk-based point location stays O(1) expected per insert.
constexpr int kSpatialSortMin = 2048;

// Internal triangle record. Triangles touching the three synthetic "super"
// vertices are tested symbolically (super vertices act as points at
// infinity, CGAL-style); finite triangles cache their circumcircle.
struct TriRec {
  Tri t;            // CCW in the (jittered) working coordinates
  // nb[k]: the alive triangle across edge (t[k], t[k+1]), -1 on the hull of
  // the super triangle. Valid while this triangle is alive.
  std::array<int, 3> nb{-1, -1, -1};
  int supers = 0;   // how many vertices are super vertices
  Vec2 cc;          // circumcenter (finite triangles only)
  double r2 = 0.0;  // squared circumradius (finite triangles only)
  bool alive = true;
};

// Slot k of `t` whose edge (t[k], t[k+1]) joins a and b, either way round.
int edge_slot(const Tri& t, VertexId a, VertexId b) {
  for (int k = 0; k < 3; ++k) {
    VertexId u = t[static_cast<std::size_t>(k)];
    VertexId v = t[static_cast<std::size_t>((k + 1) % 3)];
    if ((u == a && v == b) || (u == b && v == a)) return k;
  }
  ANR_CHECK_MSG(false, "triangle does not have the edge");
  return -1;
}

// One cavity boundary edge and the alive triangle outside it (-1 on the
// hull of the super triangle).
struct CavityEdge {
  EdgeKey e;
  int outside;
};

class Builder {
 public:
  explicit Builder(const std::vector<Vec2>& pts) : input_(pts) {
    const std::size_t n = pts.size();
    BBox bb;
    for (Vec2 p : pts) bb.expand(p);
    span_ = std::max({bb.width(), bb.height(), 1.0});
    lo_ = bb.lo;
    Vec2 c = bb.center();

    // Symbolic-perturbation jitter: work on deterministically perturbed
    // copies so exactly collinear / cocircular inputs (densified polygon
    // edges, perfect lattices) never produce degenerate fills. Magnitude
    // ~1e-6 of the data span — geometrically negligible (sub-millimeter at
    // FoI scale) but large enough that transient triangles over near-
    // collinear chains keep well-conditioned circumcircles (circumradius
    // scales as L^2 / jitter). Output triangles reference the original
    // coordinates.
    work_ = pts;
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (std::size_t i = 0; i < n; ++i) {
      h ^= (i + 1) * 0xbf58476d1ce4e5b9ull;
      h ^= h >> 31;
      double jx = static_cast<double>(h & 0xffff) / 65535.0 - 0.5;
      h *= 0x94d049bb133111ebull;
      h ^= h >> 29;
      double jy = static_cast<double>(h & 0xffff) / 65535.0 - 0.5;
      work_[i] += Vec2{jx, jy} * (2e-6 * span_);
    }

    s0_ = static_cast<int>(n);
    work_.push_back(c + Vec2{-2.0 * span_, -1.5 * span_});
    work_.push_back(c + Vec2{2.0 * span_, -1.5 * span_});
    work_.push_back(c + Vec2{0.0, 2.5 * span_});

    // Location hint grid over the input bounding box: each cell remembers
    // the most recent finite triangle whose centroid landed in it, seeding
    // the adjacency walk near the query point.
    side_ = std::max(1, static_cast<int>(std::sqrt(static_cast<double>(n) / 2.0)));
    hint_.assign(static_cast<std::size_t>(side_) * static_cast<std::size_t>(side_), -1);

    // Serpentine insertion of a 4096-robot lattice creates about 10
    // triangles per point; pages of the reserve left unused are never
    // touched.
    tris_.reserve(12 * n + 16);
    const std::size_t nv = n + 3;
    vgen_.assign(nv, 0);
    vdeg_.assign(nv, 0);
    spoke_gen_.assign(nv, 0);
    spoke_slot_.assign(nv, -1);
    add_tri(Tri{s0_, s0_ + 1, s0_ + 2});
  }

  TriangleMesh run() {
    std::vector<int> order(static_cast<std::size_t>(s0_));
    if (s0_ >= kSpatialSortMin) {
      // Serpentine (boustrophedon) cell order: row-major over coarse grid
      // cells, alternating column direction per row, input index as the
      // tie-break. Keeps consecutive insertions spatially adjacent. Each
      // point's (cell rank, index) is packed into one sort key.
      const int cols = std::max(1, static_cast<int>(
          std::sqrt(static_cast<double>(s0_) / 4.0)));
      const double cell = span_ / static_cast<double>(cols);
      std::vector<std::uint64_t> keys(order.size());
      for (std::size_t i = 0; i < keys.size(); ++i) {
        const Vec2 p = work_[i];
        const int y = std::clamp(static_cast<int>((p.y - lo_.y) / cell), 0, cols - 1);
        int x = std::clamp(static_cast<int>((p.x - lo_.x) / cell), 0, cols - 1);
        if ((y & 1) != 0) x = cols - 1 - x;
        const auto rank = static_cast<std::uint64_t>(y) * static_cast<std::uint64_t>(cols) +
                          static_cast<std::uint64_t>(x);
        keys[i] = (rank << 32) | i;
      }
      std::sort(keys.begin(), keys.end());
      for (std::size_t i = 0; i < keys.size(); ++i) {
        order[i] = static_cast<int>(keys[i] & 0xffffffffu);
      }
    } else {
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
    }
    for (int pi : order) {
      insert(pi);
    }
    std::vector<Tri> out;
    for (const TriRec& tr : tris_) {
      if (tr.alive && tr.supers == 0) out.push_back(tr.t);
    }
    TriangleMesh mesh(input_, std::move(out));
    mesh.make_ccw();
    return mesh;
  }

 private:
  bool is_super(int v) const { return v >= s0_; }

  int add_tri(Tri t) {
    TriRec tr;
    // Orient CCW in working coordinates (well-conditioned: super vertices
    // are only ~2.5 spans away, and symbolic tests never use their
    // circumcircles).
    if (signed_area2(work_[static_cast<std::size_t>(t[0])],
                     work_[static_cast<std::size_t>(t[1])],
                     work_[static_cast<std::size_t>(t[2])]) < 0.0) {
      std::swap(t[1], t[2]);
    }
    tr.t = t;
    for (int v : t) {
      if (is_super(v)) ++tr.supers;
    }
    if (tr.supers == 0) {
      Vec2 a = work_[static_cast<std::size_t>(t[0])];
      Vec2 b = work_[static_cast<std::size_t>(t[1])];
      Vec2 c = work_[static_cast<std::size_t>(t[2])];
      tr.cc = circumcenter(a, b, c);
      tr.r2 = distance2(tr.cc, a);
    }
    int ti = static_cast<int>(tris_.size());
    tris_.push_back(tr);
    last_tri_ = ti;
    if (tr.supers == 0) {
      Vec2 centroid = (work_[static_cast<std::size_t>(t[0])] +
                       work_[static_cast<std::size_t>(t[1])] +
                       work_[static_cast<std::size_t>(t[2])]) *
                      (1.0 / 3.0);
      hint_[hint_cell(centroid)] = ti;
    }
    return ti;
  }

  std::size_t hint_cell(Vec2 p) const {
    double cell = span_ / static_cast<double>(side_);
    int cx = std::clamp(static_cast<int>((p.x - lo_.x) / cell), 0, side_ - 1);
    int cy = std::clamp(static_cast<int>((p.y - lo_.y) / cell), 0, side_ - 1);
    return static_cast<std::size_t>(cy) * static_cast<std::size_t>(side_) +
           static_cast<std::size_t>(cx);
  }

  // Conflict ("p inside circumcircle") test with super vertices treated as
  // points at infinity:
  //  - 0 supers: ordinary circumcircle test (inside-biased for borderline).
  //  - 1 super (u, v real, CCW (u,v,s)): the limit circle is the half-plane
  //    strictly left of u->v.
  //  - 2 supers (u real, A, B super): the limit circle is the half-plane
  //    through u bounded by the line parallel to A->B, on A/B's side.
  //  - 3 supers: the initial triangle, contains every input point.
  bool in_conflict(const TriRec& tr, Vec2 p) const {
    switch (tr.supers) {
      case 0:
        return distance2(p, tr.cc) <= tr.r2 * (1.0 + 1e-12);
      case 1: {
        int k = 0;
        while (!is_super(tr.t[static_cast<std::size_t>(k)])) ++k;
        Vec2 u = work_[static_cast<std::size_t>(tr.t[static_cast<std::size_t>((k + 1) % 3)])];
        Vec2 v = work_[static_cast<std::size_t>(tr.t[static_cast<std::size_t>((k + 2) % 3)])];
        return signed_area2(u, v, p) >= 0.0;
      }
      case 2: {
        int k = 0;
        while (is_super(tr.t[static_cast<std::size_t>(k)])) ++k;
        Vec2 u = work_[static_cast<std::size_t>(tr.t[static_cast<std::size_t>(k)])];
        Vec2 a = work_[static_cast<std::size_t>(tr.t[static_cast<std::size_t>((k + 1) % 3)])];
        Vec2 b = work_[static_cast<std::size_t>(tr.t[static_cast<std::size_t>((k + 2) % 3)])];
        Vec2 d = b - a;
        double side_p = d.cross(p - u);
        double side_far = d.cross(a - u);
        return side_p * side_far >= 0.0;
      }
      default:
        return true;
    }
  }

  bool triangle_contains(const TriRec& tr, Vec2 p) const {
    return point_in_triangle(p, work_[static_cast<std::size_t>(tr.t[0])],
                             work_[static_cast<std::size_t>(tr.t[1])],
                             work_[static_cast<std::size_t>(tr.t[2])]);
  }

  // Straight walk from `start` toward p: repeatedly step across an edge
  // whose supporting line separates the current triangle from p. Super
  // vertices have concrete far coordinates, so the walk is uniform over the
  // whole (super-)triangulation. Returns a triangle containing p, or -1 if
  // the step limit trips (epsilon cycling on degenerate inputs) — callers
  // fall back to the exhaustive scan.
  int locate_walk(Vec2 p, int start) const {
    int cur = start;
    const int limit =
        96 + 4 * static_cast<int>(std::sqrt(static_cast<double>(tris_.size())));
    for (int step = 0; step < limit; ++step) {
      const TriRec& tr = tris_[static_cast<std::size_t>(cur)];
      int nxt = -1;
      for (int k = 0; k < 3 && nxt < 0; ++k) {
        VertexId a = tr.t[static_cast<std::size_t>(k)];
        VertexId b = tr.t[static_cast<std::size_t>((k + 1) % 3)];
        if (signed_area2(work_[static_cast<std::size_t>(a)],
                         work_[static_cast<std::size_t>(b)], p) < 0.0) {
          nxt = tr.nb[static_cast<std::size_t>(k)];
        }
      }
      if (nxt < 0) return cur;
      cur = nxt;
    }
    return -1;
  }

  void insert(int pi) {
    Vec2 p = work_[static_cast<std::size_t>(pi)];

    // Seed: an alive triangle containing p (always exists — the symbolic
    // super triangles tile the rest of the plane). Fast path: walk from the
    // hint-grid triangle (or the most recently created one); the exhaustive
    // scan only runs when the walk lands on a borderline non-conflicting
    // triangle, preserving the scan's exact tie-breaking there.
    int seed = -1;
    int start = hint_[hint_cell(p)];
    if (start < 0 || !tris_[static_cast<std::size_t>(start)].alive) {
      start = last_tri_;
    }
    int loc = locate_walk(p, start);
    if (loc >= 0 && triangle_contains(tris_[static_cast<std::size_t>(loc)], p) &&
        in_conflict(tris_[static_cast<std::size_t>(loc)], p)) {
      seed = loc;
    }
    if (seed < 0) {
      for (std::size_t ti = 0; ti < tris_.size(); ++ti) {
        const TriRec& tr = tris_[ti];
        if (!tr.alive) continue;
        if (triangle_contains(tr, p) && in_conflict(tr, p)) {
          seed = static_cast<int>(ti);
          break;
        }
        if (seed < 0 && triangle_contains(tr, p)) seed = static_cast<int>(ti);
      }
    }
    ANR_CHECK_MSG(seed >= 0, "no triangle contains the insertion point");

    // Cavity: BFS over shared edges through conflicting triangles only.
    // Growing from the containing triangle keeps the cavity connected even
    // when borderline conflict tests disagree far away (near-degenerate
    // inputs); stray "conflicting" islands are simply not excavated.
    // Generation-stamped marks avoid an O(tris) clear per insertion. An
    // edge whose far side stays out of the cavity is a boundary edge.
    if (stamp_.size() < tris_.size()) stamp_.resize(tris_.size(), 0);
    ++gen_;
    bad_.clear();
    boundary_.clear();
    bad_.push_back(seed);
    stamp_[static_cast<std::size_t>(seed)] = gen_;
    for (std::size_t head = 0; head < bad_.size(); ++head) {
      const TriRec& tr = tris_[static_cast<std::size_t>(bad_[head])];
      for (int k = 0; k < 3; ++k) {
        const int tj = tr.nb[static_cast<std::size_t>(k)];
        if (tj >= 0 && stamp_[static_cast<std::size_t>(tj)] == gen_) continue;
        if (tj >= 0 && in_conflict(tris_[static_cast<std::size_t>(tj)], p)) {
          stamp_[static_cast<std::size_t>(tj)] = gen_;
          bad_.push_back(tj);
        } else {
          boundary_.push_back(CavityEdge{
              EdgeKey(tr.t[static_cast<std::size_t>(k)],
                      tr.t[static_cast<std::size_t>((k + 1) % 3)]),
              tj});
        }
      }
    }

    // Pinch repair: if a vertex appears on the cavity boundary more than
    // twice, absorb the smallest alive triangle fan at that vertex so the
    // boundary becomes a simple cycle. Only triggers inside the jitter-
    // scale degeneracy band; any consistent resolution is geometrically
    // fine there.
    for (int guard = 0;; ++guard) {
      ANR_CHECK_MSG(guard < 64, "cavity pinch repair did not converge");
      const int pinch = find_pinch();
      if (pinch < 0) break;

      // Group the alive, non-cavity triangles incident to `pinch` into
      // fans connected through edges at `pinch`; absorb the smallest fan.
      std::vector<int> candidates;
      for (std::size_t ti = 0; ti < tris_.size(); ++ti) {
        const TriRec& tr = tris_[ti];
        if (!tr.alive || stamp_[ti] == gen_) continue;
        if (tr.t[0] == pinch || tr.t[1] == pinch || tr.t[2] == pinch) {
          candidates.push_back(static_cast<int>(ti));
        }
      }
      ANR_CHECK_MSG(!candidates.empty(), "pinched vertex with no free fan");
      std::vector<char> grouped(candidates.size(), 0);
      std::vector<int> best_fan;
      for (std::size_t s = 0; s < candidates.size(); ++s) {
        if (grouped[s]) continue;
        std::vector<int> fan{candidates[s]};
        grouped[s] = 1;
        for (std::size_t head = 0; head < fan.size(); ++head) {
          const TriRec& tr = tris_[static_cast<std::size_t>(fan[head])];
          for (int k = 0; k < 3; ++k) {
            VertexId a = tr.t[static_cast<std::size_t>(k)];
            VertexId b = tr.t[static_cast<std::size_t>((k + 1) % 3)];
            if (a != pinch && b != pinch) continue;
            const int tj = tr.nb[static_cast<std::size_t>(k)];
            if (tj < 0) continue;
            for (std::size_t o = 0; o < candidates.size(); ++o) {
              if (!grouped[o] && candidates[o] == tj) {
                grouped[o] = 1;
                fan.push_back(tj);
              }
            }
          }
        }
        if (best_fan.empty() || fan.size() < best_fan.size()) {
          best_fan = std::move(fan);
        }
      }
      for (int ti : best_fan) {
        stamp_[static_cast<std::size_t>(ti)] = gen_;
        bad_.push_back(ti);
      }
      collect_boundary();
    }

    // Retriangulate: one triangle per boundary edge, created in ascending
    // edge order so triangle ids (and hence the output order) depend on the
    // cavity only. Each new triangle links across its boundary edge to the
    // outside triangle and across its two spokes to its cavity neighbours.
    for (int ti : bad_) tris_[static_cast<std::size_t>(ti)].alive = false;
    std::sort(boundary_.begin(), boundary_.end(),
              [](const CavityEdge& x, const CavityEdge& y) { return x.e < y.e; });
    for (const CavityEdge& be : boundary_) {
      const int ti = add_tri(Tri{be.e.a, be.e.b, pi});
      // add_tri keeps (a, b, pi) or flips it to (a, pi, b): edge (a, b) is
      // slot 0 or 2, spoke (b, pi) slot 1, spoke (pi, a) slot 2 or 0.
      const bool flipped = tris_[static_cast<std::size_t>(ti)].t[1] == pi;
      tris_[static_cast<std::size_t>(ti)].nb[flipped ? 2 : 0] = be.outside;
      if (be.outside >= 0) {
        TriRec& out = tris_[static_cast<std::size_t>(be.outside)];
        out.nb[static_cast<std::size_t>(edge_slot(out.t, be.e.a, be.e.b))] = ti;
      }
      link_spoke(be.e.a, 3 * ti + (flipped ? 0 : 2));
      link_spoke(be.e.b, 3 * ti + 1);
    }
  }

  // Rebuilds the boundary edges from the cavity marks (after the pinch
  // repair grew the cavity).
  void collect_boundary() {
    boundary_.clear();
    for (int ti : bad_) {
      const TriRec& tr = tris_[static_cast<std::size_t>(ti)];
      for (int k = 0; k < 3; ++k) {
        const int tj = tr.nb[static_cast<std::size_t>(k)];
        if (tj >= 0 && stamp_[static_cast<std::size_t>(tj)] == gen_) continue;
        boundary_.push_back(CavityEdge{
            EdgeKey(tr.t[static_cast<std::size_t>(k)],
                    tr.t[static_cast<std::size_t>((k + 1) % 3)]),
            tj});
      }
    }
  }

  // Smallest vertex on more than two cavity boundary edges, or -1.
  int find_pinch() {
    ++vround_;
    int pinch = -1;
    for (const CavityEdge& be : boundary_) {
      for (VertexId v : {be.e.a, be.e.b}) {
        const auto vi = static_cast<std::size_t>(v);
        if (vgen_[vi] != vround_) {
          vgen_[vi] = vround_;
          vdeg_[vi] = 0;
        }
        if (++vdeg_[vi] == 3 && (pinch < 0 || v < pinch)) pinch = v;
      }
    }
    return pinch;
  }

  // Links the new triangles on spoke (v, pi) once both exist; `slot` is
  // 3 * triangle + k of this one's side on the spoke.
  void link_spoke(VertexId v, int slot) {
    const auto vi = static_cast<std::size_t>(v);
    if (spoke_gen_[vi] != gen_) {
      spoke_gen_[vi] = gen_;
      spoke_slot_[vi] = slot;
      return;
    }
    const int other = spoke_slot_[vi];
    ANR_CHECK_MSG(other >= 0, "edge incident to more than two alive triangles");
    tris_[static_cast<std::size_t>(slot / 3)].nb[static_cast<std::size_t>(slot % 3)] = other / 3;
    tris_[static_cast<std::size_t>(other / 3)].nb[static_cast<std::size_t>(other % 3)] = slot / 3;
    spoke_slot_[vi] = -1;
  }

  const std::vector<Vec2>& input_;
  std::vector<Vec2> work_;
  double span_ = 1.0;
  Vec2 lo_;
  int s0_ = 0;
  std::vector<TriRec> tris_;
  std::vector<int> bad_;
  std::vector<CavityEdge> boundary_;
  std::vector<int> stamp_;   // per triangle: gen_ when in the current cavity
  int gen_ = 0;              // insertion counter
  // Per vertex: boundary-edge count of the current pinch check (valid when
  // vgen_ == vround_), and the side of the first new triangle on spoke
  // (v, pi) of the current insertion (valid when spoke_gen_ == gen_; -1
  // once paired).
  std::vector<int> vgen_;
  std::vector<int> vdeg_;
  int vround_ = 0;
  std::vector<int> spoke_gen_;
  std::vector<int> spoke_slot_;
  int last_tri_ = 0;
  int side_ = 1;
  std::vector<int> hint_;
};

}  // namespace

TriangleMesh delaunay(const std::vector<Vec2>& pts) {
  ANR_CHECK_MSG(pts.size() >= 3, "delaunay needs >= 3 points");
  Builder builder(pts);
  return builder.run();
}

}  // namespace anr
