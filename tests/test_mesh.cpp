// Unit tests: TriangleMesh structure, adjacency, manifold checks.
#include <gtest/gtest.h>

#include "common/check.h"
#include "mesh/triangle_mesh.h"

namespace anr {
namespace {

// Two triangles sharing an edge: a unit-square split along the diagonal.
TriangleMesh square_mesh() {
  return TriangleMesh({{0, 0}, {1, 0}, {1, 1}, {0, 1}},
                      {Tri{0, 1, 2}, Tri{0, 2, 3}});
}

std::vector<VertexId> neighbor_list(const TriangleMesh& m, VertexId v) {
  const auto nb = m.neighbors(v);
  return {nb.begin(), nb.end()};
}

TEST(TriangleMesh, BasicCounts) {
  TriangleMesh m = square_mesh();
  EXPECT_EQ(m.num_vertices(), 4u);
  EXPECT_EQ(m.num_triangles(), 2u);
  EXPECT_EQ(m.edges().size(), 5u);
  EXPECT_EQ(m.boundary_edges().size(), 4u);
  EXPECT_EQ(m.euler_characteristic(), 1);  // disk
}

TEST(TriangleMesh, Neighbors) {
  TriangleMesh m = square_mesh();
  EXPECT_EQ(neighbor_list(m, 0), (std::vector<VertexId>{1, 2, 3}));
  EXPECT_EQ(neighbor_list(m, 1), (std::vector<VertexId>{0, 2}));
}

TEST(TriangleMesh, EdgeTriangleCount) {
  TriangleMesh m = square_mesh();
  EXPECT_EQ(m.edge_triangle_count(0, 2), 2);  // diagonal
  EXPECT_EQ(m.edge_triangle_count(0, 1), 1);  // boundary
  EXPECT_EQ(m.edge_triangle_count(1, 3), 0);  // absent
}

TEST(TriangleMesh, BoundaryVertices) {
  TriangleMesh m = square_mesh();
  for (VertexId v = 0; v < 4; ++v) {
    EXPECT_TRUE(m.is_boundary_vertex(v));
  }
}

TEST(TriangleMesh, InteriorVertexNotBoundary) {
  // Fan around a center vertex: center is interior.
  TriangleMesh m({{0, 0}, {1, 0}, {0, 1}, {-1, 0}, {0, -1}},
                 {Tri{0, 1, 2}, Tri{0, 2, 3}, Tri{0, 3, 4}, Tri{0, 4, 1}});
  EXPECT_FALSE(m.is_boundary_vertex(0));
  EXPECT_TRUE(m.is_boundary_vertex(1));
  EXPECT_TRUE(m.vertex_manifold());
  EXPECT_EQ(m.euler_characteristic(), 1);
}

TEST(TriangleMesh, NonManifoldEdgeDetected) {
  // Three triangles on one edge.
  TriangleMesh m({{0, 0}, {1, 0}, {0, 1}, {0, -1}, {1, 1}},
                 {Tri{0, 1, 2}, Tri{0, 1, 3}, Tri{0, 1, 4}});
  EXPECT_FALSE(m.edge_manifold());
  EXPECT_FALSE(m.vertex_manifold());
}

TEST(TriangleMesh, BowtieDetected) {
  // Two triangles touching only at vertex 0.
  TriangleMesh m({{0, 0}, {1, 0}, {1, 1}, {-1, 0}, {-1, -1}},
                 {Tri{0, 1, 2}, Tri{0, 3, 4}});
  EXPECT_TRUE(m.edge_manifold());
  EXPECT_FALSE(m.vertex_manifold());
}

TEST(TriangleMesh, MakeCcw) {
  TriangleMesh m({{0, 0}, {1, 0}, {0, 1}}, {Tri{0, 2, 1}});  // CW
  EXPECT_FALSE(m.all_ccw());
  m.make_ccw();
  EXPECT_TRUE(m.all_ccw());
}

TEST(TriangleMesh, AdjacencyRebuildsAfterEdit) {
  TriangleMesh m = square_mesh();
  EXPECT_EQ(m.edges().size(), 5u);
  VertexId v = m.add_vertex({2.0, 0.5});
  m.add_triangle(Tri{1, v, 2});
  EXPECT_EQ(m.edges().size(), 7u);
  EXPECT_EQ(neighbor_list(m, 1), (std::vector<VertexId>{0, 2, v}));
}

TEST(TriangleMesh, RejectsBadTriangle) {
  TriangleMesh m({{0, 0}, {1, 0}, {0, 1}}, {});
  EXPECT_THROW(m.add_triangle(Tri{0, 1, 7}), ContractViolation);
}

TEST(TriangleMesh, VertexTriangles) {
  TriangleMesh m = square_mesh();
  EXPECT_EQ(m.vertex_triangles(0).size(), 2u);
  EXPECT_EQ(m.vertex_triangles(1).size(), 1u);
}

}  // namespace
}  // namespace anr
