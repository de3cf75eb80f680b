// Area-coverage rasterization of rectilinear polygons.
//
// The rasterizer is exact: each pixel value is the fraction of the pixel
// covered by the polygon set (clamped to [0,1] when polygons overlap). It
// uses the signed-trapezoid identity for closed rectilinear loops: every
// horizontal edge (x1 -> x2 at height y) contributes sign(x1 -> x2) times the
// axis-aligned region [min,max] x (-inf, y], where leftward edges count +1.
// Summing those signed coverages per pixel yields the winding number, which
// is the coverage for simple CCW polygons. Because the identity holds for
// any closed loop, staircase OPC masks with aggressive per-segment offsets
// rasterize robustly even if a reconstruction self-touches.
#pragma once

#include <span>
#include <vector>

#include "geometry/polygon.hpp"

namespace camo::geo {

/// Half-open pixel rectangle [r0, r1) x [c0, c1) on a raster grid.
struct PixelRect {
    int r0 = 0;
    int c0 = 0;
    int r1 = 0;
    int c1 = 0;

    [[nodiscard]] bool empty() const { return r0 >= r1 || c0 >= c1; }
    [[nodiscard]] int rows() const { return r1 - r0; }
    [[nodiscard]] int cols() const { return c1 - c0; }
    [[nodiscard]] std::size_t area() const {
        return empty() ? 0 : static_cast<std::size_t>(rows()) * static_cast<std::size_t>(cols());
    }
};

/// Smallest rectangle containing both inputs (empty inputs are ignored).
PixelRect unite(const PixelRect& a, const PixelRect& b);

/// Square coverage grid. Pixel (row, col) covers the nm-domain
/// [col*pixel, (col+1)*pixel] x [row*pixel, (row+1)*pixel]; row 0 is the
/// bottom of the clip (y-up).
class Raster {
public:
    Raster(int n, double pixel_nm);

    [[nodiscard]] int n() const { return n_; }
    [[nodiscard]] double pixel_nm() const { return pixel_; }

    [[nodiscard]] float at(int row, int col) const { return a_[idx(row, col)]; }
    float& at(int row, int col) { return a_[idx(row, col)]; }

    [[nodiscard]] std::span<const float> data() const { return a_; }
    [[nodiscard]] std::span<float> data() { return a_; }

    void fill(float v);

    /// Accumulate the signed coverage of a polygon scaled by `weight`:
    /// add_polygon_region over the whole grid.
    void add_polygon(const Polygon& poly, float weight = 1.0F);

    /// Accumulate several polygons then clamp into [0, 1].
    void rasterize(std::span<const Polygon> polys);

    /// Clamp every pixel into [0, 1].
    void clamp01();

    /// Sum of all pixel coverages times pixel area = covered area in nm^2.
    [[nodiscard]] double coverage_area_nm2() const;

    /// Bilinear sample at an nm-domain location (pixel centers are the
    /// lattice); coordinates are clamped to the grid interior.
    [[nodiscard]] double sample(double x_nm, double y_nm) const;

private:
    [[nodiscard]] std::size_t idx(int row, int col) const {
        return static_cast<std::size_t>(row) * static_cast<std::size_t>(n_) +
               static_cast<std::size_t>(col);
    }

    int n_;
    double pixel_;
    std::vector<float> a_;
};

/// Pixel rect that covers every pixel whose value Raster::add_polygon(poly)
/// can change on an n x n grid, clamped to the grid. The row range always
/// starts at 0: the signed-trapezoid identity writes each edge's coverage to
/// every row below it, and the per-column float cancellation below the
/// polygon is only exact once all of the loop's edges are summed — so pixels
/// down to row 0 can carry (tiny) residuals that a delta raster must
/// reproduce bit for bit.
PixelRect polygon_coverage_rect(const Polygon& poly, double pixel_nm, int n);

/// Accumulate the signed coverage of `poly` into `buf` (row-major
/// region.rows() x region.cols(), pixel (r, c) of the grid at
/// buf[(r - region.r0) * cols + (c - region.c0)]), restricted to `region`.
///
/// Bitwise contract: provided region.r0 == 0 (enforced) and `region`
/// contains polygon_coverage_rect(poly, pixel_nm, n) column-wise, the value
/// added to each pixel inside `region` is bit-identical to what
/// Raster::add_polygon(poly, weight) adds to that pixel — per-pixel coverage
/// is a pure function of (polygon, row, column), independent of the region's
/// column range. This is what lets an incremental evaluator subtract a
/// cached polygon's contribution exactly.
void add_polygon_region(std::span<float> buf, const PixelRect& region, const Polygon& poly,
                        double pixel_nm, int n, float weight = 1.0F);

}  // namespace camo::geo
