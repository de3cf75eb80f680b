#include "geometry/raster.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace camo::geo {

PixelRect unite(const PixelRect& a, const PixelRect& b) {
    if (a.empty()) return b;
    if (b.empty()) return a;
    return {std::min(a.r0, b.r0), std::min(a.c0, b.c0), std::max(a.r1, b.r1),
            std::max(a.c1, b.c1)};
}

PixelRect polygon_coverage_rect(const Polygon& poly, double pixel_nm, int n) {
    if (poly.empty()) return {};
    const Rect bb = poly.bbox();
    const int c0 = std::clamp(static_cast<int>(std::floor(bb.xlo / pixel_nm)), 0, n);
    const int c1 = std::clamp(static_cast<int>(std::ceil(bb.xhi / pixel_nm)), 0, n);
    // +1: an edge exactly on a pixel boundary still touches the row above it
    // (add_polygon writes a zero partial contribution there, which can flip
    // the sign of a float zero).
    const int r1 = std::clamp(static_cast<int>(std::floor(bb.yhi / pixel_nm)) + 1, 0, n);
    return {0, c0, r1, c1};
}

void add_polygon_region(std::span<float> buf, const PixelRect& region, const Polygon& poly,
                        double pixel_nm, int n, float weight) {
    if (region.empty()) return;
    if (region.r0 != 0) {
        throw std::invalid_argument("add_polygon_region: region.r0 must be 0");
    }
    if (buf.size() != region.area()) {
        throw std::invalid_argument("add_polygon_region: buffer size mismatch");
    }

    const auto& v = poly.vertices();
    const int nv = static_cast<int>(v.size());
    if (nv < 4) return;

    const int rows = region.rows();
    const int cols = region.cols();

    // Every horizontal edge touches O(width) columns and O(1) rows via a
    // per-column difference array over the region's columns: rows [0, ry)
    // get the edge's full contribution, row ry a partial one. The running
    // sums per column are the only accumulation, so a pixel's value does not
    // depend on which other columns the region spans.
    std::vector<float> col_diff(static_cast<std::size_t>(cols) * static_cast<std::size_t>(rows + 1),
                                0.0F);
    auto col_diff_at = [&](int row, int lc) -> float& {
        return col_diff[static_cast<std::size_t>(lc) * static_cast<std::size_t>(rows + 1) +
                        static_cast<std::size_t>(row)];
    };

    for (int i = 0; i < nv; ++i) {
        const Point& a = v[i];
        const Point& b = v[(i + 1) % nv];
        if (a.y != b.y || a.x == b.x) continue;  // horizontal edges only

        const float sign = (b.x < a.x) ? weight : -weight;
        const double x0 = std::min(a.x, b.x) / pixel_nm;
        const double x1 = std::max(a.x, b.x) / pixel_nm;
        const double y = a.y / pixel_nm;
        if (y <= 0.0) continue;  // region (-inf, y] misses the grid entirely

        const int c0 = std::max(region.c0, std::max(0, static_cast<int>(std::floor(x0))));
        const int c1 =
            std::min(region.c1 - 1, std::min(n - 1, static_cast<int>(std::ceil(x1)) - 1));
        if (c0 > c1) continue;

        const double y_clamped = std::min(y, static_cast<double>(n));
        const int ry = static_cast<int>(std::floor(y_clamped));
        const double fy = y_clamped - ry;  // fraction of partial row covered

        for (int c = c0; c <= c1; ++c) {
            const double lo = std::max(x0, static_cast<double>(c));
            const double hi = std::min(x1, static_cast<double>(c + 1));
            const double fx = hi - lo;
            if (fx <= 0.0) continue;
            const float val = sign * static_cast<float>(fx);
            const int lc = c - region.c0;
            col_diff_at(0, lc) += val;
            if (ry < rows) {  // rows == region.r1 since r0 == 0
                col_diff_at(ry, lc) -= val;
                buf[static_cast<std::size_t>(ry) * static_cast<std::size_t>(cols) +
                    static_cast<std::size_t>(lc)] += val * static_cast<float>(fy);
            }
        }
    }

    for (int lc = 0; lc < cols; ++lc) {
        float run = 0.0F;
        for (int r = 0; r < rows; ++r) {
            run += col_diff_at(r, lc);
            buf[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols) +
                static_cast<std::size_t>(lc)] += run;
        }
    }
}

Raster::Raster(int n, double pixel_nm) : n_(n), pixel_(pixel_nm) {
    if (n <= 0 || pixel_nm <= 0.0) throw std::invalid_argument("bad raster dims");
    a_.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0.0F);
}

void Raster::fill(float v) { std::fill(a_.begin(), a_.end(), v); }

void Raster::add_polygon(const Polygon& poly, float weight) {
    add_polygon_region(a_, {0, 0, n_, n_}, poly, pixel_, n_, weight);
}

void Raster::rasterize(std::span<const Polygon> polys) {
    fill(0.0F);
    for (const Polygon& p : polys) add_polygon(p);
    clamp01();
}

void Raster::clamp01() {
    for (float& x : a_) x = std::clamp(x, 0.0F, 1.0F);
}

double Raster::coverage_area_nm2() const {
    double sum = 0.0;
    for (float x : a_) sum += x;
    return sum * pixel_ * pixel_;
}

double Raster::sample(double x_nm, double y_nm) const {
    // Convert to continuous pixel-center coordinates.
    const double cx = x_nm / pixel_ - 0.5;
    const double cy = y_nm / pixel_ - 0.5;
    const double fx = std::clamp(cx, 0.0, static_cast<double>(n_ - 1));
    const double fy = std::clamp(cy, 0.0, static_cast<double>(n_ - 1));
    const int c0 = std::min(n_ - 2, static_cast<int>(std::floor(fx)));
    const int r0 = std::min(n_ - 2, static_cast<int>(std::floor(fy)));
    const double tx = fx - c0;
    const double ty = fy - r0;
    const double v00 = at(r0, c0);
    const double v01 = at(r0, c0 + 1);
    const double v10 = at(r0 + 1, c0);
    const double v11 = at(r0 + 1, c0 + 1);
    return (1 - ty) * ((1 - tx) * v00 + tx * v01) + ty * ((1 - tx) * v10 + tx * v11);
}

}  // namespace camo::geo
