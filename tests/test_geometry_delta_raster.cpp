// Delta rasterization: the contract that makes incremental lithography
// evaluation exact. For any polygon, add_polygon_region over its coverage
// rect reproduces Raster::add_polygon bit for bit inside the region, so
// raster(full) == raster(cached) + raster(delta) per pixel when a subset of
// polygons moves. Raster::add_polygon is itself add_polygon_region over the
// whole grid; the dense loop it replaced is kept below as its oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "geometry/layout.hpp"
#include "geometry/raster.hpp"

namespace camo::geo {
namespace {

constexpr int kGrid = 64;
constexpr double kPixel = 4.0;

// Random rectilinear staircase polygon: a rectangle whose edges are
// fragmented and offset per segment, exactly the shapes OPC produces.
// Coordinates may stick out past the clip to exercise boundary clamping.
Polygon random_staircase(Rng& rng, bool allow_outside) {
    const int span = static_cast<int>(kGrid * kPixel);
    const int lo = allow_outside ? -40 : 8;
    const int hi = allow_outside ? span + 40 : span - 80;
    const int x = rng.uniform_int(lo, hi);
    const int y = rng.uniform_int(lo, hi);
    const int w = rng.uniform_int(30, 90);
    const int h = rng.uniform_int(30, 90);

    SegmentedLayout layout({Polygon::from_rect({x, y, x + w, y + h})},
                           {FragmentStyle::kMetal, 20}, {}, span);
    std::vector<int> offsets(static_cast<std::size_t>(layout.num_segments()));
    for (int& o : offsets) o = rng.uniform_int(-6, 6);
    return layout.reconstruct_mask(offsets)[0];
}

Polygon perturb(const Polygon& base, Rng& rng) {
    // Re-fragment and move a couple of segments: the "segment acted on" case.
    SegmentedLayout layout({base}, {FragmentStyle::kMetal, 20}, {},
                           static_cast<int>(kGrid * kPixel));
    std::vector<int> offsets(static_cast<std::size_t>(layout.num_segments()), 0);
    const int moves = rng.uniform_int(1, 3);
    for (int i = 0; i < moves; ++i) {
        offsets[static_cast<std::size_t>(rng.uniform_int(0, layout.num_segments() - 1))] =
            rng.uniform_int(-8, 8);
    }
    return layout.reconstruct_mask(offsets)[0];
}

// The dense full-grid rasterizer that Raster::add_polygon ran before it
// became add_polygon_region over the whole grid, kept verbatim as the
// oracle for that call.
class ReferenceRaster {
public:
    ReferenceRaster(int n, double pixel_nm)
        : n_(n), pixel_(pixel_nm), a_(static_cast<std::size_t>(n) * static_cast<std::size_t>(n)) {}

    [[nodiscard]] const std::vector<float>& data() const { return a_; }

    void add_polygon(const Polygon& poly, float weight = 1.0F) {
        const auto& v = poly.vertices();
        const int nv = static_cast<int>(v.size());
        if (nv < 4) return;

        // Per-column running contribution of full rows, applied bottom-up:
        // full[c] accumulates the signed x-coverage active from row `r` upward is
        // handled edge by edge instead: every horizontal edge touches O(width)
        // columns and O(1) rows via a difference array.
        std::vector<float> col_diff(
            static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_ + 1), 0.0F);

        auto col_diff_at = [&](int row, int col) -> float& {
            return col_diff[static_cast<std::size_t>(col) * static_cast<std::size_t>(n_ + 1) +
                            static_cast<std::size_t>(row)];
        };

        for (int i = 0; i < nv; ++i) {
            const Point& a = v[i];
            const Point& b = v[(i + 1) % nv];
            if (a.y != b.y || a.x == b.x) continue;  // horizontal edges only

            const float sign = (b.x < a.x) ? weight : -weight;
            const double x0 = std::min(a.x, b.x) / pixel_;
            const double x1 = std::max(a.x, b.x) / pixel_;
            const double y = a.y / pixel_;
            if (y <= 0.0) continue;  // region (-inf, y] misses the grid entirely

            const int c0 = std::max(0, static_cast<int>(std::floor(x0)));
            const int c1 = std::min(n_ - 1, static_cast<int>(std::ceil(x1)) - 1);
            if (c0 > c1) continue;

            const double y_clamped = std::min(y, static_cast<double>(n_));
            const int ry = static_cast<int>(std::floor(y_clamped));
            const double fy = y_clamped - ry;  // fraction of partial row covered

            for (int c = c0; c <= c1; ++c) {
                const double lo = std::max(x0, static_cast<double>(c));
                const double hi = std::min(x1, static_cast<double>(c + 1));
                const double fx = hi - lo;
                if (fx <= 0.0) continue;
                const float val = sign * static_cast<float>(fx);
                // Rows [0, ry) get the full contribution, row ry a partial one.
                col_diff_at(0, c) += val;
                if (ry < n_) {
                    col_diff_at(ry, c) -= val;
                    a_[idx(ry, c)] += val * static_cast<float>(fy);
                }
            }
        }

        for (int c = 0; c < n_; ++c) {
            float run = 0.0F;
            for (int r = 0; r < n_; ++r) {
                run += col_diff_at(r, c);
                a_[idx(r, c)] += run;
            }
        }
    }

private:
    [[nodiscard]] std::size_t idx(int row, int col) const {
        return static_cast<std::size_t>(row) * static_cast<std::size_t>(n_) +
               static_cast<std::size_t>(col);
    }

    int n_;
    double pixel_;
    std::vector<float> a_;
};

Polygon reversed(const Polygon& p) {
    std::vector<Point> v(p.vertices().rbegin(), p.vertices().rend());
    return Polygon(std::move(v));
}

TEST(DeltaRaster, AddPolygonMatchesDenseReferenceBitForBit) {
    // Polygon sets accumulated into one grid: abutting and overlapping
    // rectangles, off-grid vertices, polygons past every edge of the clip,
    // SRAF-sized bars, OPC staircases and clockwise loops, with weights of
    // either sign, at several grid and pixel sizes.
    Rng rng(303);
    for (int trial = 0; trial < 60; ++trial) {
        const int n = std::array<int, 4>{16, 33, 64, 128}[static_cast<std::size_t>(trial % 4)];
        const double pixel =
            std::array<double, 3>{4.0, 2.5, 7.0}[static_cast<std::size_t>(trial % 3)];
        const int span = static_cast<int>(n * pixel);
        std::vector<Polygon> polys;
        for (int k = 0; k < 6; ++k) {
            const int x = rng.uniform_int(-span / 4, span);
            const int y = rng.uniform_int(-span / 4, span);
            const int w = rng.uniform_int(1, span / 2);
            const int h = rng.uniform_int(1, span / 2);
            const Rect r{x, y, x + w, y + h};
            polys.push_back(Polygon::from_rect(r));
            // Abutting on the right and on top, and overlapping.
            polys.push_back(Polygon::from_rect({r.xhi, r.ylo, r.xhi + w / 2 + 1, r.yhi}));
            polys.push_back(Polygon::from_rect({r.xlo, r.yhi, r.xhi, r.yhi + h / 3 + 1}));
            polys.push_back(Polygon::from_rect({x + w / 2, y + h / 2, x + w + 5, y + h + 5}));
            // SRAF-sized bar, horizontal or vertical.
            const int bx = rng.uniform_int(-20, span + 20);
            const int by = rng.uniform_int(-20, span + 20);
            polys.push_back(Polygon::from_rect(k % 2 == 0 ? Rect{bx, by, bx + 60, by + 20}
                                                          : Rect{bx, by, bx + 20, by + 60}));
        }
        // Covering the whole clip and beyond.
        polys.push_back(Polygon::from_rect({-span, -span, 2 * span, 2 * span}));
        if (n == kGrid && pixel == kPixel) {
            polys.push_back(random_staircase(rng, true));
            polys.push_back(random_staircase(rng, false));
        }

        Raster raster(n, pixel);
        ReferenceRaster reference(n, pixel);
        for (std::size_t k = 0; k < polys.size(); ++k) {
            const Polygon poly = k % 5 == 4 ? reversed(polys[k]) : polys[k];
            const float weight = std::array<float, 3>{1.0F, -1.0F, 0.5F}[k % 3];
            raster.add_polygon(poly, weight);
            reference.add_polygon(poly, weight);
        }
        ASSERT_EQ(0, std::memcmp(raster.data().data(), reference.data().data(),
                                 reference.data().size() * sizeof(float)))
            << "trial " << trial;
    }
}

TEST(DeltaRaster, RegionMatchesAddPolygonBitForBit) {
    Rng rng(101);
    for (int trial = 0; trial < 40; ++trial) {
        const bool outside = trial % 3 == 0;  // every third trial crosses the clip boundary
        const Polygon poly = random_staircase(rng, outside);

        Raster direct(kGrid, kPixel);
        direct.add_polygon(poly);

        const PixelRect region = polygon_coverage_rect(poly, kPixel, kGrid);
        std::vector<float> buf(region.area(), 0.0F);
        add_polygon_region(buf, region, poly, kPixel, kGrid);

        Raster scattered(kGrid, kPixel);
        std::size_t b = 0;
        for (int r = region.r0; r < region.r1; ++r) {
            for (int c = region.c0; c < region.c1; ++c, ++b) scattered.at(r, c) = buf[b];
        }

        for (int r = 0; r < kGrid; ++r) {
            for (int c = 0; c < kGrid; ++c) {
                ASSERT_EQ(direct.at(r, c), scattered.at(r, c))
                    << "trial " << trial << " pixel (" << r << ", " << c << ")";
            }
        }
    }
}

TEST(DeltaRaster, FullEqualsCachedPlusDelta) {
    Rng rng(202);
    for (int trial = 0; trial < 25; ++trial) {
        const bool outside = trial % 4 == 0;
        std::vector<Polygon> old_polys;
        for (int i = 0; i < 4; ++i) old_polys.push_back(random_staircase(rng, outside));

        std::vector<Polygon> new_polys = old_polys;
        std::vector<int> moved;
        for (int i = 0; i < 4; ++i) {
            if (rng.coin(0.5)) {
                new_polys[static_cast<std::size_t>(i)] =
                    perturb(old_polys[static_cast<std::size_t>(i)], rng);
                moved.push_back(i);
            }
        }

        Raster full(kGrid, kPixel);
        for (const Polygon& p : new_polys) full.add_polygon(p);

        Raster cached(kGrid, kPixel);
        for (const Polygon& p : old_polys) cached.add_polygon(p);

        Raster delta(kGrid, kPixel);
        for (int i : moved) {
            const PixelRect region =
                unite(polygon_coverage_rect(old_polys[static_cast<std::size_t>(i)], kPixel, kGrid),
                      polygon_coverage_rect(new_polys[static_cast<std::size_t>(i)], kPixel, kGrid));
            if (region.empty()) continue;
            std::vector<float> old_buf(region.area(), 0.0F);
            std::vector<float> new_buf(region.area(), 0.0F);
            add_polygon_region(old_buf, region, old_polys[static_cast<std::size_t>(i)], kPixel,
                               kGrid);
            add_polygon_region(new_buf, region, new_polys[static_cast<std::size_t>(i)], kPixel,
                               kGrid);
            std::size_t b = 0;
            for (int r = region.r0; r < region.r1; ++r) {
                for (int c = region.c0; c < region.c1; ++c, ++b) {
                    delta.at(r, c) += new_buf[b] - old_buf[b];
                }
            }
        }

        // cached + delta accumulates the same per-polygon contributions as
        // full, in a different float summation order: equal to rounding.
        for (int r = 0; r < kGrid; ++r) {
            for (int c = 0; c < kGrid; ++c) {
                ASSERT_NEAR(full.at(r, c), cached.at(r, c) + delta.at(r, c), 1e-5F)
                    << "trial " << trial << " pixel (" << r << ", " << c << ")";
            }
        }
    }
}

TEST(DeltaRaster, UntouchedPolygonProducesEmptyDelta) {
    Rng rng(303);
    const Polygon poly = random_staircase(rng, false);
    const PixelRect region = polygon_coverage_rect(poly, kPixel, kGrid);
    std::vector<float> a(region.area(), 0.0F);
    std::vector<float> b(region.area(), 0.0F);
    add_polygon_region(a, region, poly, kPixel, kGrid);
    add_polygon_region(b, region, poly, kPixel, kGrid);
    for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
}

TEST(DeltaRaster, CoverageRectClampsToGrid) {
    // A polygon hanging off every side of the clip.
    const Polygon poly = Polygon::from_rect({-50, -50, static_cast<int>(kGrid * kPixel) + 50,
                                             static_cast<int>(kGrid * kPixel) + 50});
    const PixelRect rect = polygon_coverage_rect(poly, kPixel, kGrid);
    EXPECT_EQ(rect.r0, 0);
    EXPECT_EQ(rect.c0, 0);
    EXPECT_EQ(rect.r1, kGrid);
    EXPECT_EQ(rect.c1, kGrid);

    Raster direct(kGrid, kPixel);
    direct.add_polygon(poly);
    std::vector<float> buf(rect.area(), 0.0F);
    add_polygon_region(buf, rect, poly, kPixel, kGrid);
    std::size_t i = 0;
    for (int r = 0; r < kGrid; ++r) {
        for (int c = 0; c < kGrid; ++c, ++i) ASSERT_EQ(direct.at(r, c), buf[i]);
    }
}

TEST(DeltaRaster, PixelRectBasics) {
    const PixelRect empty{};
    EXPECT_TRUE(empty.empty());
    EXPECT_EQ(empty.area(), 0U);

    const PixelRect a{0, 2, 4, 6};
    const PixelRect b{0, 5, 8, 9};
    const PixelRect u = unite(a, b);
    EXPECT_EQ(u.r0, 0);
    EXPECT_EQ(u.c0, 2);
    EXPECT_EQ(u.r1, 8);
    EXPECT_EQ(u.c1, 9);
    EXPECT_EQ(unite(a, empty).area(), a.area());
    EXPECT_EQ(unite(empty, b).area(), b.area());

    const PixelRect bad{2, 0, 6, 4};
    std::vector<float> buf(bad.area(), 0.0F);
    EXPECT_THROW(add_polygon_region(buf, bad, Polygon::from_rect({0, 0, 10, 10}), 1.0, 64),
                 std::invalid_argument);
}

}  // namespace
}  // namespace camo::geo
