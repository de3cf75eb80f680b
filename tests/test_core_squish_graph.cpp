#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/camo.hpp"
#include "core/graph.hpp"
#include "core/squish.hpp"
#include "layout/metal_gen.hpp"

namespace camo::core {
namespace {

// The per-window squish encoder as it stood before the one-pass state
// encoder, kept verbatim as the bit-identity reference.
namespace reference {
namespace {

struct SquishGrid {
    std::vector<double> dx;             // column widths (nm)
    std::vector<double> dy;             // row heights (nm)
    std::vector<std::vector<float>> m;  // occupancy [row][col]

    [[nodiscard]] int cols() const { return static_cast<int>(dx.size()); }
    [[nodiscard]] int rows() const { return static_cast<int>(dy.size()); }
};

// Collect sorted unique scanline coordinates within [lo, hi] from the given
// polygon sets' edges perpendicular to the axis.
std::vector<double> scanlines(std::span<const geo::Polygon* const> sources, double lo, double hi,
                              bool vertical) {
    std::vector<double> lines{lo, hi};
    for (const geo::Polygon* poly : sources) {
        const auto& v = poly->vertices();
        const int n = static_cast<int>(v.size());
        for (int i = 0; i < n; ++i) {
            const geo::Point& a = v[static_cast<std::size_t>(i)];
            const geo::Point& b = v[static_cast<std::size_t>((i + 1) % n)];
            double coord = 0.0;
            if (vertical && a.x == b.x) {
                coord = a.x;  // vertical edge -> x scanline
            } else if (!vertical && a.y == b.y) {
                coord = a.y;  // horizontal edge -> y scanline
            } else {
                continue;
            }
            if (coord > lo && coord < hi) lines.push_back(coord);
        }
    }
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
    return lines;
}

bool covered(std::span<const geo::Polygon> polys, geo::FPoint p) {
    for (const geo::Polygon& poly : polys) {
        if (poly.contains(p)) return true;
    }
    return false;
}

// Occupancy of the mask alone (targets empty), or — when `targets` is given
// — a signed movement map: where mask and target coverage differ, the cell
// holds sign * (1 + log1p(sliver width in nm)), with + for mask growth and
// - for recession. This is what "highlighting the edge movements" (paper
// Sec. 3.2) needs in a learnable form: both the direction and the magnitude
// of each segment's accumulated movement are first-class pixel values. A
// plain mask-occupancy second grid would differ from the first one by a few
// 1e-2-scale spacing entries only, which SGD amplifies far too slowly.
SquishGrid build_grid(std::span<const geo::Polygon> mask, std::span<const geo::Polygon> targets,
                      const std::vector<double>& xs, const std::vector<double>& ys) {
    SquishGrid g;
    for (std::size_t i = 0; i + 1 < xs.size(); ++i) g.dx.push_back(xs[i + 1] - xs[i]);
    for (std::size_t j = 0; j + 1 < ys.size(); ++j) g.dy.push_back(ys[j + 1] - ys[j]);

    g.m.assign(static_cast<std::size_t>(g.rows()),
               std::vector<float>(static_cast<std::size_t>(g.cols()), 0.0F));
    for (int r = 0; r < g.rows(); ++r) {
        const double cy = 0.5 * (ys[static_cast<std::size_t>(r)] + ys[static_cast<std::size_t>(r) + 1]);
        const double cell_h = g.dy[static_cast<std::size_t>(r)];
        for (int c = 0; c < g.cols(); ++c) {
            const double cx = 0.5 * (xs[static_cast<std::size_t>(c)] + xs[static_cast<std::size_t>(c) + 1]);
            const bool in_mask = covered(mask, {cx, cy});
            float v = in_mask ? 1.0F : 0.0F;
            if (!targets.empty()) {
                const bool in_target = covered(targets, {cx, cy});
                if (in_mask == in_target) {
                    v = in_mask ? 1.0F : 0.0F;
                } else {
                    const double cell_w = g.dx[static_cast<std::size_t>(c)];
                    const double sliver = std::min(cell_w, cell_h);
                    const float mag = 2.0F * (1.0F + static_cast<float>(std::log1p(sliver)));
                    v = in_mask ? mag : -mag;
                }
            }
            g.m[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] = v;
        }
    }
    return g;
}

// Resize the columns (axis=true) or rows to exactly `target` entries:
// split the widest cell while short, merge the narrowest adjacent pair
// while long. Occupancy is duplicated on split and OR-merged on merge.
void adapt_axis(SquishGrid& g, int target, bool columns) {
    auto& d = columns ? g.dx : g.dy;

    while (static_cast<int>(d.size()) < target) {
        const auto it = std::max_element(d.begin(), d.end());
        const auto idx = static_cast<std::size_t>(it - d.begin());
        const double half = *it / 2.0;
        d[idx] = half;
        d.insert(d.begin() + static_cast<std::ptrdiff_t>(idx), half);
        if (columns) {
            for (auto& row : g.m) {
                row.insert(row.begin() + static_cast<std::ptrdiff_t>(idx), row[idx]);
            }
        } else {
            g.m.insert(g.m.begin() + static_cast<std::ptrdiff_t>(idx), g.m[idx]);
        }
    }

    while (static_cast<int>(d.size()) > target) {
        std::size_t best = 0;
        double best_sum = 1e300;
        for (std::size_t i = 0; i + 1 < d.size(); ++i) {
            const double s = d[i] + d[i + 1];
            if (s < best_sum) {
                best_sum = s;
                best = i;
            }
        }
        // Merged occupancy keeps the stronger-magnitude value so signed
        // movement cells (+/-1) survive merging with empty cells.
        auto merge = [](float a, float b) { return std::abs(a) >= std::abs(b) ? a : b; };
        d[best] += d[best + 1];
        d.erase(d.begin() + static_cast<std::ptrdiff_t>(best) + 1);
        if (columns) {
            for (auto& row : g.m) {
                row[best] = merge(row[best], row[best + 1]);
                row.erase(row.begin() + static_cast<std::ptrdiff_t>(best) + 1);
            }
        } else {
            for (std::size_t c = 0; c < g.m[best].size(); ++c) {
                g.m[best][c] = merge(g.m[best][c], g.m[best + 1][c]);
            }
            g.m.erase(g.m.begin() + static_cast<std::ptrdiff_t>(best) + 1);
        }
    }
}

// Write one 3-channel squish block into `out` starting at channel `ch0`.
// Spacings use a log scale: OPC decisions hinge on few-nm slivers between
// mask and target scanlines, which a linear delta / window encoding would
// map to values of order 1e-3 the CNN could barely amplify.
void emit_channels(nn::Tensor& out, const SquishGrid& g, int ch0, double window_nm) {
    const int s = out.dim(1);
    const double norm = std::log1p(window_nm);
    for (int r = 0; r < s; ++r) {
        for (int c = 0; c < s; ++c) {
            out.at(ch0, r, c) = g.m[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)];
            out.at(ch0 + 1, r, c) =
                static_cast<float>(std::log1p(g.dx[static_cast<std::size_t>(c)]) / norm);
            out.at(ch0 + 2, r, c) =
                static_cast<float>(std::log1p(g.dy[static_cast<std::size_t>(r)]) / norm);
        }
    }
}

}  // namespace

nn::Tensor encode_squish_window(std::span<const geo::Polygon> mask,
                                std::span<const geo::Polygon> targets, geo::FPoint center,
                                const SquishOptions& opt) {
    const double half = opt.window_nm / 2.0;
    const double xlo = center.x - half;
    const double xhi = center.x + half;
    const double ylo = center.y - half;
    const double yhi = center.y + half;

    // Pointers to the polygons that supply scanlines for each variant.
    std::vector<const geo::Polygon*> mask_only;
    for (const geo::Polygon& p : mask) mask_only.push_back(&p);
    std::vector<const geo::Polygon*> with_targets = mask_only;
    for (const geo::Polygon& p : targets) with_targets.push_back(&p);

    nn::Tensor out({6, opt.size, opt.size});

    // Channels 0-2: mask-geometry scanlines, plain mask occupancy.
    {
        const auto xs = scanlines(mask_only, xlo, xhi, true);
        const auto ys = scanlines(mask_only, ylo, yhi, false);
        SquishGrid g = build_grid(mask, {}, xs, ys);
        adapt_axis(g, opt.size, true);
        adapt_axis(g, opt.size, false);
        emit_channels(out, g, 0, opt.window_nm);
    }
    // Channels 3-5: extra scanlines at target edges, signed mask-minus-
    // target occupancy highlighting every segment's movement.
    {
        const auto xs = scanlines(with_targets, xlo, xhi, true);
        const auto ys = scanlines(with_targets, ylo, yhi, false);
        SquishGrid g = build_grid(mask, targets, xs, ys);
        adapt_axis(g, opt.size, true);
        adapt_axis(g, opt.size, false);
        emit_channels(out, g, 3, opt.window_nm);
    }
    return out;
}

}  // namespace reference

TEST(Squish, OutputShape) {
    const std::vector<geo::Polygon> mask = {geo::Polygon::from_rect({0, 0, 70, 70})};
    const SquishOptions opt{.window_nm = 500, .size = 32};
    const nn::Tensor t = encode_squish_window(mask, mask, {35.0, 35.0}, opt);
    EXPECT_EQ(t.shape(), (std::vector<int>{6, 32, 32}));
}

TEST(Squish, EmptyWindowIsZeroOccupancy) {
    const std::vector<geo::Polygon> none;
    const nn::Tensor t = encode_squish_window(none, none, {1000.0, 1000.0},
                                              {.window_nm = 500, .size = 16});
    for (int r = 0; r < 16; ++r) {
        for (int c = 0; c < 16; ++c) {
            EXPECT_FLOAT_EQ(t.at(0, r, c), 0.0F);
            EXPECT_FLOAT_EQ(t.at(3, r, c), 0.0F);
        }
    }
}

TEST(Squish, SpacingChannelsTileTheWindow) {
    // The delta channels are log-scaled; invert the scale and the cell
    // widths must tile the whole window.
    const std::vector<geo::Polygon> mask = {geo::Polygon::from_rect({180, 180, 250, 250})};
    const SquishOptions opt{.window_nm = 500, .size = 16};
    const nn::Tensor t = encode_squish_window(mask, mask, {215.0, 215.0}, opt);
    const double norm = std::log1p(500.0);
    double dx_sum = 0.0;
    double dy_sum = 0.0;
    for (int c = 0; c < 16; ++c) dx_sum += std::expm1(t.at(1, 0, c) * norm);
    for (int r = 0; r < 16; ++r) dy_sum += std::expm1(t.at(2, r, 0) * norm);
    EXPECT_NEAR(dx_sum, 500.0, 0.5);
    EXPECT_NEAR(dy_sum, 500.0, 0.5);
}

TEST(Squish, OccupiedFractionMatchesGeometry) {
    // One 70 nm via centred in a 500 nm window: occupancy-weighted area
    // (sum of occ * dx * dy, after inverting the log scale) must equal the
    // via area.
    const std::vector<geo::Polygon> mask = {geo::Polygon::from_rect({215, 215, 285, 285})};
    const SquishOptions opt{.window_nm = 500, .size = 32};
    const nn::Tensor t = encode_squish_window(mask, mask, {250.0, 250.0}, opt);
    const double norm = std::log1p(500.0);
    double area = 0.0;
    for (int r = 0; r < 32; ++r) {
        for (int c = 0; c < 32; ++c) {
            area += t.at(0, r, c) * std::expm1(t.at(1, r, c) * norm) *
                    std::expm1(t.at(2, r, c) * norm);
        }
    }
    EXPECT_NEAR(area, 70.0 * 70.0, 2.0);
}

TEST(Squish, SmallSliversGetAmplifiedEncoding) {
    // A 3 nm sliver must map to a value the CNN can see: log scaling gives
    // log1p(3)/log1p(500) ~ 0.22 rather than 3/500 = 0.006.
    const std::vector<geo::Polygon> target = {geo::Polygon::from_rect({215, 215, 285, 285})};
    const std::vector<geo::Polygon> mask = {geo::Polygon::from_rect({212, 212, 288, 288})};
    const SquishOptions opt{.window_nm = 500, .size = 32};
    const nn::Tensor t = encode_squish_window(mask, target, {250.0, 215.0}, opt);
    float min_nonzero = 1.0F;
    for (int c = 0; c < 32; ++c) {
        const float v = t.at(4, 0, c);
        if (v > 0.0F) min_nonzero = std::min(min_nonzero, v);
    }
    EXPECT_GT(min_nonzero, 0.15F);  // the 3 nm sliver column
    EXPECT_LT(min_nonzero, 0.30F);
}

TEST(Squish, TargetChannelsReactToMaskMovement) {
    // When the mask differs from the target, the extra target scanlines must
    // make channels 3-5 differ from 0-2 (that is their whole purpose).
    const std::vector<geo::Polygon> target = {geo::Polygon::from_rect({215, 215, 285, 285})};
    const std::vector<geo::Polygon> mask = {geo::Polygon::from_rect({209, 209, 291, 291})};
    const SquishOptions opt{.window_nm = 500, .size = 32};
    const nn::Tensor t = encode_squish_window(mask, target, {250.0, 215.0}, opt);

    double diff = 0.0;
    for (int r = 0; r < 32; ++r) {
        for (int c = 0; c < 32; ++c) {
            diff += std::abs(t.at(0, r, c) - t.at(3, r, c)) +
                    std::abs(t.at(1, r, c) - t.at(4, r, c)) +
                    std::abs(t.at(2, r, c) - t.at(5, r, c));
        }
    }
    EXPECT_GT(diff, 0.1);
}

TEST(Squish, DenseGeometryStillFixedSize) {
    // More scanlines than the grid size forces merging.
    std::vector<geo::Polygon> mask;
    for (int i = 0; i < 30; ++i) {
        const int x = 10 + i * 16;
        mask.push_back(geo::Polygon::from_rect({x, 100, x + 8, 400}));
    }
    const SquishOptions opt{.window_nm = 500, .size = 8};
    const nn::Tensor t = encode_squish_window(mask, mask, {250.0, 250.0}, opt);
    EXPECT_EQ(t.shape(), (std::vector<int>{6, 8, 8}));
    const double norm = std::log1p(500.0);
    double dx_sum = 0.0;
    for (int c = 0; c < 8; ++c) dx_sum += std::expm1(t.at(1, 0, c) * norm);
    EXPECT_NEAR(dx_sum, 500.0, 0.5);
}

TEST(Graph, EdgesRespectThreshold) {
    // Two vias 300 nm apart (centre to centre), threshold 250: edges only
    // within each via's own 4 segments (max control distance ~70 nm).
    geo::SegmentedLayout layout({geo::Polygon::from_rect({0, 0, 70, 70}),
                                 geo::Polygon::from_rect({300, 0, 370, 70})},
                                {geo::FragmentStyle::kVia, 60}, {}, 2000);
    const Graph g = build_segment_graph(layout, 250.0);
    EXPECT_EQ(g.n, 8);
    // Within-via: all 4 segments pairwise close -> degree >= 3.
    for (int v = 0; v < 4; ++v) EXPECT_GE(g.degree(v), 3);
    // Across vias: the leftmost segment of via 0 and rightmost of via 1 are
    // ~335 nm apart -> never adjacent.
    const Graph tight = build_segment_graph(layout, 100.0);
    EXPECT_LT(tight.edge_count(), g.edge_count());
}

TEST(Graph, LargeThresholdConnectsAll) {
    geo::SegmentedLayout layout({geo::Polygon::from_rect({0, 0, 70, 70}),
                                 geo::Polygon::from_rect({300, 0, 370, 70})},
                                {geo::FragmentStyle::kVia, 60}, {}, 2000);
    const Graph g = build_segment_graph(layout, 10000.0);
    EXPECT_EQ(g.edge_count(), 8 * 7 / 2);  // complete graph
    for (int v = 0; v < g.n; ++v) {
        for (int u : g.neighbors[static_cast<std::size_t>(v)]) EXPECT_NE(u, v);  // no self loops
    }
}

TEST(Graph, SymmetricAdjacency) {
    geo::SegmentedLayout layout({geo::Polygon::from_rect({0, 0, 200, 50})},
                                {geo::FragmentStyle::kMetal, 60}, {}, 2000);
    const Graph g = build_segment_graph(layout, 250.0);
    for (int v = 0; v < g.n; ++v) {
        for (int u : g.neighbors[static_cast<std::size_t>(v)]) {
            const auto& back = g.neighbors[static_cast<std::size_t>(u)];
            EXPECT_NE(std::find(back.begin(), back.end(), v), back.end());
        }
    }
}

// ---- One-pass state encoder: bit identity with the reference -------------

// Randomized polygon soup: rects, L-shapes, combs dense enough to force the
// merge regime, clockwise rects, and rects with a repeated vertex (a
// zero-length edge).
std::vector<geo::Polygon> random_polygons(Rng& rng, int count) {
    std::vector<geo::Polygon> polys;
    for (int i = 0; i < count; ++i) {
        const int x = rng.uniform_int(-100, 1000);
        const int y = rng.uniform_int(-100, 1000);
        const int w = rng.uniform_int(1, 200);
        const int h = rng.uniform_int(1, 200);
        switch (rng.uniform_int(0, 4)) {
            case 0:
                polys.push_back(geo::Polygon::from_rect({x, y, x + w, y + h}));
                break;
            case 1: {
                const int a = rng.uniform_int(1, w);
                const int b = rng.uniform_int(1, h);
                polys.emplace_back(std::vector<geo::Point>{{x, y},
                                                           {x + w, y},
                                                           {x + w, y + b},
                                                           {x + a, y + b},
                                                           {x + a, y + h},
                                                           {x, y + h}});
                break;
            }
            case 2:
                for (int k = 0; k < 12; ++k) {
                    const int cx = x + k * 9;
                    polys.push_back(geo::Polygon::from_rect({cx, y, cx + 4, y + h}));
                }
                break;
            case 3:
                polys.emplace_back(std::vector<geo::Point>{
                    {x, y}, {x, y + h}, {x + w, y + h}, {x + w, y}});
                break;
            default:
                polys.emplace_back(std::vector<geo::Point>{
                    {x, y}, {x + w, y}, {x + w, y}, {x + w, y + h}, {x, y + h}});
                break;
        }
    }
    return polys;
}

// Jogged mask polygons: a fragmented 24-point metal clip with random
// per-segment offsets.
geo::SegmentedLayout metal_layout(std::uint64_t seed) {
    Rng rng(seed);
    layout::MetalGenOptions opt;
    opt.clip_nm = 1000;
    opt.margin_nm = 120;
    return geo::SegmentedLayout(layout::generate_metal_clip(24, rng, opt),
                                {geo::FragmentStyle::kMetal, 60}, {}, opt.clip_nm);
}

std::vector<int> random_offsets(Rng& rng, int n) {
    std::vector<int> offsets(static_cast<std::size_t>(n));
    for (int& o : offsets) o = rng.uniform_int(-8, 8);
    return offsets;
}

bool bitwise_equal(const nn::Tensor& a, const nn::Tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.data().data(), b.data().data(), a.numel() * sizeof(float)) == 0;
}

std::vector<geo::FPoint> random_centers(Rng& rng, int count) {
    std::vector<geo::FPoint> centers;
    for (int i = 0; i < count; ++i) {
        // Integer centres land window borders on edge coordinates; half
        // integers put them between.
        const double jitter = rng.uniform_int(0, 1) * 0.5;
        centers.push_back({rng.uniform_int(-300, 1300) + jitter,
                           rng.uniform_int(-300, 1300) + jitter});
    }
    return centers;
}

// Encode every centre in one call and compare each tensor with the
// reference; returns the number of windows checked.
int expect_matches_reference(std::span<const geo::Polygon> mask,
                             std::span<const geo::Polygon> targets,
                             const std::vector<geo::FPoint>& centers, const SquishOptions& opt) {
    std::vector<nn::Tensor> out;
    encode_squish_windows(mask, targets, centers, opt, out);
    EXPECT_EQ(out.size(), centers.size());
    for (std::size_t i = 0; i < centers.size() && i < out.size(); ++i) {
        const nn::Tensor ref = reference::encode_squish_window(mask, targets, centers[i], opt);
        EXPECT_TRUE(bitwise_equal(out[i], ref))
            << "centre (" << centers[i].x << ", " << centers[i].y << ") window " << opt.window_nm
            << " size " << opt.size;
    }
    return static_cast<int>(centers.size());
}

TEST(SquishBitIdentity, RandomPolygonSetsMatchReference) {
    Rng rng(11);
    int windows = 0;
    for (const int window : {300, 500}) {
        for (const int size : {8, 16, 32, 64, 128}) {
            const SquishOptions opt{.window_nm = window, .size = size};
            for (int trial = 0; trial < 8; ++trial) {
                const auto mask = random_polygons(rng, rng.uniform_int(1, 10));
                const auto targets = random_polygons(rng, rng.uniform_int(1, 6));
                windows += expect_matches_reference(mask, targets, random_centers(rng, 16), opt);
            }
        }
    }
    EXPECT_EQ(windows, 2 * 5 * 8 * 16);
}

TEST(SquishBitIdentity, JoggedMetalMasksMatchReference) {
    Rng rng(12);
    for (const int window : {300, 500}) {
        for (const int size : {8, 16, 32, 64, 128}) {
            const SquishOptions opt{.window_nm = window, .size = size};
            const geo::SegmentedLayout layout = metal_layout(20 + static_cast<std::uint64_t>(size));
            std::vector<geo::FPoint> centers;
            for (const geo::Segment& s : layout.segments()) centers.push_back(s.control());
            for (int state = 0; state < 2; ++state) {
                const auto mask =
                    layout.reconstruct_mask(random_offsets(rng, layout.num_segments()));
                expect_matches_reference(mask, layout.targets(), centers, opt);
            }
        }
    }
}

TEST(SquishBitIdentity, DegenerateInputsMatchReference) {
    Rng rng(13);
    const std::vector<geo::Polygon> none;
    // Zero-length edges, a single-point polygon, and a slanted edge (whose
    // upward-ray winding is not zero below the polygon, so it must never be
    // culled from below).
    const std::vector<geo::Polygon> degenerate = {
        geo::Polygon(std::vector<geo::Point>{{100, 100}, {100, 100}, {200, 100}, {200, 300},
                                             {100, 300}}),
        geo::Polygon(std::vector<geo::Point>{{400, 250}, {400, 250}, {400, 250}, {400, 250}}),
        geo::Polygon(std::vector<geo::Point>{{0, 0}}),
        geo::Polygon(std::vector<geo::Point>{{600, 100}, {700, 100}, {600, 200}}),
    };
    for (const int window : {300, 500}) {
        for (const int size : {8, 16, 32, 64, 128}) {
            const SquishOptions opt{.window_nm = window, .size = size};
            const auto polys = random_polygons(rng, 5);
            const auto centers = random_centers(rng, 6);
            expect_matches_reference(polys, none, centers, opt);        // empty targets
            expect_matches_reference(none, polys, centers, opt);        // empty mask
            expect_matches_reference(none, none, centers, opt);         // nothing at all
            expect_matches_reference(degenerate, polys, centers, opt);  // zero-length edges
            expect_matches_reference(polys, degenerate, centers, opt);
            // Windows far from every polygon: scanlines of all polygons still
            // count on the axis they do not miss.
            expect_matches_reference(polys, polys, {{5000.0, 400.0}, {400.0, -5000.0}}, opt);
            expect_matches_reference(degenerate, none, {{650.0, -100.0}, {650.0, 0.5}}, opt);
        }
    }
}

TEST(SquishBitIdentity, ReusedBuffersEqualFreshEncode) {
    Rng rng(14);
    const auto mask = random_polygons(rng, 8);
    const auto targets = random_polygons(rng, 4);
    const auto centers = random_centers(rng, 6);
    const SquishOptions opt{.window_nm = 500, .size = 16};
    std::vector<nn::Tensor> fresh;
    encode_squish_windows(mask, targets, centers, opt, fresh);

    // NaN-filled tensors of the right shape, tensors of the wrong shape,
    // default-constructed ones, and more tensors than centres.
    std::vector<nn::Tensor> reused;
    for (int i = 0; i < 3; ++i) {
        nn::Tensor t({6, 16, 16});
        t.fill(std::numeric_limits<float>::quiet_NaN());
        reused.push_back(std::move(t));
    }
    reused.emplace_back(std::vector<int>{6, 16, 17});
    reused.emplace_back(std::vector<int>{3, 16, 16});
    reused.emplace_back();
    reused.emplace_back(std::vector<int>{6, 16, 16});
    const float* kept = reused[0].data().data();
    encode_squish_windows(mask, targets, centers, opt, reused);
    ASSERT_EQ(reused.size(), fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
        EXPECT_TRUE(bitwise_equal(reused[i], fresh[i])) << "tensor " << i;
    }
    EXPECT_EQ(reused[0].data().data(), kept);  // right shape: storage reused

    // A second state through the same buffers.
    const auto mask2 = random_polygons(rng, 8);
    std::vector<nn::Tensor> fresh2;
    encode_squish_windows(mask2, targets, centers, opt, fresh2);
    encode_squish_windows(mask2, targets, centers, opt, reused);
    for (std::size_t i = 0; i < fresh2.size(); ++i) {
        EXPECT_TRUE(bitwise_equal(reused[i], fresh2[i])) << "tensor " << i;
    }
}

TEST(SquishBitIdentity, RejectsNonPositiveOptions) {
    const std::vector<geo::Polygon> mask = {geo::Polygon::from_rect({0, 0, 70, 70})};
    const std::vector<geo::FPoint> centers = {{35.0, 35.0}};
    std::vector<nn::Tensor> out;
    const auto message = [&](const SquishOptions& opt) -> std::string {
        try {
            encode_squish_windows(mask, mask, centers, opt, out);
        } catch (const std::invalid_argument& e) {
            return e.what();
        }
        return "";
    };
    for (const int window : {0, -500}) {
        EXPECT_NE(message({.window_nm = window, .size = 16}).find("window_nm"), std::string::npos);
    }
    for (const int size : {0, -4}) {
        EXPECT_NE(message({.window_nm = 500, .size = size}).find("size"), std::string::npos);
    }
    EXPECT_THROW((void)encode_squish_window(mask, mask, {35.0, 35.0}, {.window_nm = 0, .size = 8}),
                 std::invalid_argument);
    const std::vector<geo::FPoint> bad = {{std::numeric_limits<double>::quiet_NaN(), 0.0}};
    EXPECT_THROW(encode_squish_windows(mask, mask, bad, {.window_nm = 500, .size = 8}, out),
                 std::invalid_argument);
}

CamoConfig tiny_camo_config() {
    CamoConfig cfg;
    cfg.policy.squish_size = 16;
    cfg.policy.embed_dim = 32;
    cfg.policy.rnn_hidden = 16;
    cfg.policy.rnn_layers = 2;
    cfg.policy.conv_base = 4;
    cfg.squish.size = 16;
    cfg.squish.window_nm = 500;
    return cfg;
}

TEST(SquishBitIdentity, ReusingEncodeStateMatchesReturningAndReference) {
    const CamoEngine engine(tiny_camo_config());
    const geo::SegmentedLayout layout = metal_layout(31);
    ASSERT_GT(layout.num_segments(), 0);
    Rng rng(15);
    std::vector<nn::Tensor> buffer;
    for (int step = 0; step < 3; ++step) {
        const auto offsets = random_offsets(rng, layout.num_segments());
        engine.encode_state(layout, offsets, buffer);
        const std::vector<nn::Tensor> returned = engine.encode_state(layout, offsets);
        ASSERT_EQ(buffer.size(), returned.size());
        const auto mask = layout.reconstruct_mask(offsets);
        for (std::size_t i = 0; i < returned.size(); ++i) {
            EXPECT_TRUE(bitwise_equal(buffer[i], returned[i])) << "step " << step << " node " << i;
            const nn::Tensor ref = reference::encode_squish_window(
                mask, layout.targets(), layout.segments()[i].control(), engine.config().squish);
            EXPECT_TRUE(bitwise_equal(returned[i], ref)) << "step " << step << " node " << i;
        }
    }
}

TEST(SquishBitIdentity, ConcurrentEncodeStateIsDeterministic) {
    // Trainer workers encode states concurrently: 4 threads, one engine,
    // private buffers, identical results.
    const CamoEngine engine(tiny_camo_config());
    const geo::SegmentedLayout layout = metal_layout(32);
    Rng rng(16);
    std::vector<std::vector<int>> states;
    for (int i = 0; i < 8; ++i) states.push_back(random_offsets(rng, layout.num_segments()));
    std::vector<std::vector<nn::Tensor>> serial;
    for (const auto& s : states) serial.push_back(engine.encode_state(layout, s));

    constexpr int kThreads = 4;
    std::vector<std::vector<std::vector<nn::Tensor>>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            std::vector<nn::Tensor> buffer;
            for (int round = 0; round < 3; ++round) {
                for (std::size_t k = 0; k < states.size(); ++k) {
                    const std::size_t s = (k + static_cast<std::size_t>(t)) % states.size();
                    engine.encode_state(layout, states[s], buffer);
                    if (round == 2) got[static_cast<std::size_t>(t)].push_back(buffer);
                }
            }
        });
    }
    for (std::thread& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t) {
        for (std::size_t k = 0; k < states.size(); ++k) {
            const std::size_t s = (k + static_cast<std::size_t>(t)) % states.size();
            const auto& a = got[static_cast<std::size_t>(t)][k];
            ASSERT_EQ(a.size(), serial[s].size());
            for (std::size_t i = 0; i < a.size(); ++i) {
                EXPECT_TRUE(bitwise_equal(a[i], serial[s][i])) << "thread " << t << " state " << s;
            }
        }
    }
}

}  // namespace
}  // namespace camo::core
