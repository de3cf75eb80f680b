#include "core/squish.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace camo::core {
namespace {

using Coords = std::vector<double>;

// One end of a horizontal edge as Polygon::contains sees it: a point at or
// below height y whose x is at or right of x gains winding w (+1 at the
// left end of a leftward edge, -1 at its right end; the opposite for a
// rightward edge), so the edge counts over its half-open x-span.
struct Event {
    int x = 0;
    int y = 0;
    int w = 0;
};

// A polygon's edge events sorted by x, and the box outside which
// Polygon::contains is false. contains() casts an upward ray and sums the
// horizontal edges above the point whose half-open x-span holds it: nothing
// counts left of box.xlo, at or right of box.xhi, or above box.yhi. Below
// box.ylo the ray crosses every horizontal edge over that x, and on a
// closed outline of axis-parallel edges those crossings cancel; a polygon
// with a slanted edge is therefore never culled from below.
struct Shape {
    geo::Rect box;
    bool axis_parallel = true;
    std::vector<Event> events;
};

std::vector<Shape> make_shapes(std::span<const geo::Polygon> polys) {
    std::vector<Shape> shapes;
    shapes.reserve(polys.size());
    for (const geo::Polygon& p : polys) {
        if (p.empty()) continue;  // contains() is always false
        Shape s{p.bbox(), true, {}};
        const auto& v = p.vertices();
        for (std::size_t i = 0; i < v.size(); ++i) {
            const geo::Point& a = v[i];
            const geo::Point& b = v[(i + 1) % v.size()];
            if (a.x != b.x && a.y != b.y) s.axis_parallel = false;
            if (a.y != b.y || a.x == b.x) continue;
            const int w = b.x < a.x ? 1 : -1;
            s.events.push_back({std::min(a.x, b.x), a.y, w});
            s.events.push_back({std::max(a.x, b.x), a.y, -w});
        }
        std::sort(s.events.begin(), s.events.end(),
                  [](const Event& l, const Event& r) { return l.x < r.x; });
        shapes.push_back(std::move(s));
    }
    return shapes;
}

// Append the coordinates of every vertical edge (to xs) and horizontal edge
// (to ys); a zero-length edge is both.
void append_edge_coords(std::span<const geo::Polygon> polys, Coords& xs, Coords& ys) {
    for (const geo::Polygon& poly : polys) {
        const auto& v = poly.vertices();
        for (std::size_t i = 0; i < v.size(); ++i) {
            const geo::Point& a = v[i];
            const geo::Point& b = v[(i + 1) % v.size()];
            if (a.x == b.x) xs.push_back(a.x);
            if (a.y == b.y) ys.push_back(a.y);
        }
    }
}

void sort_unique(Coords& c) {
    std::sort(c.begin(), c.end());
    c.erase(std::unique(c.begin(), c.end()), c.end());
}

// A window's scanlines: its borders plus every coordinate strictly inside.
void window_lines(const Coords& all, double lo, double hi, Coords& out) {
    out.clear();
    out.push_back(lo);
    const auto first = std::upper_bound(all.begin(), all.end(), lo);
    out.insert(out.end(), first, std::lower_bound(first, all.end(), hi));
    out.push_back(hi);
}

// Shapes that can contain a point of the closed window (every raw cell
// centre lies in it).
void window_shapes(const std::vector<Shape>& all, double xlo, double xhi, double ylo, double yhi,
                   std::vector<const Shape*>& out) {
    out.clear();
    for (const Shape& s : all) {
        if (s.box.xhi >= xlo && s.box.xlo <= xhi && s.box.yhi >= ylo &&
            (!s.axis_parallel || s.box.ylo <= yhi)) {
            out.push_back(&s);
        }
    }
}

// Shapes that can contain a point on the row at height y.
void row_shapes(const std::vector<const Shape*>& window, double y,
                std::vector<const Shape*>& out) {
    out.clear();
    for (const Shape* s : window) {
        if (y <= s->box.yhi && (!s->axis_parallel || y >= s->box.ylo)) out.push_back(s);
    }
}

// hit[c] = whether some shape contains (xs[c], y), with xs ascending:
// Polygon::contains evaluated for a whole row in one sweep per shape, as the
// running sum of the events at or left of each x.
void cover_row(const std::vector<const Shape*>& shapes, double y, const std::vector<double>& xs,
               std::vector<char>& hit) {
    hit.assign(xs.size(), 0);
    for (const Shape* s : shapes) {
        int winding = 0;
        auto e = s->events.begin();
        const auto end = s->events.end();
        for (std::size_t c = 0; c < xs.size(); ++c) {
            for (; e != end && e->x <= xs[c]; ++e) {
                if (!(e->y < y)) winding += e->w;
            }
            if (winding != 0) {
                hit[c] = 1;
            } else if (e == end) {
                break;
            }
        }
    }
}

// Merged occupancy keeps the stronger-magnitude value (the earlier one on
// ties) so signed movement cells survive merging with empty cells.
float merge(float a, float b) { return std::abs(a) >= std::abs(b) ? a : b; }

// One output cell of an axis: its spacing and the raw cells [first, last]
// it covers.
struct Cell {
    double d = 0.0;
    int first = 0;
    int last = 0;
};

// Resize the raw spacings to exactly `target` cells: split the widest cell
// (first maximum) in exact halves while short, merge the narrowest adjacent
// pair (first minimum) while long.
void adapt_axis(const std::vector<double>& raw, int target, std::vector<Cell>& cells) {
    cells.resize(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
        cells[i] = {raw[i], static_cast<int>(i), static_cast<int>(i)};
    }

    while (static_cast<int>(cells.size()) < target) {
        const auto it = std::max_element(cells.begin(), cells.end(),
                                         [](const Cell& a, const Cell& b) { return a.d < b.d; });
        it->d /= 2.0;
        const Cell half = *it;
        cells.insert(it, half);
    }

    while (static_cast<int>(cells.size()) > target) {
        std::size_t best = 0;
        double best_sum = 1e300;
        for (std::size_t i = 0; i + 1 < cells.size(); ++i) {
            const double s = cells[i].d + cells[i + 1].d;
            if (s < best_sum) {
                best_sum = s;
                best = i;
            }
        }
        cells[best].d += cells[best + 1].d;
        cells[best].last = cells[best + 1].last;
        cells.erase(cells.begin() + static_cast<std::ptrdiff_t>(best) + 1);
    }
}

// Per-call scratch shared by every window: the state's scanline sets and
// culling boxes, plus one grid's buffers (reused window after window).
class Encoder {
public:
    Encoder(std::span<const geo::Polygon> mask, std::span<const geo::Polygon> targets,
            const SquishOptions& opt)
        : mask_(make_shapes(mask)),
          targets_(make_shapes(targets)),
          signed_(!targets.empty()),
          size_(opt.size),
          half_(opt.window_nm / 2.0),
          norm_(std::log1p(opt.window_nm)) {
        append_edge_coords(mask, mask_xs_, mask_ys_);
        all_xs_ = mask_xs_;
        all_ys_ = mask_ys_;
        append_edge_coords(targets, all_xs_, all_ys_);
        for (Coords* c : {&mask_xs_, &mask_ys_, &all_xs_, &all_ys_}) sort_unique(*c);
    }

    // Write the [6, size, size] encoding of the window at `center` to `out`.
    void encode(geo::FPoint center, float* out) {
        const double xlo = center.x - half_;
        const double xhi = center.x + half_;
        const double ylo = center.y - half_;
        const double yhi = center.y + half_;
        window_shapes(mask_, xlo, xhi, ylo, yhi, win_mask_);
        window_shapes(targets_, xlo, xhi, ylo, yhi, win_targets_);

        const std::size_t plane = static_cast<std::size_t>(size_) * static_cast<std::size_t>(size_);
        // Channels 0-2: mask-geometry scanlines, plain mask occupancy.
        window_lines(mask_xs_, xlo, xhi, xs_);
        window_lines(mask_ys_, ylo, yhi, ys_);
        block(false, out);
        // Channels 3-5: extra scanlines at target edges, signed mask-minus-
        // target occupancy highlighting every segment's movement.
        window_lines(all_xs_, xlo, xhi, xs_);
        window_lines(all_ys_, ylo, yhi, ys_);
        block(signed_, out + 3 * plane);
    }

private:
    // One 3-channel block over the scanlines in xs_/ys_.
    void block(bool with_targets, float* out) {
        spacings(xs_, dx_);
        spacings(ys_, dy_);
        occupancy(with_targets);
        adapt_axis(dx_, size_, cols_);
        adapt_axis(dy_, size_, rows_);
        emit(out);
    }

    static void spacings(const Coords& lines, std::vector<double>& d) {
        d.resize(lines.size() - 1);
        for (std::size_t i = 0; i + 1 < lines.size(); ++i) d[i] = lines[i + 1] - lines[i];
    }

    // Occupancy of the mask alone, or — with targets — a signed movement
    // map: where mask and target coverage differ, the cell holds
    // sign * 2 * (1 + log1p(sliver width in nm)), + for mask growth and -
    // for recession. This is what "highlighting the edge movements" (paper
    // Sec. 3.2) needs in a learnable form: both the direction and the
    // magnitude of each segment's accumulated movement are first-class pixel
    // values. The sliver is the raw cell's shorter side; its log is taken
    // once per raw column and row.
    void occupancy(bool with_targets) {
        const std::size_t cols = dx_.size();
        const std::size_t rows = dy_.size();
        occ_.resize(rows * cols);
        if (with_targets) {
            mag_x_.resize(cols);
            mag_y_.resize(rows);
            for (std::size_t c = 0; c < cols; ++c) mag_x_[c] = magnitude(dx_[c]);
            for (std::size_t r = 0; r < rows; ++r) mag_y_[r] = magnitude(dy_[r]);
        }
        cx_.resize(cols);
        for (std::size_t c = 0; c < cols; ++c) cx_[c] = 0.5 * (xs_[c] + xs_[c + 1]);
        for (std::size_t r = 0; r < rows; ++r) {
            const double cy = 0.5 * (ys_[r] + ys_[r + 1]);
            row_shapes(win_mask_, cy, row_candidates_);
            cover_row(row_candidates_, cy, cx_, in_mask_);
            if (with_targets) {
                row_shapes(win_targets_, cy, row_candidates_);
                cover_row(row_candidates_, cy, cx_, in_target_);
            }
            float* row = occ_.data() + r * cols;
            for (std::size_t c = 0; c < cols; ++c) {
                float v = in_mask_[c] != 0 ? 1.0F : 0.0F;
                if (with_targets && in_mask_[c] != in_target_[c]) {
                    const float mag = dy_[r] < dx_[c] ? mag_y_[r] : mag_x_[c];
                    v = in_mask_[c] != 0 ? mag : -mag;
                }
                row[c] = v;
            }
        }
    }

    static float magnitude(double sliver) {
        return 2.0F * (1.0F + static_cast<float>(std::log1p(sliver)));
    }

    // Gather the raw occupancy through the column then row source ranges,
    // and write the log-scaled spacings. Spacings use a log scale: OPC
    // decisions hinge on few-nm slivers between mask and target scanlines,
    // which a linear delta / window encoding would map to values of order
    // 1e-3 the CNN could barely amplify.
    void emit(float* out) {
        const auto s = static_cast<std::size_t>(size_);
        const std::size_t raw_cols = xs_.size() - 1;
        const std::size_t raw_rows = ys_.size() - 1;

        col_reduced_.resize(raw_rows * s);
        for (std::size_t rr = 0; rr < raw_rows; ++rr) {
            const float* src = occ_.data() + rr * raw_cols;
            float* dst = col_reduced_.data() + rr * s;
            for (std::size_t c = 0; c < s; ++c) {
                const auto lo = static_cast<std::size_t>(cols_[c].first);
                const auto hi = static_cast<std::size_t>(cols_[c].last);
                float v = src[lo];
                for (std::size_t k = lo + 1; k <= hi; ++k) v = merge(v, src[k]);
                dst[c] = v;
            }
        }
        for (std::size_t r = 0; r < s; ++r) {
            float* dst = out + r * s;
            const auto lo = static_cast<std::size_t>(rows_[r].first);
            const auto hi = static_cast<std::size_t>(rows_[r].last);
            std::copy_n(col_reduced_.data() + lo * s, s, dst);
            for (std::size_t k = lo + 1; k <= hi; ++k) {
                const float* src = col_reduced_.data() + k * s;
                for (std::size_t c = 0; c < s; ++c) dst[c] = merge(dst[c], src[c]);
            }
        }

        float* dx_plane = out + s * s;
        float* dy_plane = dx_plane + s * s;
        for (std::size_t c = 0; c < s; ++c) {
            dx_plane[c] = static_cast<float>(std::log1p(cols_[c].d) / norm_);
        }
        for (std::size_t r = 1; r < s; ++r) std::copy_n(dx_plane, s, dx_plane + r * s);
        for (std::size_t r = 0; r < s; ++r) {
            std::fill_n(dy_plane + r * s, s, static_cast<float>(std::log1p(rows_[r].d) / norm_));
        }
    }

    std::vector<Shape> mask_, targets_;
    bool signed_;
    int size_;
    double half_, norm_;
    Coords mask_xs_, mask_ys_, all_xs_, all_ys_;

    std::vector<const Shape*> win_mask_, win_targets_, row_candidates_;
    Coords xs_, ys_, cx_;
    std::vector<char> in_mask_, in_target_;
    std::vector<double> dx_, dy_;
    std::vector<Cell> cols_, rows_;
    std::vector<float> occ_, col_reduced_, mag_x_, mag_y_;
};

}  // namespace

void encode_squish_windows(std::span<const geo::Polygon> mask,
                           std::span<const geo::Polygon> targets,
                           std::span<const geo::FPoint> centers, const SquishOptions& opt,
                           std::vector<nn::Tensor>& out) {
    if (opt.window_nm <= 0) {
        throw std::invalid_argument(
            "encode_squish_windows: SquishOptions::window_nm must be > 0, got " +
            std::to_string(opt.window_nm));
    }
    if (opt.size <= 0) {
        throw std::invalid_argument("encode_squish_windows: SquishOptions::size must be > 0, got " +
                                    std::to_string(opt.size));
    }
    for (const geo::FPoint& c : centers) {
        if (!std::isfinite(c.x) || !std::isfinite(c.y)) {
            throw std::invalid_argument("encode_squish_windows: window centre is not finite");
        }
    }

    Encoder enc(mask, targets, opt);
    const std::vector<int> shape{kSquishChannels, opt.size, opt.size};
    out.resize(centers.size());
    for (std::size_t i = 0; i < centers.size(); ++i) {
        if (out[i].shape() != shape) out[i] = nn::Tensor(shape);
        enc.encode(centers[i], out[i].data().data());
    }
}

nn::Tensor encode_squish_window(std::span<const geo::Polygon> mask,
                                std::span<const geo::Polygon> targets, geo::FPoint center,
                                const SquishOptions& opt) {
    std::vector<nn::Tensor> out;
    encode_squish_windows(mask, targets, std::span<const geo::FPoint>(&center, 1), opt, out);
    return std::move(out.front());
}

}  // namespace camo::core
