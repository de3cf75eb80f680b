#include "litho/aerial.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "common/simd.hpp"

namespace camo::litho {
namespace {

int wrap(int k, int n) { return ((k % n) + n) % n; }

}  // namespace

geo::Raster rasterize_clip(const LithoConfig& cfg, std::span<const geo::Polygon> mask,
                           std::span<const geo::Polygon> srafs, int clip_size_nm) {
    const int off = cfg.clip_frame_offset_nm(clip_size_nm);
    geo::Raster raster(cfg.grid, cfg.pixel_nm);

    auto add_translated = [&raster, off](const geo::Polygon& p) {
        std::vector<geo::Point> verts = p.vertices();
        for (geo::Point& v : verts) {
            v.x += off;
            v.y += off;
        }
        raster.add_polygon(geo::Polygon(std::move(verts)));
    };

    for (const geo::Polygon& p : mask) add_translated(p);
    for (const geo::Polygon& p : srafs) add_translated(p);
    raster.clamp01();
    return raster;
}

std::vector<Complex> mask_spectrum(const geo::Raster& mask) {
    const int n = mask.n();
    std::vector<Complex> buf(static_cast<std::size_t>(n) * n);
    const auto data = mask.data();
    for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = Complex(data[i], 0.0F);
    fft2d_forward(buf, n);
    return buf;
}

// One buffer per thread (not per applicator or evaluator) keeps the
// simulators of a batch from each holding their own.
std::span<Complex> fine_scratch(std::size_t size) {
    thread_local std::vector<Complex> buffer;
    if (buffer.size() < size) buffer.resize(size);
    return {buffer.data(), size};
}

KernelApplicator::KernelApplicator(KernelSet kernels, int grid)
    : kernels_(std::move(kernels)), n_(grid) {
    if (!is_pow2(n_)) throw std::invalid_argument("KernelApplicator: grid must be a power of two");

    int radius = 0;
    for (const FreqIndex& f : kernels_.support) {
        radius = std::max({radius, std::abs(f.kx), std::abs(f.ky)});
    }

    // Coherent fields are band-limited to `radius`, the intensity (their
    // squared modulus) to 2 * radius; a coarse grid of 4 * radius + 2 maps
    // the intensity band injectively, so the coarse image is exact.
    int m = 1;
    while (m < 4 * radius + 2) m <<= 1;
    m_ = std::min(m, n_);

    pos_.reserve(kernels_.support.size());
    mpos_.reserve(kernels_.support.size());
    mrow_nonzero_.assign(static_cast<std::size_t>(m_), 0);
    for (const FreqIndex& f : kernels_.support) {
        pos_.push_back(wrap(f.ky, n_) * n_ + wrap(f.kx, n_));
        const int row = wrap(f.ky, m_);
        mpos_.push_back(row * m_ + wrap(f.kx, m_));
        mrow_nonzero_[static_cast<std::size_t>(row)] = 1;
    }

    if (m_ < n_) {
        const int band = std::min(2 * radius, n_ / 2 - 1);
        nrow_nonzero_.assign(static_cast<std::size_t>(n_), 0);
        for (int dy = -band; dy <= band; ++dy) {
            for (int dx = -band; dx <= band; ++dx) {
                band_src_.push_back(wrap(dy, m_) * m_ + wrap(dx, m_));
                band_dst_.push_back(wrap(dy, n_) * n_ + wrap(dx, n_));
            }
            nrow_nonzero_[static_cast<std::size_t>(wrap(dy, n_))] = 1;
        }
        upsample_scale_ =
            static_cast<float>(static_cast<double>(m_) * m_ / (static_cast<double>(n_) * n_));
    }
}

std::vector<float> KernelApplicator::coarse_intensity(
    std::span<const Complex> support_vals) const {
    if (support_vals.size() != mpos_.size()) {
        throw std::invalid_argument("KernelApplicator: support value count mismatch");
    }
    const std::size_t support = mpos_.size();
    const std::size_t mm = static_cast<std::size_t>(m_) * static_cast<std::size_t>(m_);

    std::vector<Complex> prod(support);
    std::vector<Complex> field(mm);
    std::vector<float> intensity(mm, 0.0F);

    // The coefficient multiply and the SOCS |field|^2 accumulation are the
    // applicator's contiguous hot loops; both route through the dispatched
    // SIMD kernels (common/simd.hpp), which give the scalar bits at every
    // level.
    const simd::Ops& ops = simd::ops();
    for (int k = 0; k < kernels_.count(); ++k) {
        const auto kk = static_cast<std::size_t>(k);
        ops.cmul(kernels_.coeffs[kk].data(), support_vals.data(), prod.data(), support);

        std::fill(field.begin(), field.end(), Complex{});
        for (std::size_t i = 0; i < support; ++i) field[static_cast<std::size_t>(mpos_[i])] = prod[i];
        fft2d_inverse_rowsparse(field, m_, mrow_nonzero_);

        ops.norm_acc(field.data(), static_cast<float>(kernels_.eigenvalues[kk]), intensity.data(),
                     mm);
    }
    return intensity;
}

void KernelApplicator::upsample(std::span<const float> re, std::span<const float> im,
                                geo::Raster& out_re, geo::Raster* out_im) const {
    if (m_ == n_) {
        std::copy(re.begin(), re.end(), out_re.data().begin());
        if (out_im != nullptr) std::copy(im.begin(), im.end(), out_im->data().begin());
        return;
    }

    // Exact band-limited upsample: forward FFT of the coarse intensity,
    // scatter its band into the fine lattice, inverse FFT at full size. Both
    // coarse images are real and the band is symmetric (|k| <= 2R < m/2),
    // so each one's truncated spectrum stays Hermitian: the inverse returns
    // re's image in the real part and im's in the imaginary part.
    std::vector<Complex> coarse(re.size());
    for (std::size_t i = 0; i < coarse.size(); ++i) {
        coarse[i] = Complex(re[i], im.empty() ? 0.0F : im[i]);
    }
    fft2d_forward(coarse, m_);

    const std::span<Complex> fine =
        fine_scratch(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_));
    std::fill(fine.begin(), fine.end(), Complex{});
    for (std::size_t i = 0; i < band_src_.size(); ++i) {
        fine[static_cast<std::size_t>(band_dst_[i])] =
            coarse[static_cast<std::size_t>(band_src_[i])] * upsample_scale_;
    }
    fft2d_inverse_rowsparse(fine, n_, nrow_nonzero_);

    const auto dst_re = out_re.data();
    for (std::size_t i = 0; i < fine.size(); ++i) dst_re[i] = fine[i].real();
    if (out_im != nullptr) {
        const auto dst_im = out_im->data();
        for (std::size_t i = 0; i < fine.size(); ++i) dst_im[i] = fine[i].imag();
    }
}

geo::Raster KernelApplicator::apply(std::span<const Complex> spectrum, double pixel_nm) const {
    if (spectrum.size() != static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_)) {
        throw std::invalid_argument("KernelApplicator: spectrum size mismatch");
    }
    std::vector<Complex> support_vals(pos_.size());
    for (std::size_t i = 0; i < pos_.size(); ++i) {
        support_vals[i] = spectrum[static_cast<std::size_t>(pos_[i])];
    }
    return apply_support(support_vals, pixel_nm);
}

geo::Raster KernelApplicator::apply_support(std::span<const Complex> support_vals,
                                            double pixel_nm) const {
    geo::Raster out(n_, pixel_nm);
    upsample(coarse_intensity(support_vals), {}, out, nullptr);
    return out;
}

std::pair<geo::Raster, geo::Raster> KernelApplicator::apply_pair(
    std::span<const Complex> support_vals, const KernelApplicator& other,
    std::span<const Complex> other_vals, double pixel_nm) const {
    if (n_ != other.n_ || m_ != other.m_ || band_src_.size() != other.band_src_.size()) {
        throw std::invalid_argument("KernelApplicator: paired planes need the same grids and band");
    }
    std::pair<geo::Raster, geo::Raster> out{geo::Raster(n_, pixel_nm),
                                            geo::Raster(n_, pixel_nm)};
    upsample(coarse_intensity(support_vals), other.coarse_intensity(other_vals), out.first,
             &out.second);
    return out;
}

}  // namespace camo::litho
