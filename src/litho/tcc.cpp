#include "litho/tcc.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <random>
#include <utility>

#include "litho/linalg.hpp"

namespace camo::litho {
namespace {

using Cd = std::complex<double>;

// Modified Gram-Schmidt orthonormalization of `cols` (each length m).
void orthonormalize(std::vector<std::vector<Cd>>& cols) {
    for (std::size_t j = 0; j < cols.size(); ++j) {
        for (std::size_t i = 0; i < j; ++i) {
            Cd dot{0.0, 0.0};
            for (std::size_t k = 0; k < cols[j].size(); ++k) {
                dot += std::conj(cols[i][k]) * cols[j][k];
            }
            for (std::size_t k = 0; k < cols[j].size(); ++k) cols[j][k] -= dot * cols[i][k];
        }
        double norm2 = 0.0;
        for (const Cd& c : cols[j]) norm2 += std::norm(c);
        const double norm = std::sqrt(norm2);
        if (norm < 1e-14) {
            std::fill(cols[j].begin(), cols[j].end(), Cd{0.0, 0.0});
            continue;
        }
        for (Cd& c : cols[j]) c /= norm;
    }
}

// Q (r columns of length m) into the row-major block TccOperator::apply
// takes, and back.
void pack_columns(const std::vector<std::vector<Cd>>& cols, std::vector<Cd>& block) {
    const std::size_t r = cols.size();
    for (std::size_t j = 0; j < r; ++j) {
        for (std::size_t k = 0; k < cols[j].size(); ++k) block[k * r + j] = cols[j][k];
    }
}

void unpack_columns(const std::vector<Cd>& block, std::vector<std::vector<Cd>>& cols) {
    const std::size_t r = cols.size();
    for (std::size_t j = 0; j < r; ++j) {
        for (std::size_t k = 0; k < cols[j].size(); ++k) cols[j][k] = block[k * r + j];
    }
}

}  // namespace

TccOperator::TccOperator(const LithoConfig& cfg, double defocus_nm,
                         const std::vector<FreqIndex>& support)
    : size_(static_cast<int>(support.size())) {
    // The pupil is nonzero on a disk of lattice points p, and source point s
    // sees it at the support frequencies f = p - s. So the pupil is
    // evaluated once, and each shift walks the disk through a table from
    // frequency to support position. The disk is walked ky-major, the
    // order of tcc_support_freqs, so each shift's entries ascend.
    const int bound = tcc_support_radius(cfg);
    std::vector<std::pair<FreqIndex, Cd>> disk;
    for (int ky = -bound; ky <= bound; ++ky) {
        for (int kx = -bound; kx <= bound; ++kx) {
            const Cd p = pupil_value(cfg, {kx, ky}, defocus_nm);
            if (p != Cd{0.0, 0.0}) disk.emplace_back(FreqIndex{kx, ky}, p);
        }
    }

    int reach = 0;
    for (const FreqIndex& f : support) reach = std::max({reach, std::abs(f.kx), std::abs(f.ky)});
    const int side = 2 * reach + 1;
    std::vector<int> position(static_cast<std::size_t>(side) * side, -1);
    for (int i = 0; i < size_; ++i) {
        const FreqIndex& f = support[static_cast<std::size_t>(i)];
        position[static_cast<std::size_t>(f.ky + reach) * side + (f.kx + reach)] = i;
    }

    for (const SourcePoint& s : sample_annular_source(cfg)) {
        const std::size_t begin = index_.size();
        for (const auto& [p, value] : disk) {
            const int kx = p.kx - s.f.kx;
            const int ky = p.ky - s.f.ky;
            if (std::abs(kx) > reach || std::abs(ky) > reach) continue;
            const int i = position[static_cast<std::size_t>(ky + reach) * side + (kx + reach)];
            if (i < 0) continue;
            index_.push_back(i);
            pupil_.push_back(value);
        }
        shifts_.push_back({s.weight, begin, index_.size()});
    }
}

void TccOperator::apply(const Cd* x, Cd* y, int cols) const {
    const std::size_t nc = static_cast<std::size_t>(cols);
    std::fill(y, y + static_cast<std::size_t>(size_) * nc, Cd{0.0, 0.0});
    // Products are written out in real arithmetic: a std::complex product
    // carries a NaN-recovery branch, which keeps the column loops scalar.
    std::vector<double> dot_re(nc);
    std::vector<double> dot_im(nc);
    for (const Shift& s : shifts_) {
        // dot = w_s p_s^H x
        std::fill(dot_re.begin(), dot_re.end(), 0.0);
        std::fill(dot_im.begin(), dot_im.end(), 0.0);
        for (std::size_t e = s.begin; e < s.end; ++e) {
            const double pr = pupil_[e].real();
            const double pi = pupil_[e].imag();
            const Cd* xi = x + static_cast<std::size_t>(index_[e]) * nc;
            for (std::size_t j = 0; j < nc; ++j) {
                const double xr = xi[j].real();
                const double xm = xi[j].imag();
                dot_re[j] += pr * xr + pi * xm;
                dot_im[j] += pr * xm - pi * xr;
            }
        }
        for (std::size_t j = 0; j < nc; ++j) {
            dot_re[j] *= s.weight;
            dot_im[j] *= s.weight;
        }
        // y += p_s dot
        for (std::size_t e = s.begin; e < s.end; ++e) {
            const double pr = pupil_[e].real();
            const double pi = pupil_[e].imag();
            Cd* yi = y + static_cast<std::size_t>(index_[e]) * nc;
            for (std::size_t j = 0; j < nc; ++j) {
                yi[j] += Cd{pr * dot_re[j] - pi * dot_im[j], pr * dot_im[j] + pi * dot_re[j]};
            }
        }
    }
}

double tcc_trace(const LithoConfig& cfg, double defocus_nm) {
    // trace = sum_f sum_s w_s |P(s+f)|^2, computed without storing the matrix.
    const auto freqs = tcc_support_freqs(cfg);
    const auto source = sample_annular_source(cfg);
    double tr = 0.0;
    for (const FreqIndex& f : freqs) {
        for (const SourcePoint& s : source) {
            tr += s.weight * std::norm(pupil_value(cfg, {f.kx + s.f.kx, f.ky + s.f.ky}, defocus_nm));
        }
    }
    return tr;
}

KernelSet compute_socs_kernels(const LithoConfig& cfg, double defocus_nm, int count,
                               std::uint64_t seed) {
    const auto freqs = tcc_support_freqs(cfg);
    const int m = static_cast<int>(freqs.size());
    const TccOperator t(cfg, defocus_nm, freqs);

    const int r = std::min(m, count + 8);

    // Randomized subspace iteration: Q spans the dominant eigenspace.
    std::mt19937_64 rng(seed);
    std::normal_distribution<double> gauss(0.0, 1.0);
    std::vector<std::vector<Cd>> q(static_cast<std::size_t>(r),
                                   std::vector<Cd>(static_cast<std::size_t>(m)));
    for (auto& col : q) {
        for (Cd& c : col) c = Cd{gauss(rng), gauss(rng)};
    }
    orthonormalize(q);

    std::vector<Cd> x(static_cast<std::size_t>(m) * r);
    std::vector<Cd> tx(static_cast<std::size_t>(m) * r);
    const int power_iters = 3;
    for (int it = 0; it < power_iters; ++it) {
        pack_columns(q, x);
        t.apply(x.data(), tx.data(), r);
        unpack_columns(tx, q);
        orthonormalize(q);
    }

    // Rayleigh-Ritz projection S = Q^H T Q (r x r Hermitian).
    std::vector<std::vector<Cd>> tq(static_cast<std::size_t>(r),
                                    std::vector<Cd>(static_cast<std::size_t>(m)));
    pack_columns(q, x);
    t.apply(x.data(), tx.data(), r);
    unpack_columns(tx, tq);

    std::vector<Cd> s(static_cast<std::size_t>(r) * r);
    for (int i = 0; i < r; ++i) {
        for (int j = 0; j < r; ++j) {
            Cd dot{0.0, 0.0};
            for (int k = 0; k < m; ++k) {
                dot += std::conj(q[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)]) *
                       tq[static_cast<std::size_t>(j)][static_cast<std::size_t>(k)];
            }
            s[static_cast<std::size_t>(i) * r + j] = dot;
        }
    }

    // Real symmetric embedding [[Re, -Im], [Im, Re]]: each complex eigenpair
    // of S appears twice; duplicates are removed by complex-overlap testing.
    const int n2 = 2 * r;
    std::vector<double> emb(static_cast<std::size_t>(n2) * n2, 0.0);
    for (int i = 0; i < r; ++i) {
        for (int j = 0; j < r; ++j) {
            const Cd v = s[static_cast<std::size_t>(i) * r + j];
            emb[static_cast<std::size_t>(i) * n2 + j] = v.real();
            emb[static_cast<std::size_t>(i) * n2 + (j + r)] = -v.imag();
            emb[static_cast<std::size_t>(i + r) * n2 + j] = v.imag();
            emb[static_cast<std::size_t>(i + r) * n2 + (j + r)] = v.real();
        }
    }
    std::vector<double> vecs;
    std::vector<double> eig = jacobi_eig_symmetric(std::move(emb), n2, vecs);

    std::vector<int> order(static_cast<std::size_t>(n2));
    for (int i = 0; i < n2; ++i) order[static_cast<std::size_t>(i)] = i;
    std::sort(order.begin(), order.end(), [&eig](int a, int b) {
        return eig[static_cast<std::size_t>(a)] > eig[static_cast<std::size_t>(b)];
    });

    // Collect unique complex Ritz vectors w (length r).
    std::vector<std::pair<double, std::vector<Cd>>> ritz;
    for (int oi = 0; oi < n2 && static_cast<int>(ritz.size()) < count; ++oi) {
        const int col = order[static_cast<std::size_t>(oi)];
        std::vector<Cd> w(static_cast<std::size_t>(r));
        for (int i = 0; i < r; ++i) {
            w[static_cast<std::size_t>(i)] = Cd{vecs[static_cast<std::size_t>(i) * n2 + col],
                                                vecs[static_cast<std::size_t>(i + r) * n2 + col]};
        }
        double norm2 = 0.0;
        for (const Cd& c : w) norm2 += std::norm(c);
        if (norm2 < 1e-12) continue;
        for (Cd& c : w) c /= std::sqrt(norm2);

        bool duplicate = false;
        for (const auto& [lam, kept] : ritz) {
            Cd dot{0.0, 0.0};
            for (int i = 0; i < r; ++i) dot += std::conj(kept[static_cast<std::size_t>(i)]) * w[static_cast<std::size_t>(i)];
            if (std::abs(dot) > 0.99) {
                duplicate = true;
                break;
            }
        }
        if (!duplicate) ritz.emplace_back(std::max(0.0, eig[static_cast<std::size_t>(col)]), std::move(w));
    }

    KernelSet out;
    out.support = freqs;
    for (const auto& [lam, w] : ritz) {
        std::vector<std::complex<float>> coeff(static_cast<std::size_t>(m));
        for (int k = 0; k < m; ++k) {
            Cd acc{0.0, 0.0};
            for (int j = 0; j < r; ++j) {
                acc += q[static_cast<std::size_t>(j)][static_cast<std::size_t>(k)] *
                       w[static_cast<std::size_t>(j)];
            }
            coeff[static_cast<std::size_t>(k)] = std::complex<float>(
                static_cast<float>(acc.real()), static_cast<float>(acc.imag()));
        }
        out.eigenvalues.push_back(lam);
        out.coeffs.push_back(std::move(coeff));
    }
    return out;
}

}  // namespace camo::litho
