// Hopkins transmission cross coefficient (TCC) and its sum of coherent
// systems (SOCS) decomposition.
//
// The TCC over the support disk |f| <= (1 + sigma_out) NA / lambda is a sum
// of outer products of source-shifted pupils,
//   T = sum_s w_s p_s p_s^H,   p_s[i] = P(f_i + s),
// over the annular source samples. It is never assembled as a matrix:
// each p_s is nonzero only on the pupil disk shifted by s, so T x is one
// sparse gather-dot and one scatter-axpy per source point. The aerial image
// of mask spectrum M is
//   I(x) = sum_k lambda_k |IFFT(Phi_k .* M)|^2
// where (lambda_k, Phi_k) are the leading TCC eigenpairs, extracted with
// randomized subspace iteration (the TCC is Hermitian PSD, so a small power
// iteration converges quickly).
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "litho/config.hpp"
#include "litho/optics.hpp"

namespace camo::litho {

/// A SOCS kernel set for one focus condition: `coeffs[k][i]` is kernel k's
/// frequency-domain coefficient at `support[i]`.
struct KernelSet {
    std::vector<FreqIndex> support;
    std::vector<double> eigenvalues;
    std::vector<std::vector<std::complex<float>>> coeffs;

    [[nodiscard]] int count() const { return static_cast<int>(eigenvalues.size()); }
    [[nodiscard]] int support_size() const { return static_cast<int>(support.size()); }
};

/// The TCC at one focus over a support, held as its source-shifted pupils:
/// for each source point, the support positions where the shifted pupil is
/// nonzero and the pupil values there.
class TccOperator {
public:
    TccOperator(const LithoConfig& cfg, double defocus_nm, const std::vector<FreqIndex>& support);

    [[nodiscard]] int size() const { return size_; }
    /// Stored pupil entries over all source points.
    [[nodiscard]] std::size_t nonzeros() const { return index_.size(); }

    /// y = T x for `cols` vectors of length size(), stored row-major:
    /// x[i * cols + j] is entry i of vector j.
    void apply(const std::complex<double>* x, std::complex<double>* y, int cols) const;

private:
    struct Shift {
        double weight;
        std::size_t begin;  ///< first entry in index_ / pupil_
        std::size_t end;
    };
    int size_ = 0;
    std::vector<Shift> shifts_;
    std::vector<int> index_;
    std::vector<std::complex<double>> pupil_;
};

/// The top `count` SOCS kernels of the TCC at `defocus_nm`.
/// `seed` drives the randomized eigensolver (results are deterministic for a
/// fixed seed and converged for any seed).
KernelSet compute_socs_kernels(const LithoConfig& cfg, double defocus_nm, int count,
                               std::uint64_t seed = 0x5eedULL);

/// The TCC trace, sum_f sum_s w_s |P(f + s)|^2: the kernel eigenvalues'
/// sum over it is the fraction of energy they capture.
double tcc_trace(const LithoConfig& cfg, double defocus_nm);

}  // namespace camo::litho
