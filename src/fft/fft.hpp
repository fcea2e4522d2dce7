// Fast Fourier transforms.
//
// The harmonic-balance engine (Section 2.1) and the multi-time MPDE methods
// (Section 2.2) move circuit waveforms between the time and frequency
// domains on every residual and Jacobian-vector evaluation; the FFT is what
// makes the matrix-implicit formulation cheap. Radix-2 handles the
// power-of-two oversampled grids used by HB; Bluestein covers arbitrary
// lengths (odd spectral-collocation grids in MMFT); a row-column 2-D
// transform supports two-tone analysis. The transforms themselves live in
// fft/plan.hpp (Plan, PlanCache and the batched transform entry points);
// this header keeps the grid-sizing helpers.
#pragma once

#include <cstddef>

namespace rfic::fft {

/// True if n is a power of two (and nonzero).
bool isPowerOfTwo(std::size_t n);

/// Smallest power of two ≥ n.
std::size_t nextPowerOfTwo(std::size_t n);

}  // namespace rfic::fft
