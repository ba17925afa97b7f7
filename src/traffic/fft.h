// Iterative radix-2 FFT and PMF convolution — the §5 machinery for checking
// uncorrelated statistical multiplexing: each aggregate's 100 ms rate
// measurements form a probability mass function; the distribution of the sum
// of independent aggregates is the convolution of their PMFs, computed in
// O(N log N) by multiplying in the frequency domain.
#ifndef LDR_TRAFFIC_FFT_H_
#define LDR_TRAFFIC_FFT_H_

#include <complex>
#include <cstddef>
#include <vector>

namespace ldr {

// In-place radix-2 FFT (the inverse divides by n); size a power of two.
void Fft(std::vector<std::complex<double>>* a, bool invert);

size_t NextPowerOfTwo(size_t n);

// Convolution of PMFs (finite values, +0 or positive, never -0) over a
// shared bin width. Result length = sum of lengths - (count - 1); tiny
// negative residues are clamped to zero. Two PMFs share each n-point
// transform; with per-thread scratch, only the result is allocated. A pair
// whose longer PMF fits in L = 2^m bins skips the first log2(n / L) forward
// stages: they only add +-(w * 0) to values >= +0, so the output is bitwise
// the every-stage transform's.
std::vector<double> ConvolvePmfs(const std::vector<std::vector<double>>& pmfs);

// Quantizes rate samples (Gbps) into a PMF over bins of `bin_gbps`, bin i
// covering [i*bin, (i+1)*bin). Values are probabilities summing to 1.
std::vector<double> QuantizeToPmf(const std::vector<double>& samples_gbps,
                                  double bin_gbps);

// Mass of the bins whose lower edge i * bin_gbps is at or above the
// threshold. As P(sum > threshold) over QuantizeToPmf's floor bins this
// under-counts (samples sit up to a bin low; the bin straddling the
// threshold is dropped), so it is no bound: see ROADMAP.md item 3.
double TailProbability(const std::vector<double>& pmf, double bin_gbps,
                       double threshold_gbps);

}  // namespace ldr

#endif  // LDR_TRAFFIC_FFT_H_
