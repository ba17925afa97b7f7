#include "traffic/fft.h"

#include <algorithm>
#include <cmath>

namespace ldr {
namespace {

// Radix-2 decimation-in-time FFT over split real/imaginary arrays. Its tables
// depend only on the size, never on the sizes the plan served before.
struct FftPlan {
  size_t n = 0;
  std::vector<double> wr, wi;  // stage of half-width h: e^{i*pi*j/h} at h-1+j
  std::vector<size_t> rev;     // input i belongs at position rev[i]

  void Reset(size_t size) {
    if (size == n) return;
    n = size;
    wr.resize(std::max<size_t>(n, 1) - 1);
    wi.resize(wr.size());
    for (size_t h = 1; h < n; h <<= 1) {
      for (size_t j = 0; j < h; ++j) {
        double angle = M_PI * static_cast<double>(j) / static_cast<double>(h);
        wr[h - 1 + j] = std::cos(angle);
        wi[h - 1 + j] = std::sin(angle);
      }
    }
    rev.assign(n, 0);
    for (size_t i = 1; i < n; ++i) {
      rev[i] = (rev[i >> 1] >> 1) | ((i & 1) ? n >> 1 : 0);
    }
  }

  // In place, bit-reversed in, natural out; kernel e^{+2*pi*i*k/n} (unscaled).
  void Transform(double* re, double* im, bool invert) const {
    const double sign = invert ? -1.0 : 1.0;
    for (size_t h = 1; h < n; h <<= 1) {
      for (size_t i = 0; i < n; i += 2 * h) {
        for (size_t a = i, b = i + h, t = h - 1; a < i + h; ++a, ++b, ++t) {
          const double cr = wr[t];
          const double ci = sign * wi[t];
          double vr = re[b] * cr - im[b] * ci;
          double vi = re[b] * ci + im[b] * cr;
          re[b] = re[a] - vr;
          im[b] = im[a] - vi;
          re[a] += vr;
          im[a] += vi;
        }
      }
    }
  }
};

}  // namespace

size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void Fft(std::vector<std::complex<double>>* data, bool invert) {
  auto& a = *data;
  FftPlan plan;
  plan.Reset(a.size());
  std::vector<double> re(a.size()), im(a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    re[plan.rev[i]] = a[i].real();
    im[plan.rev[i]] = a[i].imag();
  }
  plan.Transform(re.data(), im.data(), invert);
  double scale = invert ? 1.0 / static_cast<double>(a.size()) : 1.0;
  for (size_t i = 0; i < a.size(); ++i) a[i] = {re[i] * scale, im[i] * scale};
}

std::vector<double> ConvolvePmfs(
    const std::vector<std::vector<double>>& pmfs) {
  if (pmfs.empty()) return {};
  size_t out_len = 1;
  for (const auto& p : pmfs) {
    if (p.empty()) return {};
    out_len += p.size() - 1;
  }
  const size_t n = NextPowerOfTwo(out_len);
  thread_local FftPlan plan;
  thread_local std::vector<double> zr, zi, acc_r, acc_i;
  plan.Reset(n);
  acc_r.assign(n / 2 + 1, 1.0);  // the product spectrum is Hermitian:
  acc_i.assign(n / 2 + 1, 0.0);  // bins 0..n/2 determine it
  for (size_t a = 0; a < pmfs.size(); a += 2) {
    const bool paired = a + 1 < pmfs.size();
    zr.assign(n, 0.0);
    zi.assign(n, 0.0);
    for (size_t i = 0; i < pmfs[a].size(); ++i) zr[plan.rev[i]] = pmfs[a][i];
    for (size_t i = 0; paired && i < pmfs[a + 1].size(); ++i) {
      zi[plan.rev[i]] = pmfs[a + 1][i];
    }
    plan.Transform(zr.data(), zi.data(), false);
    for (size_t k = 0, m = 0; k <= n / 2; ++k, m = n - k) {
      double pr = zr[k];
      double pi = zi[k];
      if (paired) {  // X = (Z[k] + conj Z[m]) / 2, Y = (Z[k] - conj Z[m]) / 2i
        double xr = 0.5 * (zr[k] + zr[m]);
        double xi = 0.5 * (zi[k] - zi[m]);
        double yr = 0.5 * (zi[k] + zi[m]);
        double yi = 0.5 * (zr[m] - zr[k]);
        pr = xr * yr - xi * yi;
        pi = xr * yi + xi * yr;
      }
      double r = acc_r[k] * pr - acc_i[k] * pi;
      acc_i[k] = acc_r[k] * pi + acc_i[k] * pr;
      acc_r[k] = r;
    }
  }
  for (size_t k = 0; k < n; ++k) {
    zr[plan.rev[k]] = acc_r[std::min(k, n - k)];
    zi[plan.rev[k]] = k > n / 2 ? -acc_i[n - k] : acc_i[k];
  }
  plan.Transform(zr.data(), zi.data(), true);
  std::vector<double> out(out_len);
  for (size_t i = 0; i < out_len; ++i) {
    out[i] = std::max(0.0, zr[i] * (1.0 / static_cast<double>(n)));
  }
  return out;
}

std::vector<double> QuantizeToPmf(const std::vector<double>& samples_gbps,
                                  double bin_gbps) {
  std::vector<double> pmf;
  if (samples_gbps.empty() || bin_gbps <= 0) return pmf;
  for (double v : samples_gbps) {
    size_t bin = static_cast<size_t>(std::max(0.0, v) / bin_gbps);
    if (pmf.size() <= bin) pmf.resize(bin + 1, 0.0);
    pmf[bin] += 1.0;
  }
  double inv = 1.0 / static_cast<double>(samples_gbps.size());
  for (double& p : pmf) p *= inv;
  return pmf;
}

double TailProbability(const std::vector<double>& pmf, double bin_gbps,
                       double threshold_gbps) {
  double tail = 0;
  for (size_t i = 0; i < pmf.size(); ++i) {
    if (static_cast<double>(i) * bin_gbps >= threshold_gbps) tail += pmf[i];
  }
  return tail;
}

}  // namespace ldr
