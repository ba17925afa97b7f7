#include "traffic/fft.h"

#include <algorithm>
#include <cmath>
#include <cstring>

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
  // Starts at half-width first_h (ConvolvePmfs fills in the stages below).
  // Stages with h >= 2 run two j at once, each lane doing the scalar IEEE
  // operations in the scalar order, so the result is bitwise the same.
  void Transform(double* re, double* im, bool invert,
                 size_t first_h = 1) const {
    const double sign = invert ? -1.0 : 1.0;
    for (size_t h = first_h; h < n; h <<= 1) {
      for (size_t i = 0; i < n; i += 2 * h) {
        if (h == 1) {
          Butterfly<double>(re, im, i, i + 1, 0, sign);
        } else {
          for (size_t j = 0; j < h; j += 2) {
            Butterfly<Lanes>(re, im, i + j, i + j + h, h - 1 + j, sign);
          }
        }
      }
    }
  }

 private:
  typedef double Lanes __attribute__((vector_size(16)));

  template <typename V>
  static V Load(const double* p) {
    V v{};
    std::memcpy(&v, p, sizeof v);
    return v;
  }

  template <typename V>
  static void Store(double* p, V v) {
    std::memcpy(p, &v, sizeof v);
  }

  template <typename V>
  void Butterfly(double* re, double* im, size_t a, size_t b, size_t t,
                 double sign) const {
    const V cr = Load<V>(&wr[t]);
    const V ci = sign * Load<V>(&wi[t]);
    const V br = Load<V>(re + b), bi = Load<V>(im + b);
    const V ar = Load<V>(re + a), ai = Load<V>(im + a);
    const V vr = br * cr - bi * ci;
    const V vi = br * ci + bi * cr;
    Store(re + b, ar - vr);
    Store(im + b, ai - vi);
    Store(re + a, ar + vr);
    Store(im + a, ai + vi);
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
    const std::vector<double>& x = pmfs[a];
    const std::vector<double>& y = paired ? pmfs[a + 1] : pmfs[a];
    // Input i < len lands at rev[i], a multiple of block; the first
    // log2(block) stages only add +-(w * 0) to it (see fft.h), which leaves
    // it bitwise, so each block starts out filled with its value.
    const size_t len = NextPowerOfTwo(std::max(x.size(), y.size()));
    const size_t block = n / len;
    zr.resize(n);
    zi.resize(n);
    for (size_t i = 0; i < len; ++i) {
      std::fill_n(&zr[plan.rev[i]], block, i < x.size() ? x[i] : 0.0);
      std::fill_n(&zi[plan.rev[i]], block,
                  paired && i < y.size() ? y[i] : 0.0);
    }
    plan.Transform(zr.data(), zi.data(), false, block);
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
