#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "traffic/fft.h"
#include "traffic/multiplex.h"
#include "traffic/predictor.h"
#include "traffic/trace.h"
#include "util/random.h"
#include "util/stats.h"

namespace ldr {
namespace {

TEST(Trace, LengthAndNonNegativity) {
  Rng rng(1);
  TraceOptions opts;
  opts.minutes = 3;
  opts.samples_per_sec = 10;
  auto trace = SynthesizeTraceGbps(opts, &rng);
  EXPECT_EQ(trace.size(), 3u * 600u);
  for (double v : trace) EXPECT_GE(v, 0.0);
}

TEST(Trace, MeanNearConfigured) {
  Rng rng(2);
  TraceOptions opts;
  opts.mean_gbps = 2.0;
  opts.minutes = 10;
  auto trace = SynthesizeTraceGbps(opts, &rng);
  EXPECT_NEAR(Mean(trace), 2.0, 0.8);
}

TEST(Trace, MinuteMeansArePredictable) {
  // Property (1) of the CAIDA stand-in: consecutive minute means differ by
  // well under 10-15% almost always.
  Rng rng(3);
  TraceOptions opts;
  opts.minutes = 30;
  auto trace = SynthesizeTraceGbps(opts, &rng);
  auto means = PerMinuteMeans(trace, opts.samples_per_sec);
  ASSERT_EQ(means.size(), 30u);
  int large_jumps = 0;
  for (size_t i = 1; i < means.size(); ++i) {
    double rel = std::abs(means[i] - means[i - 1]) / means[i - 1];
    if (rel > 0.15) ++large_jumps;
  }
  EXPECT_LE(large_jumps, 1);
}

TEST(Trace, SigmaStableMinuteToMinute) {
  // Property (2): per-minute stddev of fine-grained rates clusters around
  // the x = y line (paper Fig. 10).
  Rng rng(4);
  TraceOptions opts;
  opts.minutes = 8;
  opts.samples_per_sec = 100;  // fine-grained
  auto trace = SynthesizeTraceGbps(opts, &rng);
  auto sigmas = PerMinuteStdDevs(trace, opts.samples_per_sec);
  ASSERT_GE(sigmas.size(), 6u);
  for (size_t i = 1; i < sigmas.size(); ++i) {
    EXPECT_NEAR(sigmas[i], sigmas[i - 1], 0.5 * sigmas[i - 1])
        << "minute " << i;
  }
}

TEST(Trace, BurstAmplitudeControlsSigma) {
  Rng rng1(5), rng2(5);
  TraceOptions quiet, bursty;
  quiet.burst_amplitude = 0.05;
  bursty.burst_amplitude = 0.5;
  quiet.minutes = bursty.minutes = 4;
  auto tq = SynthesizeTraceGbps(quiet, &rng1);
  auto tb = SynthesizeTraceGbps(bursty, &rng2);
  EXPECT_LT(Mean(PerMinuteStdDevs(tq, 10)), Mean(PerMinuteStdDevs(tb, 10)));
}

TEST(Trace, DownsampleAverages) {
  std::vector<double> s{1, 3, 5, 7, 9, 11};
  auto d = DownsampleMean(s, 2);
  ASSERT_EQ(d.size(), 3u);
  EXPECT_DOUBLE_EQ(d[0], 2);
  EXPECT_DOUBLE_EQ(d[1], 6);
  EXPECT_DOUBLE_EQ(d[2], 10);
}

// --- Algorithm 1 ---

TEST(Predictor, ExactAlgorithmSemantics) {
  MeanRatePredictor p;
  // First measurement primes: prediction = 10 * 1.1 = 11.
  EXPECT_DOUBLE_EQ(p.Update(10), 11.0);
  // Growth: scaled_est 22 > 11 -> prediction 22.
  EXPECT_DOUBLE_EQ(p.Update(20), 22.0);
  // Drop: scaled_est 5.5 < 22 -> max(22*0.98, 5.5) = 21.56.
  EXPECT_DOUBLE_EQ(p.Update(5), 21.56);
  // Keep dropping: decay continues.
  EXPECT_NEAR(p.Update(5), 21.56 * 0.98, 1e-12);
}

TEST(Predictor, DecayFloorsAtScaledEstimate) {
  MeanRatePredictor p;
  p.Update(10);   // 11
  p.Update(9.9);  // max(11 * 0.98, 9.9 * 1.1) = max(10.78, 10.89)
  EXPECT_DOUBLE_EQ(p.prediction(), 9.9 * 1.1);
}

TEST(Predictor, ConstantTrafficRatio) {
  // With constant traffic the measured/predicted ratio is 1/1.1 = 0.909...
  std::vector<double> means(20, 3.0);
  auto ratios = PredictionRatios(means);
  ASSERT_FALSE(ratios.empty());
  for (double r : ratios) EXPECT_NEAR(r, 1.0 / 1.1, 1e-9);
}

TEST(Predictor, SyntheticTracesRarelyExceedPrediction) {
  // The paper's Fig. 9 headline: actual traffic exceeds the predicted level
  // only ~0.5% of the time, never by much.
  Rng rng(77);
  std::vector<double> all_ratios;
  for (int trace_i = 0; trace_i < 20; ++trace_i) {
    TraceOptions opts;
    opts.minutes = 30;
    opts.mean_gbps = rng.Uniform(1, 3);
    Rng trng = rng.Fork(static_cast<uint64_t>(trace_i));
    auto trace = SynthesizeTraceGbps(opts, &trng);
    auto means = PerMinuteMeans(trace, opts.samples_per_sec);
    auto ratios = PredictionRatios(means);
    all_ratios.insert(all_ratios.end(), ratios.begin(), ratios.end());
  }
  ASSERT_GT(all_ratios.size(), 400u);
  size_t exceed = 0;
  for (double r : all_ratios) {
    EXPECT_LT(r, 1.10);  // "never by more than 10%"
    if (r > 1.0) ++exceed;
  }
  EXPECT_LT(static_cast<double>(exceed) / static_cast<double>(all_ratios.size()),
            0.02);
}

// --- FFT ---

TEST(Fft, NextPowerOfTwo) {
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(2), 2u);
  EXPECT_EQ(NextPowerOfTwo(3), 4u);
  EXPECT_EQ(NextPowerOfTwo(1000), 1024u);
}

TEST(Fft, RoundTripIdentity) {
  Rng rng(6);
  std::vector<std::complex<double>> a(64);
  std::vector<std::complex<double>> orig(64);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = orig[i] = {rng.Uniform(-1, 1), rng.Uniform(-1, 1)};
  }
  Fft(&a, false);
  Fft(&a, true);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].real(), orig[i].real(), 1e-10);
    EXPECT_NEAR(a[i].imag(), orig[i].imag(), 1e-10);
  }
}

TEST(Fft, ImpulseHasFlatSpectrum) {
  std::vector<std::complex<double>> a(8, 0.0);
  a[0] = 1.0;
  Fft(&a, false);
  for (const auto& v : a) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, ConvolvedPmfSumsToOne) {
  std::vector<double> p1{0.5, 0.5};
  std::vector<double> p2{0.25, 0.5, 0.25};
  auto out = ConvolvePmfs({p1, p2});
  EXPECT_NEAR(Sum(out), 1.0, 1e-12);
}

TEST(Quantize, BinsAndNormalizes) {
  std::vector<double> samples{0.1, 0.9, 1.1, 1.9, 3.5};
  auto pmf = QuantizeToPmf(samples, 1.0);
  ASSERT_EQ(pmf.size(), 4u);  // bins 0,1,2,3
  EXPECT_NEAR(pmf[0], 0.4, 1e-12);
  EXPECT_NEAR(pmf[1], 0.4, 1e-12);
  EXPECT_NEAR(pmf[3], 0.2, 1e-12);
  EXPECT_NEAR(Sum(pmf), 1.0, 1e-12);
}

TEST(TailProbabilityTest, CountsAtOrAboveThreshold) {
  std::vector<double> pmf{0.5, 0.3, 0.2};  // values 0, 1, 2 (bin width 1)
  EXPECT_NEAR(TailProbability(pmf, 1.0, 1.0), 0.5, 1e-12);
  EXPECT_NEAR(TailProbability(pmf, 1.0, 2.0), 0.2, 1e-12);
  EXPECT_NEAR(TailProbability(pmf, 1.0, 3.0), 0.0, 1e-12);
}

// --- Multiplexing checks ---

TEST(Multiplex, QueueDelayZeroWhenUnderCapacity) {
  std::vector<double> s(100, 1.0);
  std::vector<WeightedSeries> in{{&s, 1.0}};
  EXPECT_DOUBLE_EQ(MaxQueueDelayMs(in, 2.0, 0.1), 0.0);
}

TEST(Multiplex, QueueAccumulatesAndDrains) {
  // 2 Gbps for 1 period into a 1 Gbps link: 0.1 Gbit excess = 100 ms drain.
  std::vector<double> s{2.0, 0.0, 0.0};
  std::vector<WeightedSeries> in{{&s, 1.0}};
  double q = MaxQueueDelayMs(in, 1.0, 0.1);
  EXPECT_NEAR(q, 100.0, 1e-9);
}

TEST(Multiplex, WeightsScaleContribution) {
  std::vector<double> s{4.0};
  std::vector<WeightedSeries> in{{&s, 0.25}};  // effective 1 Gbps
  EXPECT_DOUBLE_EQ(MaxQueueDelayMs(in, 2.0, 0.1), 0.0);
}

TEST(Multiplex, CorrelatedBurstsFailTemporalTest) {
  // Two aggregates bursting in the same 100 ms periods.
  std::vector<double> s1(600, 0.5), s2(600, 0.5);
  for (size_t i = 100; i < 110; ++i) {
    s1[i] = 3.0;
    s2[i] = 3.0;
  }
  std::vector<WeightedSeries> in{{&s1, 1.0}, {&s2, 1.0}};
  MultiplexOptions opts;
  LinkCheckResult r = CheckLinkMultiplexing(in, 2.0, opts);
  EXPECT_FALSE(r.pass);
  EXPECT_GT(r.queue_delay_ms, opts.max_queue_ms);
}

TEST(Multiplex, UncorrelatedBurstsPass) {
  // Same burst mass, but never simultaneous and rare enough that even the
  // independence (convolution) test accepts: P(joint burst) = 0.01^2 =
  // 1e-4 < the 10ms/60s = 1.67e-4 threshold.
  std::vector<double> s1(600, 0.5), s2(600, 0.5);
  for (size_t i = 0; i < 600; i += 100) s1[i] = 3.0;
  for (size_t i = 50; i < 600; i += 100) s2[i] = 3.0;
  std::vector<WeightedSeries> in{{&s1, 1.0}, {&s2, 1.0}};
  LinkCheckResult r = CheckLinkMultiplexing(in, 4.0, {});
  EXPECT_TRUE(r.pass);
}

TEST(Multiplex, PeakSumShortcut) {
  std::vector<double> s1(600, 0.4), s2(600, 0.5);
  std::vector<WeightedSeries> in{{&s1, 1.0}, {&s2, 1.0}};
  LinkCheckResult r = CheckLinkMultiplexing(in, 1.0, {});
  EXPECT_TRUE(r.pass);
  EXPECT_TRUE(r.skipped_peak_test);
}

TEST(Multiplex, ManyVariableAggregatesFailProbabilisticTest) {
  // 20 aggregates, each usually 0.1 but frequently bursting to 1.0,
  // on a link of 4: bursts are individually rare but the convolved tail
  // above 4 is fat. Construct deterministic series with 30% burst samples
  // interleaved so the temporal sum stays low but the PMF tail is heavy.
  std::vector<std::vector<double>> series(20,
                                          std::vector<double>(600, 0.1));
  for (size_t a = 0; a < series.size(); ++a) {
    for (size_t t = a; t < 600; t += 3) {  // 1/3 of samples burst
      series[a][t] = 1.0;
    }
  }
  std::vector<WeightedSeries> in;
  for (auto& s : series) in.push_back({&s, 1.0});
  MultiplexOptions opts;
  LinkCheckResult r = CheckLinkMultiplexing(in, 4.0, opts);
  // Expected sum ~ 20*(0.4) = 8 > 4 -> must fail one way or another.
  EXPECT_FALSE(r.pass);
}

TEST(Multiplex, ExceedProbabilityMatchesAnalyticCase) {
  // Two aggregates, each 0 or 1 Gbps with p=0.5, never on together: the
  // aligned sum never exceeds 1 Gbps, so test B passes on a 1.5 Gbps link,
  // but the independence test sees P(sum = 2) = 0.25 and fails it.
  std::vector<double> s1, s2;
  for (int i = 0; i < 600; ++i) {
    s1.push_back(i % 2 == 0 ? 1.0 : 0.0);
    s2.push_back(i % 2 == 1 ? 1.0 : 0.0);
  }
  std::vector<WeightedSeries> in{{&s1, 1.0}, {&s2, 1.0}};
  LinkCheckResult r = CheckLinkMultiplexing(in, 1.5, {});
  EXPECT_DOUBLE_EQ(r.queue_delay_ms, 0.0);
  EXPECT_NEAR(r.exceed_probability, 0.25, 1e-12);
  EXPECT_FALSE(r.pass);
}

// --- Independent oracles for the FFT appraisal ---

// O(n^2) convolution, sharing no code with the FFT path.
std::vector<double> DirectConvolution(
    const std::vector<std::vector<double>>& pmfs) {
  std::vector<double> out{1.0};
  for (const std::vector<double>& p : pmfs) {
    std::vector<double> next(out.size() + p.size() - 1, 0.0);
    for (size_t i = 0; i < out.size(); ++i) {
      for (size_t j = 0; j < p.size(); ++j) next[i + j] += out[i] * p[j];
    }
    out = std::move(next);
  }
  return out;
}

// A PMF like the appraisal's: 600 samples counted into `len` bins, the top
// bin holding the peak, each count times 1/600.
std::vector<double> SampledPmf(size_t len, Rng* rng) {
  std::vector<double> pmf(len, 0.0);
  pmf[len - 1] = 1.0;
  double mode = rng->Uniform(0, static_cast<double>(len));
  for (int s = 1; s < 600; ++s) {
    double v = mode + rng->Gaussian() * static_cast<double>(len) / 6;
    if (rng->Chance(0.05)) v = rng->Uniform(0, static_cast<double>(len));
    v = std::min(std::max(v, 0.0), static_cast<double>(len - 1));
    pmf[static_cast<size_t>(v)] += 1.0;
  }
  for (double& p : pmf) p *= 1.0 / 600.0;
  return pmf;
}

// `k` PMFs whose convolution has exactly `out_len` bins.
std::vector<std::vector<double>> SampledPmfs(size_t k, size_t out_len,
                                             Rng* rng) {
  std::vector<size_t> extra(k, 0);  // len - 1 per PMF; sums to out_len - 1
  for (size_t b = 0; b + 1 < out_len; ++b) ++extra[rng->NextIndex(k)];
  std::vector<std::vector<double>> pmfs;
  for (size_t e : extra) pmfs.push_back(SampledPmf(e + 1, rng));
  return pmfs;
}

// `k` PMFs whose convolution has exactly `out_len` bins, the first of them
// `dominant` bins long: the shape the controller's links measure, where the
// longest PMF holds more than n/8 of an n-point transform's bins.
std::vector<std::vector<double>> DominantPmfs(size_t k, size_t out_len,
                                              size_t dominant, Rng* rng) {
  std::vector<std::vector<double>> pmfs{SampledPmf(dominant, rng)};
  if (k == 1) return pmfs;
  for (auto& p : SampledPmfs(k - 1, out_len - (dominant - 1), rng)) {
    pmfs.push_back(std::move(p));
  }
  return pmfs;
}

TEST(Fft, ConvolvePmfsMatchesDirectConvolution) {
  Rng rng(19);
  struct Case {
    size_t k, out_len, dominant;  // dominant 0: bins spread evenly
  };
  // Odd k leaves one PMF unpaired; out_len 1025 crosses 1024 -> 2048.
  const Case cases[] = {{3, 15, 0},    {1, 700, 0},   {2, 1024, 0},
                        {3, 1024, 0},  {4, 1024, 0},  {10, 913, 0},
                        {17, 1024, 0}, {3, 1025, 0},  {17, 1025, 0},
                        {4, 1024, 300}, {10, 1024, 400}, {17, 1025, 500}};
  for (const Case& c : cases) {
    for (int rep = 0; rep < 3; ++rep) {
      std::vector<std::vector<double>> pmfs =
          c.dominant > 0 ? DominantPmfs(c.k, c.out_len, c.dominant, &rng)
                         : SampledPmfs(c.k, c.out_len, &rng);
      std::vector<double> fft = ConvolvePmfs(pmfs);
      std::vector<double> direct = DirectConvolution(pmfs);
      ASSERT_EQ(fft.size(), c.out_len);
      ASSERT_EQ(direct.size(), c.out_len);
      for (size_t i = 0; i < c.out_len; ++i) {
        ASSERT_NEAR(fft[i], direct[i], 1e-12)
            << "k=" << c.k << " out_len=" << c.out_len << " bin " << i;
      }
    }
  }
}

// The convolution as an every-stage scalar radix-2 transform: the same
// twiddles, pairing and operation order as ConvolvePmfs, without skipping
// the stages that pair values with zero padding or running two lanes.
std::vector<double> FullStageConvolution(
    const std::vector<std::vector<double>>& pmfs) {
  size_t out_len = 1;
  for (const auto& p : pmfs) out_len += p.size() - 1;
  const size_t n = NextPowerOfTwo(out_len);
  std::vector<double> wr(n - 1), wi(n - 1);
  for (size_t h = 1; h < n; h <<= 1) {
    for (size_t j = 0; j < h; ++j) {
      double angle = M_PI * static_cast<double>(j) / static_cast<double>(h);
      wr[h - 1 + j] = std::cos(angle);
      wi[h - 1 + j] = std::sin(angle);
    }
  }
  std::vector<size_t> rev(n, 0);
  for (size_t i = 1; i < n; ++i) {
    rev[i] = (rev[i >> 1] >> 1) | ((i & 1) ? n >> 1 : 0);
  }
  auto transform = [&](std::vector<double>& re, std::vector<double>& im,
                       bool invert) {
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
  };
  std::vector<double> acc_r(n / 2 + 1, 1.0), acc_i(n / 2 + 1, 0.0);
  std::vector<double> zr(n), zi(n);
  for (size_t a = 0; a < pmfs.size(); a += 2) {
    const bool paired = a + 1 < pmfs.size();
    zr.assign(n, 0.0);
    zi.assign(n, 0.0);
    for (size_t i = 0; i < pmfs[a].size(); ++i) zr[rev[i]] = pmfs[a][i];
    for (size_t i = 0; paired && i < pmfs[a + 1].size(); ++i) {
      zi[rev[i]] = pmfs[a + 1][i];
    }
    transform(zr, zi, false);
    for (size_t k = 0, m = 0; k <= n / 2; ++k, m = n - k) {
      double pr = zr[k];
      double pi = zi[k];
      if (paired) {
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
    zr[rev[k]] = acc_r[std::min(k, n - k)];
    zi[rev[k]] = k > n / 2 ? -acc_i[n - k] : acc_i[k];
  }
  transform(zr, zi, true);
  std::vector<double> out(out_len);
  for (size_t i = 0; i < out_len; ++i) {
    out[i] = std::max(0.0, zr[i] * (1.0 / static_cast<double>(n)));
  }
  return out;
}

TEST(Fft, ConvolvePmfsBitwiseAgainstFullStageReference) {
  Rng rng(2303);
  std::vector<std::vector<std::vector<double>>> inputs;
  auto add = [&](const std::vector<size_t>& lens) {
    std::vector<std::vector<double>> pmfs;
    for (size_t len : lens) pmfs.push_back(SampledPmf(len, &rng));
    inputs.push_back(std::move(pmfs));
  };
  // Single PMFs, among them one bin and lengths 2^m and 2^m + 1.
  add({1});
  add({2});
  add({700});
  add({1024});
  add({1025});  // out_len 1025: a 2048-point transform
  // Pairs of unequal length, and odd counts whose last PMF is alone.
  add({512, 3});
  add({3, 512});
  add({257, 64, 9});
  add({4, 5, 600});
  add({128, 129, 2, 17});
  add({513, 513});  // out_len 1025
  const size_t counts[] = {1, 2, 3, 4, 10, 17};
  for (size_t k : counts) {
    for (int rep = 0; rep < 3; ++rep) {
      size_t dominant = static_cast<size_t>(rng.UniformInt(257, 500));
      size_t out_len = k == 1 ? dominant : 1024 + static_cast<size_t>(rep % 2);
      inputs.push_back(DominantPmfs(k, out_len, dominant, &rng));
      inputs.push_back(SampledPmfs(k, out_len, &rng));
    }
  }
  for (size_t c = 0; c < inputs.size(); ++c) {
    std::vector<double> got = ConvolvePmfs(inputs[c]);
    std::vector<double> want = FullStageConvolution(inputs[c]);
    ASSERT_EQ(got.size(), want.size()) << "case " << c;
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
              0)
        << "case " << c << " (" << inputs[c].size() << " PMFs)";
  }
}

// CheckLinkMultiplexing against the same three tests built from public
// pieces and a direct convolution, over seeded random links.
TEST(Multiplex, VerdictsMatchDirectConvolutionOracle) {
  Rng rng(1906);
  MultiplexOptions opts;
  const double threshold = opts.max_queue_ms / (600 * kSeriesPeriodSec * 1000);
  int fft_tests = 0, fft_fails = 0, near_threshold = 0;
  for (int link = 0; link < 1000; ++link) {
    size_t k = static_cast<size_t>(rng.UniformInt(4, 18));
    std::vector<std::vector<double>> series(k, std::vector<double>(600));
    std::vector<WeightedSeries> in;
    for (std::vector<double>& s : series) {
      double mean = rng.Uniform(0.2, 2.0);
      for (double& v : s) {
        v = std::max(0.0, mean * (1 + 0.3 * rng.Gaussian()));
        if (rng.Chance(0.01)) v *= 3;
      }
      in.push_back({&s, rng.Uniform(0.1, 1.0)});
    }
    double peak_sum = 0, mean_sum = 0;
    for (const WeightedSeries& w : in) {
      double peak = 0;
      for (double v : *w.series_gbps) peak = std::max(peak, v * w.weight);
      peak_sum += peak;
      mean_sum += Mean(*w.series_gbps) * w.weight;
    }
    double capacity = rng.Uniform(mean_sum, (mean_sum + peak_sum) / 2);
    LinkCheckResult r = CheckLinkMultiplexing(in, capacity, opts);
    if (MaxQueueDelayMs(in, capacity, kSeriesPeriodSec) > opts.max_queue_ms) {
      EXPECT_FALSE(r.pass) << "link " << link;
      continue;
    }
    ++fft_tests;
    double bin = peak_sum / 1024;
    std::vector<std::vector<double>> pmfs;
    for (const WeightedSeries& w : in) {
      std::vector<double> scaled;
      for (double v : *w.series_gbps) scaled.push_back(v * w.weight);
      pmfs.push_back(QuantizeToPmf(scaled, bin));
    }
    double tail = TailProbability(DirectConvolution(pmfs), bin, capacity);
    EXPECT_NEAR(r.exceed_probability, tail, 1e-12) << "link " << link;
    if (std::abs(tail - threshold) <= 1e-12) {
      ++near_threshold;
      continue;
    }
    EXPECT_EQ(r.pass, tail <= threshold) << "link " << link;
    if (tail > threshold) ++fft_fails;
  }
  EXPECT_LE(near_threshold, 3);
  // Both verdicts of the FFT test must be well represented.
  EXPECT_GE(fft_tests, 300);
  EXPECT_GE(fft_fails, 100);
  EXPECT_GE(fft_tests - fft_fails, 100);
}

// A peak carried in WeightedSeries::peak_gbps must give the same result,
// bit for bit, as the scan CheckLinkMultiplexing falls back to.
TEST(Multiplex, SuppliedSeriesPeakMatchesScan) {
  Rng rng(2304);
  MultiplexOptions opts;
  auto bits = [](double v) {
    uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
  };
  int skipped = 0, b_fails = 0, fft_tests = 0;
  for (int link = 0; link < 600; ++link) {
    size_t k = static_cast<size_t>(rng.UniformInt(1, 12));
    std::vector<std::vector<double>> series(k);
    std::vector<WeightedSeries> scan, supplied;
    double mean_sum = 0, peak_sum = 0;
    for (std::vector<double>& s : series) {
      // Lengths off a multiple of 4 and, now and then, an empty series.
      size_t len = rng.Chance(0.05) ? 0 : 600 + rng.NextIndex(4) - 1;
      double mean = rng.Uniform(-0.2, 2.0);  // negative samples included
      double burst = rng.Uniform(0, 1);
      for (size_t t = 0; t < len; ++t) {
        double v = mean * (1 + 0.4 * rng.Gaussian());
        s.push_back(rng.Chance(0.01) ? v * (1 + 4 * burst) : v);
      }
      double w = 1.0 - rng.NextDouble();  // (0, 1]
      if (rng.Chance(0.05)) w = 1.0;
      scan.push_back({&s, w});  // peak_gbps left at "not supplied"
      supplied.push_back({&s, w, SeriesPeak(s)});
      ASSERT_LT(scan.back().peak_gbps, 0.0);
      // Rounding is monotone: the scaled peak is the peak of scaled samples.
      double scaled_peak = 0;
      for (double v : s) scaled_peak = std::max(scaled_peak, v * w);
      EXPECT_EQ(bits(SeriesPeak(s) * w), bits(scaled_peak)) << "link " << link;
      for (double v : s) mean_sum += v * w / static_cast<double>(s.size());
      peak_sum += scaled_peak;
    }
    double capacity =
        rng.Uniform(std::max(0.0, mean_sum) * 0.9, peak_sum * 1.3);
    LinkCheckResult a = CheckLinkMultiplexing(scan, capacity, opts);
    LinkCheckResult b = CheckLinkMultiplexing(supplied, capacity, opts);
    EXPECT_EQ(a.pass, b.pass) << "link " << link;
    EXPECT_EQ(a.skipped_peak_test, b.skipped_peak_test) << "link " << link;
    EXPECT_EQ(bits(a.queue_delay_ms), bits(b.queue_delay_ms))
        << "link " << link;
    EXPECT_EQ(bits(a.exceed_probability), bits(b.exceed_probability))
        << "link " << link;
    if (a.skipped_peak_test) {
      ++skipped;
    } else if (a.queue_delay_ms > opts.max_queue_ms) {
      ++b_fails;
    } else {
      ++fft_tests;
    }
  }
  // All three outcomes are well represented.
  EXPECT_GE(skipped, 100);
  EXPECT_GE(b_fails, 100);
  EXPECT_GE(fft_tests, 100);
}

}  // namespace
}  // namespace ldr
