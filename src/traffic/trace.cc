#include "traffic/trace.h"

#include <algorithm>
#include <cmath>

namespace ldr {

constexpr double kMeanWalkSigma = 0.015;  // relative per-minute mean drift
constexpr double kBurstRho = 0.9;  // AR(1) coefficient at sample granularity

std::vector<double> SynthesizeTraceGbps(const TraceOptions& opts, Rng* rng) {
  size_t per_minute = static_cast<size_t>(60 * opts.samples_per_sec);
  size_t total = per_minute * static_cast<size_t>(opts.minutes);
  std::vector<double> out;
  out.reserve(total);

  double level = opts.mean_gbps;
  double x = 0;  // AR(1) state
  double noise_scale = std::sqrt(1 - kBurstRho * kBurstRho);
  for (int minute = 0; minute < opts.minutes; ++minute) {
    for (size_t s = 0; s < per_minute; ++s) {
      x = kBurstRho * x + noise_scale * rng->Gaussian();
      double v = level * (1.0 + opts.burst_amplitude * x);
      out.push_back(std::max(0.0, v));
    }
    // Bounded multiplicative walk: steps clipped at 2.5 sigma (real minute
    // means don't jump arbitrarily) and the level kept within a factor ~2
    // of the configured mean so traces stay "typical of a backbone link".
    double z = std::clamp(rng->Gaussian(), -2.5, 2.5);
    double step = 1.0 + kMeanWalkSigma * z;
    level = std::clamp(level * step, opts.mean_gbps * 0.5,
                       opts.mean_gbps * 2.0);
  }
  return out;
}

std::vector<double> PerMinuteMeans(const std::vector<double>& samples,
                                   double samples_per_sec) {
  size_t per_minute = static_cast<size_t>(60 * samples_per_sec);
  std::vector<double> out;
  for (size_t start = 0; start + per_minute <= samples.size();
       start += per_minute) {
    double s = 0;
    for (size_t i = 0; i < per_minute; ++i) s += samples[start + i];
    out.push_back(s / static_cast<double>(per_minute));
  }
  return out;
}

std::vector<double> PerMinuteMeansOrMean(const std::vector<double>& samples,
                                         double samples_per_sec) {
  std::vector<double> minutes = PerMinuteMeans(samples, samples_per_sec);
  if (minutes.empty() && !samples.empty()) {
    double s = 0;
    for (double v : samples) s += v;
    minutes.push_back(s / static_cast<double>(samples.size()));
  }
  return minutes;
}

std::vector<double> PerMinuteStdDevs(const std::vector<double>& samples,
                                     double samples_per_sec) {
  size_t per_minute = static_cast<size_t>(60 * samples_per_sec);
  std::vector<double> out;
  for (size_t start = 0; start + per_minute <= samples.size();
       start += per_minute) {
    double mean = 0;
    for (size_t i = 0; i < per_minute; ++i) mean += samples[start + i];
    mean /= static_cast<double>(per_minute);
    double var = 0;
    for (size_t i = 0; i < per_minute; ++i) {
      double d = samples[start + i] - mean;
      var += d * d;
    }
    out.push_back(std::sqrt(var / static_cast<double>(per_minute)));
  }
  return out;
}

std::vector<double> DownsampleMean(const std::vector<double>& samples,
                                   size_t factor) {
  std::vector<double> out;
  if (factor == 0) return out;
  for (size_t start = 0; start + factor <= samples.size(); start += factor) {
    double s = 0;
    for (size_t i = 0; i < factor; ++i) s += samples[start + i];
    out.push_back(s / static_cast<double>(factor));
  }
  return out;
}

}  // namespace ldr
