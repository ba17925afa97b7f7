#include "traffic/predictor.h"

#include <algorithm>

namespace ldr {

double MeanRatePredictor::Update(double measured_mean) {
  double scaled_est = measured_mean * kHedge;
  if (!primed_) {
    prediction_ = scaled_est;
    primed_ = true;
    return prediction_;
  }
  if (scaled_est > prediction_) {
    prediction_ = scaled_est;
  } else {
    prediction_ = std::max(prediction_ * kDecay, scaled_est);
  }
  return prediction_;
}

std::vector<double> PredictionRatios(const std::vector<double>& minute_means) {
  std::vector<double> ratios;
  MeanRatePredictor pred;
  for (size_t i = 0; i + 1 < minute_means.size(); ++i) {
    double predicted = pred.Update(minute_means[i]);
    if (predicted > 0) {
      ratios.push_back(minute_means[i + 1] / predicted);
    }
  }
  return ratios;
}

}  // namespace ldr
