// Algorithm 1 from the paper: predicting the next minute's mean traffic
// level. A deliberately simple conservative estimator — rises immediately
// with measured traffic (with a 10% hedge against growth) and decays slowly
// (2% per minute) when traffic drops, so aggregates can grow by 10% before
// exceeding the predicted level.
#ifndef LDR_TRAFFIC_PREDICTOR_H_
#define LDR_TRAFFIC_PREDICTOR_H_

#include <vector>

namespace ldr {

class MeanRatePredictor {
 public:
  // Algorithm 1's constants: 2% decay per minute, 10% hedge.
  static constexpr double kDecay = 0.98;
  static constexpr double kHedge = 1.1;

  // Feeds the value measured over the last minute; returns (and stores) the
  // prediction for the next minute. The first call simply hedges the first
  // measurement.
  double Update(double measured_mean);

  double prediction() const { return prediction_; }
  bool primed() const { return primed_; }

 private:
  double prediction_ = 0;
  bool primed_ = false;
};

// Runs the predictor over a series of per-minute means; returns, for each
// minute i >= 1, the ratio measured[i] / predicted[i] — the quantity whose
// CDF is the paper's Fig. 9.
std::vector<double> PredictionRatios(const std::vector<double>& minute_means);

}  // namespace ldr

#endif  // LDR_TRAFFIC_PREDICTOR_H_
