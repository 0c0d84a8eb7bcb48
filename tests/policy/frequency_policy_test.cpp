#include "policy/frequency_policy.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "hw/cpu_catalog.hpp"
#include "queue/mg1.hpp"
#include "queue/mm1.hpp"
#include "workload/trace.hpp"

namespace dvs::policy {
namespace {

const hw::Sa1100& cpu() {
  static const hw::Sa1100 instance;
  return instance;
}

FrequencyPolicy mp3_policy(Seconds delay = seconds(0.1)) {
  const auto dec = workload::reference_mp3_decoder(cpu().max_frequency());
  return FrequencyPolicy{cpu(), dec.performance_curve(cpu()), delay};
}

FrequencyPolicy mpeg_policy(Seconds delay = seconds(0.1)) {
  const auto dec = workload::reference_mpeg_decoder(cpu().max_frequency());
  return FrequencyPolicy{cpu(), dec.performance_curve(cpu()), delay};
}

TEST(FrequencyPolicy, ChosenStepMeetsDelayTargetAndIsMinimal) {
  const FrequencyPolicy p = mp3_policy();
  const auto dec = workload::reference_mp3_decoder(cpu().max_frequency());
  const Hertz lambda_u = hertz(38.3);
  const Hertz service_at_max = hertz(100.0);
  const std::size_t step = p.select_step(lambda_u, service_at_max);

  const Hertz required = queue::Mm1::required_service_rate(lambda_u, seconds(0.1));
  // Chosen step achieves at least the required decode rate...
  EXPECT_GE(p.decode_rate_at(step, service_at_max).value(), required.value() - 1e-9);
  // ...and the step below it (if any) does not.
  if (step > 0) {
    EXPECT_LT(p.decode_rate_at(step - 1, service_at_max).value(), required.value());
  }
  (void)dec;
}

TEST(FrequencyPolicy, LightLoadPicksLowStep) {
  const FrequencyPolicy p = mp3_policy();
  // 14 fr/s arrivals, fast decoder: required ~24 fr/s vs 100 at max.
  const std::size_t step = p.select_step(hertz(14.0), hertz(100.0));
  EXPECT_LT(step, 4u);
}

TEST(FrequencyPolicy, SaturationPinsTopStep) {
  const FrequencyPolicy p = mpeg_policy();
  // Arrivals exceed what even the top step can do: run flat out.
  EXPECT_EQ(p.select_step(hertz(60.0), hertz(48.0)), cpu().num_steps() - 1);
  // Required ratio exactly 1 also pins the top step.
  EXPECT_EQ(p.select_step(hertz(38.0), hertz(48.0)), cpu().num_steps() - 1);
}

TEST(FrequencyPolicy, DegenerateEstimatesDefaultToTop) {
  const FrequencyPolicy p = mp3_policy();
  EXPECT_EQ(p.select_step(hertz(0.0), hertz(100.0)), cpu().num_steps() - 1);
  EXPECT_EQ(p.select_step(hertz(30.0), hertz(0.0)), cpu().num_steps() - 1);
}

TEST(FrequencyPolicy, TighterDelayNeedsHigherStep) {
  const FrequencyPolicy loose = mp3_policy(seconds(0.5));
  const FrequencyPolicy tight = mp3_policy(seconds(0.02));
  const Hertz lu = hertz(38.3);
  const Hertz sr = hertz(100.0);
  EXPECT_LE(loose.select_step(lu, sr), tight.select_step(lu, sr));
  EXPECT_GT(tight.select_step(lu, sr), 0u);
}

TEST(FrequencyPolicy, StepIsMonotoneInArrivalRate) {
  const FrequencyPolicy p = mpeg_policy();
  std::size_t prev = 0;
  for (double lu = 9.0; lu <= 32.0; lu += 1.0) {
    const std::size_t s = p.select_step(hertz(lu), hertz(48.0));
    EXPECT_GE(s, prev) << "arrival " << lu;
    prev = s;
  }
}

TEST(FrequencyPolicy, SustainableArrivalInvertsSelection) {
  const FrequencyPolicy p = mpeg_policy();
  const Hertz sr = hertz(48.0);
  for (std::size_t s = 0; s < cpu().num_steps(); ++s) {
    const Hertz lu = p.sustainable_arrival_rate_at(s, sr);
    if (lu.value() <= 0.0) continue;  // step too slow for any arrival rate
    // Feeding back the sustainable arrival rate must select a step <= s.
    EXPECT_LE(p.select_step(lu, sr), s) << "step " << s;
  }
}

TEST(FrequencyPolicy, DecodeRateScalesWithServiceEstimate) {
  const FrequencyPolicy p = mpeg_policy();
  const std::size_t s = 5;
  EXPECT_NEAR(p.decode_rate_at(s, hertz(96.0)).value(),
              2.0 * p.decode_rate_at(s, hertz(48.0)).value(), 1e-9);
  EXPECT_THROW((void)(p.decode_rate_at(s, hertz(0.0))), std::logic_error);
}

TEST(FrequencyPolicy, QueueFeedbackRaisesStep) {
  const FrequencyPolicy p = mp3_policy();
  const Hertz lu = hertz(20.0);
  const Hertz sr = hertz(100.0);
  const std::size_t base = p.select_step(lu, sr);
  // Backlog at/below the steady-state occupancy changes nothing.
  EXPECT_EQ(p.select_step(lu, sr, 2.0), base);
  // Large backlog demands drain capacity: strictly higher step.
  const std::size_t loaded = p.select_step(lu, sr, 40.0);
  EXPECT_GT(loaded, base);
  // And it is monotone in the backlog.
  std::size_t prev = base;
  for (double q = 0.0; q <= 60.0; q += 5.0) {
    const std::size_t s = p.select_step(lu, sr, q);
    EXPECT_GE(s, prev);
    prev = s;
  }
}

TEST(FrequencyPolicy, RejectsBadConstruction) {
  const auto dec = workload::reference_mp3_decoder(cpu().max_frequency());
  EXPECT_THROW(
      FrequencyPolicy(cpu(), dec.performance_curve(cpu()), seconds(0.0)),
      std::logic_error);
  // Non-monotone curve rejected.
  EXPECT_THROW(FrequencyPolicy(cpu(),
                               PiecewiseLinear{{59.0, 0.5}, {100.0, 0.4}, {221.25, 1.0}},
                               seconds(0.1)),
               std::logic_error);
}

// select_step reads a per-step performance table built at construction;
// this is the curve-evaluating selection it replaced, step for step.
std::size_t reference_select_step(const FrequencyPolicy& p, Hertz arrival,
                                  Hertz service_at_max, double buffered) {
  const std::size_t top = p.cpu().num_steps() - 1;
  if (arrival.value() <= 0.0 || service_at_max.value() <= 0.0) return top;
  const Seconds d = p.target_delay();
  Hertz required =
      p.service_cv2() == 1.0
          ? queue::Mm1::required_service_rate(arrival, d)
          : queue::Mg1::required_service_rate(arrival, d, p.service_cv2());
  const double excess = buffered - (arrival.value() * d.value() + 1.0);
  if (excess > 0.0) required += Hertz{excess / (10.0 * d.value())};
  const double ratio = required.value() / service_at_max.value();
  if (ratio >= 1.0) return top;
  for (std::size_t s = 0; s <= top; ++s) {
    const double perf = p.performance_curve()(p.cpu().frequency_at(s).value());
    if (perf >= ratio * (1.0 - 1e-9)) return s;
  }
  return top;
}

TEST(FrequencyPolicy, CachedSelectionMatchesCurveEvaluation) {
  const hw::Sa1100 cpus[] = {hw::smartbadge_sa1100(), hw::crusoe_like(),
                             hw::frequency_only_sa1100()};
  std::size_t checked = 0;
  for (const hw::Sa1100& c : cpus) {
    const workload::DecoderModel decoders[] = {
        workload::reference_mp3_decoder(c.max_frequency()),
        workload::reference_mpeg_decoder(c.max_frequency())};
    for (const workload::DecoderModel& dec : decoders) {
      for (double cv2 : {1.0, 0.25, 0.0}) {
        for (double delay : {0.05, 0.1, 0.5}) {
          const FrequencyPolicy p{c, dec.performance_curve(c), seconds(delay),
                                  cv2};
          for (double lambda_u = -1.0; lambda_u <= 120.0; lambda_u += 0.73) {
            for (double mu : {0.0, 15.0, 38.3, 61.0, 100.0, 180.0, 1000.0}) {
              for (double q : {0.0, 1.0, 2.5, 7.0, 30.0, 400.0}) {
                ASSERT_EQ(p.select_step(hertz(lambda_u), hertz(mu), q),
                          reference_select_step(p, hertz(lambda_u), hertz(mu), q))
                    << "lambda_u " << lambda_u << " mu " << mu << " q " << q
                    << " cv2 " << cv2 << " d " << delay;
                ++checked;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 100000u);
}

}  // namespace
}  // namespace dvs::policy
