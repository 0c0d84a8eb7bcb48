// core::RunRequest: the single-run request `dvs_sim run` and serve run jobs
// share.  Validation names the field, the workload and fault plan match
// what the sweep's asset builder plays, and the assembly picks the
// workload's default delay target unless one is given.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/sweep.hpp"
#include "fault/fault_spec.hpp"
#include "fault/trace_transforms.hpp"

namespace dvs::core {
namespace {

/// The message of the invalid_argument `r.validate()` throws, or "" when
/// the request is valid.
std::string rejection(const RunRequest& r) {
  try {
    r.validate();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(RunRequest, ValidateNamesTheBadField) {
  const auto field_of = [](auto mutate) {
    RunRequest r;
    mutate(r);
    const std::string msg = rejection(r);
    return msg.substr(0, msg.find(':'));
  };
  EXPECT_EQ(field_of([](RunRequest& r) { r.media = "vinyl"; }), "media");
  EXPECT_EQ(field_of([](RunRequest& r) { r.media = "mpeg"; r.clip = "vinyl"; }),
            "clip");
  EXPECT_EQ(field_of([](RunRequest& r) { r.sequence = "Z"; }), "sequence");
  EXPECT_EQ(field_of([](RunRequest& r) { r.sequence = ""; }), "sequence");
  EXPECT_EQ(field_of([](RunRequest& r) { r.sequence = "AbC"; }), "sequence");
  EXPECT_EQ(field_of([](RunRequest& r) { r.session = true; r.cycles = 0; }),
            "cycles");
  EXPECT_EQ(field_of([](RunRequest& r) { r.seconds = -5.0; }), "seconds");
  EXPECT_EQ(field_of([](RunRequest& r) { r.dpm_delay = -1.0; }), "dpm_delay");
  EXPECT_EQ(field_of([](RunRequest& r) { r.delay = -1.0; }), "delay");
  EXPECT_EQ(field_of([](RunRequest& r) { r.cv2 = -1.0; }), "cv2");
  EXPECT_EQ(field_of([](RunRequest& r) {
              r.dpm_delay = std::numeric_limits<double>::infinity();
            }),
            "dpm_delay");
  EXPECT_EQ(field_of([](RunRequest& r) { r.detector = "psychic"; }),
            "detector");
  EXPECT_EQ(field_of([](RunRequest& r) { r.policy = "no-such"; }), "policy");
  EXPECT_EQ(field_of([](RunRequest& r) { r.dpm = "quantum"; }), "dpm");
  EXPECT_EQ(field_of([](RunRequest& r) { r.faults = "no-such"; }), "faults");
  EXPECT_EQ(field_of([](RunRequest& r) { r.faults = ","; }), "faults");
}

TEST(RunRequest, OnlyThePlayedWorkloadFieldsAreChecked) {
  EXPECT_EQ(rejection(RunRequest{}), "");
  RunRequest mp3;
  mp3.clip = "vinyl";  // an MP3 run never plays the clip
  EXPECT_EQ(rejection(mp3), "");
  RunRequest mpeg;
  mpeg.media = "mpeg";
  mpeg.sequence = "Z";  // nor does an MPEG run play the sequence
  EXPECT_EQ(rejection(mpeg), "");
  RunRequest session;
  session.session = true;
  session.sequence = "";
  session.media = "mpeg";
  session.clip = "vinyl";
  EXPECT_EQ(rejection(session), "");
}

TEST(RunRequest, WorkloadFollowsMediaAndSession) {
  RunRequest r;
  r.sequence = "AC";
  EXPECT_EQ(r.workload().name(), "mp3:AC");
  r.media = "mpeg";
  r.clip = "terminator2";
  r.seconds = 30.0;
  EXPECT_EQ(r.workload().name(), "mpeg:terminator2@30s");
  r.session = true;
  r.cycles = 2;
  r.seconds = 20.0;
  EXPECT_EQ(r.workload().name(), "session:2x20s");
  r.seconds = 0.0;  // the session keeps its default segment length
  EXPECT_EQ(r.workload().name(), "session:2x120s");
}

TEST(RunRequest, FaultPlanStacksTraceFaultsAndArmsTheFirstSpec) {
  RunRequest r;
  EXPECT_TRUE(r.fault_plan().none());
  r.faults = "spike10x,chaos";
  const fault::FaultSpec plan = r.fault_plan();
  const fault::FaultSpec* spike = fault::find_fault("spike10x");
  const fault::FaultSpec* chaos = fault::find_fault("chaos");
  ASSERT_NE(spike, nullptr);
  ASSERT_NE(chaos, nullptr);
  // spike10x's trace faults, then chaos's, in order.
  std::vector<std::string_view> want;
  for (const auto* spec : {spike, chaos}) {
    for (const fault::TraceFault& f : spec->trace_faults) {
      want.push_back(fault::fault_kind(f));
    }
  }
  std::vector<std::string_view> got;
  for (const fault::TraceFault& f : plan.trace_faults) {
    got.push_back(fault::fault_kind(f));
  }
  EXPECT_EQ(got, want);
  // The watchdog and hardware plan are the first spec's: chaos's hardware
  // faults are not armed.
  ASSERT_TRUE(chaos->hw.any());
  EXPECT_EQ(plan.hw.any(), spike->hw.any());
  EXPECT_EQ(plan.watchdog.enabled, spike->watchdog.enabled);
}

TEST(RunRequest, AssemblyResolvesNamesAndDelayTarget) {
  RunRequest r;
  r.detector = "ema";
  r.policy = "qdpm";
  r.dpm = "tismdp";
  r.dpm_delay = 0.3;
  r.cv2 = 2.0;
  const fault::FaultSpec plan = r.fault_plan();
  RunAssembly a = r.assembly(7, plan);
  EXPECT_EQ(a.detector, DetectorKind::ExpAverage);
  EXPECT_EQ(a.policy, "qdpm");
  EXPECT_EQ(a.dpm.kind, DpmKind::Tismdp);
  EXPECT_DOUBLE_EQ(a.dpm.max_delay.value(), 0.3);
  EXPECT_DOUBLE_EQ(a.service_cv2, 2.0);
  EXPECT_EQ(a.engine_seed, 7u);
  EXPECT_EQ(a.faults, &plan);
  EXPECT_DOUBLE_EQ(a.delay_target.value(), 0.15);  // audio default
  r.media = "mpeg";
  EXPECT_DOUBLE_EQ(r.assembly(7, plan).delay_target.value(), 0.1);
  r.delay = 0.25;
  EXPECT_DOUBLE_EQ(r.assembly(7, plan).delay_target.value(), 0.25);
  r.policy.clear();
  EXPECT_EQ(r.assembly(7, plan).policy, "paper");
}

}  // namespace
}  // namespace dvs::core
