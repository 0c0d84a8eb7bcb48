#include "core/engine.hpp"

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "dpm/cost_model.hpp"
#include "obs/metrics_registry.hpp"
#include "workload/clips.hpp"
#include "workload/trace.hpp"

namespace dvs::core {
namespace {

const hw::Sa1100& cpu() {
  static const hw::Sa1100 instance;
  return instance;
}

workload::FrameTrace short_mp3_trace(std::uint64_t seed = 11,
                                     const std::string& labels = "A") {
  const auto dec = workload::reference_mp3_decoder(cpu().max_frequency());
  Rng rng{seed};
  return workload::build_mp3_trace(workload::mp3_sequence(labels), dec, rng);
}

DetectorFactoryConfig& shared_detectors() {
  static DetectorFactoryConfig cfg = [] {
    DetectorFactoryConfig c;
    c.change_point.mc_windows = 1500;
    c.prepare();
    return c;
  }();
  return cfg;
}

Metrics run_kind(const workload::FrameTrace& trace, DetectorKind kind,
                 dpm::DpmPolicyPtr dpm = nullptr) {
  RunOptions opts;
  opts.detector = kind;
  opts.detector_cfg = &shared_detectors();
  opts.dpm_policy = std::move(dpm);
  const auto dec = trace.type() == workload::MediaType::Mp3Audio
                       ? workload::reference_mp3_decoder(cpu().max_frequency())
                       : workload::reference_mpeg_decoder(cpu().max_frequency());
  return run_single_trace(trace, dec, opts);
}

TEST(Engine, DecodesEveryFrame) {
  const auto trace = short_mp3_trace();
  const Metrics m = run_kind(trace, DetectorKind::Max);
  EXPECT_EQ(m.frames_arrived, trace.size());
  EXPECT_EQ(m.frames_decoded, trace.size());
  EXPECT_EQ(m.frames_dropped, 0u);
  EXPECT_GE(m.duration, trace.duration());
}

TEST(Engine, EnergyIsPositiveAndAdditive) {
  const auto trace = short_mp3_trace();
  const Metrics m = run_kind(trace, DetectorKind::Max);
  Joules sum{0.0};
  for (const auto& e : m.component_energy) {
    EXPECT_GE(e.value(), 0.0);
    sum += e;
  }
  EXPECT_NEAR(m.total_energy.value(), sum.value(), 1e-9);
  EXPECT_GT(m.average_power.value(), 0.0);
  // Sanity: average power below the all-active total (components duty-cycle).
  EXPECT_LT(m.average_power.value(),
            hw::smartbadge_total_power(hw::PowerState::Active).value());
}

TEST(Engine, MaxGovernorNeverSwitches) {
  const Metrics m = run_kind(short_mp3_trace(), DetectorKind::Max);
  EXPECT_EQ(m.cpu_switches, 0);
  EXPECT_NEAR(m.mean_cpu_frequency.value(), cpu().max_frequency().value(), 1e-6);
}

TEST(Engine, AdaptiveGovernorLowersFrequencyAndEnergy) {
  const auto trace = short_mp3_trace();
  const Metrics max = run_kind(trace, DetectorKind::Max);
  const Metrics ideal = run_kind(trace, DetectorKind::Ideal);
  EXPECT_LT(ideal.mean_cpu_frequency, max.mean_cpu_frequency);
  EXPECT_LT(ideal.total_energy, max.total_energy);
  EXPECT_GT(ideal.cpu_switches, 0);
}

TEST(Engine, DelayStaysNearTargetUnderIdealDetection) {
  const auto trace = short_mp3_trace(13, "AF");
  const Metrics m = run_kind(trace, DetectorKind::Ideal);
  // Mean total delay must be positive and not exceed the 0.1 s target by
  // much (M/D/1-ish service makes it typically lower).
  EXPECT_GT(m.mean_frame_delay.value(), 0.0);
  EXPECT_LT(m.mean_frame_delay.value(), 0.15);
}

TEST(Engine, DpmSleepsAcrossSessionGaps) {
  // Two clips separated by a long idle gap.
  const auto dec = workload::reference_mp3_decoder(cpu().max_frequency());
  Rng rng{17};
  auto t1 = workload::build_mp3_trace(workload::mp3_sequence("A"), dec, rng);
  auto t2 = workload::build_mp3_trace(workload::mp3_sequence("B"), dec, rng)
                .shifted(seconds(400.0));
  std::vector<PlaybackItem> items;
  items.push_back({t1, dec, default_nominal_arrival(t1.type()),
                   default_nominal_service(t1.type()), seconds(100.0)});
  items.push_back({t2, dec, default_nominal_arrival(t2.type()),
                   default_nominal_service(t2.type()), seconds(510.0)});

  RunOptions with_dpm;
  with_dpm.detector = DetectorKind::Max;
  with_dpm.detector_cfg = &shared_detectors();
  with_dpm.dpm_policy =
      std::make_shared<dpm::FixedTimeoutPolicy>(seconds(2.0), seconds(60.0));
  const Metrics slept = run_items(items, with_dpm);

  RunOptions no_dpm = with_dpm;
  no_dpm.dpm_policy = nullptr;
  const Metrics idled = run_items(items, no_dpm);

  EXPECT_GT(slept.dpm_sleeps, 0);
  EXPECT_GT(slept.dpm_wakeups, 0);
  EXPECT_LT(slept.total_energy, idled.total_energy);
  // All frames still decoded despite the wakeup latency.
  EXPECT_EQ(slept.frames_decoded, t1.size() + t2.size());
  EXPECT_GT(slept.dpm_total_wakeup_delay.value(), 0.0);
}

TEST(Engine, VideoKeepsDisplayLit) {
  const auto dec = workload::reference_mpeg_decoder(cpu().max_frequency());
  Rng rng{19};
  workload::MpegClip clip = workload::football_clip();
  clip.duration = seconds(60.0);
  const auto trace = workload::build_mpeg_trace(clip, dec, rng);
  const Metrics m = run_kind(trace, DetectorKind::Max);
  // Display active ~the whole hour: ~1 W * 60 s = 60 J.
  const double display_j =
      m.component_energy[static_cast<std::size_t>(hw::BadgeComponentId::Display)]
          .value();
  EXPECT_GT(display_j, 50.0);
  // An audio run of the same length keeps the display idle (~0.3 W).
  const auto audio = short_mp3_trace();
  const Metrics ma = run_kind(audio, DetectorKind::Max);
  const double audio_display_rate =
      ma.component_energy[static_cast<std::size_t>(hw::BadgeComponentId::Display)]
          .value() /
      ma.duration.value();
  EXPECT_NEAR(audio_display_rate, 0.3, 0.02);
}

TEST(Engine, RunIsSingleShot) {
  const auto trace = short_mp3_trace();
  const auto dec = workload::reference_mp3_decoder(cpu().max_frequency());
  std::vector<PlaybackItem> items;
  items.push_back({trace, dec, default_nominal_arrival(trace.type()),
                   default_nominal_service(trace.type()), trace.duration()});
  EngineConfig cfg;
  cfg.detector = DetectorKind::Max;
  Engine engine{cfg, std::move(items)};
  engine.run();
  EXPECT_THROW((void)(engine.run()), std::logic_error);
}

TEST(Engine, RejectsEmptyAndOverlappingItems) {
  EngineConfig cfg;
  EXPECT_THROW((void)(Engine(cfg, {})), std::logic_error);

  const auto dec = workload::reference_mp3_decoder(cpu().max_frequency());
  const auto t1 = short_mp3_trace();
  std::vector<PlaybackItem> overlapping;
  overlapping.push_back({t1, dec, hertz(38.0), hertz(100.0), t1.duration()});
  overlapping.push_back({t1, dec, hertz(38.0), hertz(100.0), t1.duration()});
  EXPECT_THROW((void)(Engine(cfg, std::move(overlapping))), std::logic_error);
}

TEST(Engine, BoundedBufferDropsUnderSaturation) {
  // Arrivals far beyond the decoder's top speed with a small buffer.
  const auto dec = workload::reference_mp3_decoder(cpu().max_frequency());
  std::vector<workload::TraceFrame> frames;
  for (int i = 0; i < 3000; ++i) {
    // 300 fr/s arrivals vs ~77 fr/s decode at max (work 1.3).
    frames.push_back({static_cast<std::uint64_t>(i), seconds(i / 300.0), 1.3});
  }
  std::vector<workload::RateTruth> truth{{seconds(0.0), hertz(300.0), hertz(77.0)}};
  workload::FrameTrace trace{workload::MediaType::Mp3Audio, std::move(frames),
                             std::move(truth), seconds(10.0)};
  std::vector<PlaybackItem> items;
  items.push_back({trace, dec, hertz(300.0), hertz(77.0), seconds(10.0)});
  EngineConfig cfg;
  cfg.detector = DetectorKind::Max;
  cfg.buffer_capacity = 32;
  Engine engine{cfg, std::move(items)};
  const Metrics m = engine.run();
  EXPECT_GT(m.frames_dropped, 0u);
  EXPECT_LT(m.frames_decoded, m.frames_arrived);
  EXPECT_LE(m.mean_buffered_frames, 32.0 + 1e-9);
}

TEST(Engine, PowerTraceSamplesWholeRun) {
  const auto trace = short_mp3_trace();
  RunOptions opts;
  opts.detector = DetectorKind::Max;
  opts.detector_cfg = &shared_detectors();
  opts.power_sample_period = seconds(1.0);
  const auto dec = workload::reference_mp3_decoder(cpu().max_frequency());
  const Metrics m = run_single_trace(trace, dec, opts);
  // ~one sample per second over the 100 s clip A.
  EXPECT_NEAR(static_cast<double>(m.power_trace.size()),
              trace.duration().value(), 3.0);
  for (const auto& [t, p] : m.power_trace) {
    EXPECT_GE(t, 0.0);
    EXPECT_LE(t, m.duration.value());
    EXPECT_GT(p, 0.0);
    EXPECT_LE(p, hw::smartbadge_total_power(hw::PowerState::Active).value());
  }
  // Timestamps are strictly increasing.
  for (std::size_t i = 1; i < m.power_trace.size(); ++i) {
    EXPECT_GT(m.power_trace[i].first, m.power_trace[i - 1].first);
  }
  // And the time-average of the samples is consistent with the measured
  // average power (coarse: the sampler aliases short bursts).
  RunningStats ps;
  for (const auto& [t, p] : m.power_trace) ps.add(p);
  EXPECT_NEAR(ps.mean(), m.average_power.value(), m.average_power.value() * 0.15);
}

TEST(Engine, DeterministicAcrossRuns) {
  const auto trace = short_mp3_trace();
  const Metrics a = run_kind(trace, DetectorKind::ChangePoint);
  const Metrics b = run_kind(trace, DetectorKind::ChangePoint);
  EXPECT_DOUBLE_EQ(a.total_energy.value(), b.total_energy.value());
  EXPECT_DOUBLE_EQ(a.mean_frame_delay.value(), b.mean_frame_delay.value());
  EXPECT_EQ(a.cpu_switches, b.cpu_switches);
}

/// Kernel heap events executed per arrived frame, from the run's registry.
double heap_events_per_frame(std::vector<PlaybackItem> items,
                             dpm::DpmPolicyPtr dpm) {
  obs::MetricsRegistry registry;
  RunOptions opts;
  opts.detector = DetectorKind::ChangePoint;
  opts.detector_cfg = &shared_detectors();
  opts.dpm_policy = std::move(dpm);
  opts.metrics = &registry;
  const Metrics m = run_items(std::move(items), opts);
  EXPECT_GT(m.frames_arrived, 0u);
  return static_cast<double>(registry.counter_value("sim.events_executed")) /
         static_cast<double>(m.frames_arrived);
}

PlaybackItem single_item(workload::FrameTrace trace,
                         const workload::DecoderModel& dec) {
  const Seconds end = trace.duration();
  const workload::MediaType type = trace.type();
  return PlaybackItem{std::move(trace), dec, default_nominal_arrival(type),
                      default_nominal_service(type), end};
}

TEST(Engine, PerFramePathStaysOffTheEventHeap) {
  // Arrivals, WLAN bursts, decode start/done, memory release and the DPM
  // arm timer are ranked engine actions; the heap sees only the rare
  // events (DPM sleep steps, wakeup completion, samplers).
  const auto mp3_dec = workload::reference_mp3_decoder(cpu().max_frequency());
  const auto mpeg_dec = workload::reference_mpeg_decoder(cpu().max_frequency());
  Rng rng{5};
  const auto mp3 = workload::build_mp3_trace(workload::mp3_sequence("ACEF"),
                                             mp3_dec, rng);
  const auto mpeg =
      workload::build_mpeg_trace(workload::football_clip(), mpeg_dec, rng);
  EXPECT_LE(heap_events_per_frame({single_item(mp3, mp3_dec)}, nullptr), 2.0);
  EXPECT_LE(heap_events_per_frame({single_item(mpeg, mpeg_dec)}, nullptr), 2.0);

  SessionConfig scfg;
  scfg.cycles = 2;
  Session session = build_session(scfg, cpu());
  DpmSpec tismdp;
  tismdp.kind = DpmKind::Tismdp;
  const auto policy = make_dpm_policy(
      tismdp, dpm::smartbadge_cost_model(hw::SmartBadge{}), session.idle_model);
  EXPECT_LE(heap_events_per_frame(std::move(session.items), policy), 2.0);
}

}  // namespace
}  // namespace dvs::core
