// Observability behaviour lock: FNV-1a digests of every observability
// output of one fixed-seed mixed session — the JSONL trace, the
// attribution ledger, the flight-recorder dump, the metrics registry, and
// the flight dump of a run with only the default recorder on (the sweep
// default).  The session exercises every decision kind the engine
// instruments: change-point detection across clip switches, TISMDP
// sleeps and wakeups, injected wakeup and frequency faults, and watchdog
// escalation and recovery under the "chaos" fault spec.
//
// The constants pin the exact bytes.  A change to how decisions are
// observed (which channel sees what, in which order, with which payload)
// must leave them alone; a change that moves one must say why.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>

#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "dpm/cost_model.hpp"
#include "fault/fault_spec.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/sinks.hpp"
#include "obs/trace_recorder.hpp"

namespace dvs::core {
namespace {

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

const hw::Sa1100& cpu() {
  static const hw::Sa1100 instance;
  return instance;
}

const DetectorFactoryConfig& shared_detectors() {
  static const DetectorFactoryConfig cfg = [] {
    DetectorFactoryConfig c;
    c.change_point.mc_windows = 1500;
    c.prepare();
    return c;
  }();
  return cfg;
}

const fault::FaultSpec& chaos() {
  const fault::FaultSpec* spec = fault::find_fault("chaos");
  EXPECT_NE(spec, nullptr);
  return *spec;
}

/// The fixed-seed mixed session: two audio/video cycles with the chaos
/// trace faults applied item by item through one fault substream.
Session chaos_session() {
  SessionConfig scfg;
  scfg.cycles = 2;
  scfg.mpeg_segment = seconds(30.0);
  scfg.seed = 7;
  Session session = build_session(scfg, cpu());
  Rng fault_rng{0xc4a05ULL};
  for (PlaybackItem& item : session.items) {
    item.trace = fault::apply_faults(item.trace, chaos().trace_faults,
                                     fault_rng);
  }
  return session;
}

RunOptions chaos_options(const Session& session) {
  RunOptions opts;
  opts.detector = DetectorKind::ChangePoint;
  opts.detector_cfg = &shared_detectors();
  opts.seed = 3;
  DpmSpec dpm;
  dpm.kind = DpmKind::Tismdp;
  opts.dpm_policy =
      make_dpm_policy(dpm, dpm::smartbadge_cost_model(hw::SmartBadge{}),
                      session.idle_model);
  opts.hw_faults = chaos().hw;
  opts.watchdog = chaos().watchdog;
  return opts;
}

struct LockOutputs {
  std::string trace_jsonl;
  std::string ledger_json;
  std::string flight_dump;
  std::string metrics_json;
  std::string default_flight_dump;
  Metrics metrics;
  std::uint64_t flight_recorded = 0;
  std::size_t flight_capacity = 0;
};

LockOutputs run_lock_session() {
  LockOutputs out;
  const Session session = chaos_session();
  {
    std::ostringstream jsonl;
    obs::TraceRecorder trace;
    trace.add_sink(std::make_unique<obs::JsonlSink>(jsonl));
    obs::AttributionLedger ledger;
    obs::MetricsRegistry registry;
    RunOptions opts = chaos_options(session);
    opts.trace = &trace;
    opts.ledger = &ledger;
    opts.metrics = &registry;
    opts.flight_capacity = std::size_t{1} << 20;
    Engine engine{to_engine_config(opts), session.items};
    out.metrics = engine.run();
    trace.flush();
    out.trace_jsonl = jsonl.str();

    std::ostringstream ledger_os;
    ledger.write_json(ledger_os);
    out.ledger_json = ledger_os.str();

    std::ostringstream flight_os;
    engine.flight_recorder()->dump(flight_os, "lock");
    out.flight_dump = flight_os.str();
    out.flight_recorded = engine.flight_recorder()->records_stored();
    out.flight_capacity = engine.flight_recorder()->capacity();

    // merge_from drops the gauges, which carry the wall-clock timings.
    obs::MetricsRegistry deterministic;
    deterministic.merge_from(registry);
    std::ostringstream metrics_os;
    deterministic.write_json(metrics_os);
    out.metrics_json = metrics_os.str();
  }
  {
    Engine engine{to_engine_config(chaos_options(session)), session.items};
    engine.run();
    std::ostringstream flight_os;
    engine.flight_recorder()->dump(flight_os, "lock");
    out.default_flight_dump = flight_os.str();
  }
  return out;
}

TEST(ObservabilityLock, SessionExercisesEveryDecisionKind) {
  const LockOutputs out = run_lock_session();
  EXPECT_GT(out.metrics.dpm_sleeps, 0);
  EXPECT_GT(out.metrics.dpm_wakeups, 0);
  EXPECT_GT(out.metrics.cpu_switches, 0);
  EXPECT_GT(out.metrics.faults_injected, 0u);
  EXPECT_GT(out.metrics.watchdog_escalations, 0);
  EXPECT_GT(out.metrics.watchdog_recoveries, 0);
  // The big ring holds the whole run: the dump is the complete stream.
  EXPECT_LE(out.flight_recorded, out.flight_capacity);
  for (const char* needle :
       {"\"detector_decision\"", "\"freq_commit\"", "\"dpm_sleep\"",
        "\"dpm_wakeup\"", "\"fault_injected\"", "\"watchdog_escalate\"",
        "\"watchdog_recover\"", "\"component_state\"", "\"decode_done\""}) {
    EXPECT_NE(out.trace_jsonl.find(needle), std::string::npos) << needle;
  }
  for (std::size_t c = 0; c < obs::kNumCauses; ++c) {
    const std::string cause =
        std::string("\"") + obs::to_string(static_cast<obs::Cause>(c)) + "\"";
    EXPECT_NE(out.ledger_json.find(cause), std::string::npos) << cause;
  }
}

TEST(ObservabilityLock, OutputDigestsArePinned) {
  const LockOutputs out = run_lock_session();
  EXPECT_EQ(hex(fnv1a(out.trace_jsonl)), "0x3f11ec945ae6e405");
  EXPECT_EQ(hex(fnv1a(out.ledger_json)), "0x25b3f8db3c677504");
  EXPECT_EQ(hex(fnv1a(out.flight_dump)), "0x98a216de571253f2");
  // The sim.* counters count kernel heap events only; the per-frame
  // engine actions run outside the heap.
  EXPECT_EQ(hex(fnv1a(out.metrics_json)), "0xefde29ece655792c");
  EXPECT_EQ(hex(fnv1a(out.default_flight_dump)), "0xbe5ef829ee24d8b1");
}

}  // namespace
}  // namespace dvs::core
