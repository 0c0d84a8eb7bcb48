// `dvs_sim run`: one engine session over a single trace or a mixed
// audio/video/idle session, with optional fault injection and trace sinks.
// The run is built the way a sweep point and a serve run job build theirs
// (core::RunRequest); only the observability attachments are the CLI's.
#include <cstdio>
#include <fstream>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli_common.hpp"
#include "common/csv.hpp"
#include "core/sweep.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/sinks.hpp"
#include "obs/telemetry/openmetrics.hpp"
#include "obs/telemetry/snapshotter.hpp"
#include "obs/telemetry/span_profiler.hpp"
#include "obs/trace_recorder.hpp"
#include "workload/trace.hpp"
#include "workload/trace_io.hpp"

namespace dvs::cli {

int cmd_run(const CliOptions& o) {
  core::RunRequest req = o.run;
  try {
    req.validate();
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }

  // A machine document on stdout moves the human-readable report to stderr
  // so the document stays parseable; two documents cannot share stdout.
  const int stdout_docs = (o.metrics_json == "-" ? 1 : 0) +
                          (o.ledger_json == "-" ? 1 : 0) +
                          (o.metrics_openmetrics == "-" ? 1 : 0);
  if (stdout_docs > 1) {
    usage("--metrics-json/--ledger-json/--metrics-openmetrics: at most one"
          " may target stdout (-); write the others to files");
  }
  if (o.telemetry_jsonl == "-") {
    usage("--telemetry-jsonl needs a file path"
          " (stdout is reserved for machine documents)");
  }
  if (!o.save_trace.empty() && req.session) {
    usage("--save-trace writes a single trace, not a --session");
  }
  std::FILE* hout = stdout_docs > 0 ? stderr : stdout;

  // The sweep point's construction path (core::RunRequest); --load-trace
  // only swaps in the saved trace's single item.
  const core::CpuAsset cpu = core::build_cpu_asset("sa1100");
  const fault::FaultSpec plan = req.fault_plan();
  core::WorkloadAsset asset;
  if (!o.load_trace.empty() && !req.session) {
    try {
      workload::FrameTrace trace = workload::load_trace(o.load_trace);
      // The saved trace already carries its trace faults; its media picks
      // the default delay target.
      req.media =
          trace.type() == workload::MediaType::Mp3Audio ? "mp3" : "mpeg";
      asset = core::trace_asset(std::move(trace), cpu.cpu);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "dvs_sim: %s\n", e.what());
      return 2;
    }
  } else {
    asset = core::build_workload_asset(req.workload(), cpu.cpu, o.seed, plan,
                                       core::mix_seed(o.seed, 0xfa));
  }

  if (!o.save_trace.empty()) {
    const workload::FrameTrace& trace = asset.items->front().trace;
    workload::save_trace(trace, o.save_trace);
    // Through hout, not stdout: `--save-trace x --metrics-json -` must not
    // interleave prose into the JSON stream.
    std::fprintf(hout, "wrote %zu frames to %s\n", trace.size(),
                 o.save_trace.c_str());
    return 0;
  }

  const core::RunAssembly assembly = req.assembly(o.seed, plan);
  core::DetectorFactoryConfig detector_cfg;
  detector_cfg.ema_gain = o.ema_gain;
  if (assembly.detector == core::DetectorKind::ChangePoint) {
    detector_cfg.prepare();
  }
  core::RunOptions opts =
      core::assemble_run_options(assembly, cpu, asset.idle, detector_cfg);

  // Observability attachments ride on top of the assembled options; they
  // never feed the simulation result.
  obs::TraceRecorder recorder;
  try {
    if (!o.trace_jsonl.empty()) {
      recorder.add_sink(std::make_unique<obs::JsonlSink>(o.trace_jsonl));
    }
    if (!o.trace_csv.empty()) {
      recorder.add_sink(std::make_unique<obs::CsvTimelineSink>(o.trace_csv));
    }
    if (!o.chrome_trace.empty()) {
      recorder.add_sink(std::make_unique<obs::ChromeTraceSink>(o.chrome_trace));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dvs_sim: %s\n", e.what());
    return 2;
  }
  obs::MetricsRegistry registry;
  obs::TelemetrySnapshotter telemetry;
  if (!o.telemetry_jsonl.empty() && !telemetry.open(o.telemetry_jsonl)) {
    std::fprintf(stderr, "dvs_sim: cannot open %s\n", o.telemetry_jsonl.c_str());
    return 2;
  }
  obs::SpanProfiler profiler;
  obs::AttributionLedger ledger;
  if (recorder.active()) opts.trace = &recorder;
  // The registry backs three sinks: metrics JSON, the OpenMetrics
  // exposition, and the quantiles inside telemetry snapshots.
  if (!o.metrics_json.empty() || !o.metrics_openmetrics.empty() ||
      telemetry.active()) {
    opts.metrics = &registry;
  }
  if (!o.power_csv.empty()) opts.power_sample_period = seconds(1.0);
  if (telemetry.active()) {
    opts.telemetry = &telemetry;
    opts.telemetry_every =
        seconds(o.telemetry_every > 0.0 ? o.telemetry_every : 1.0);
  }
  if (!o.self_profile.empty()) opts.profiler = &profiler;
  if (!o.ledger_json.empty()) opts.ledger = &ledger;
  opts.flight_recorder = !o.no_flight;
  if (o.flight_capacity != 0) opts.flight_capacity = o.flight_capacity;
  opts.flight_dump_path = o.flight_dump;

  const std::vector<core::PlaybackItem>& items = *asset.items;
  if (req.session) {
    std::fprintf(hout, "session: %zu items, media ends at %.0f s\n\n",
                 items.size(), items.back().end.value());
  } else {
    const workload::FrameTrace& trace = items.front().trace;
    std::fprintf(hout, "trace: %zu frames over %.0f s (%s)\n\n", trace.size(),
                 trace.duration().value(),
                 std::string(workload::to_string(trace.type())).c_str());
  }
  const core::Metrics m = core::run_items(items, opts);

  print_metrics(hout, m);

  recorder.flush();
  if (recorder.active()) {
    std::fprintf(hout, "\ntrace: %llu events",
                 static_cast<unsigned long long>(recorder.events_recorded()));
    if (!o.trace_jsonl.empty()) std::fprintf(hout, "  jsonl -> %s", o.trace_jsonl.c_str());
    if (!o.trace_csv.empty()) std::fprintf(hout, "  csv -> %s", o.trace_csv.c_str());
    if (!o.chrome_trace.empty()) {
      std::fprintf(hout, "  chrome-trace -> %s (open in Perfetto)", o.chrome_trace.c_str());
    }
    std::fprintf(hout, "\n");
  }
  if (!write_document(o.metrics_json, "metrics json", hout,
                      [&](std::ostream& os) { registry.write_json(os); }) ||
      !write_document(o.ledger_json, "ledger json", hout,
                      [&](std::ostream& os) { ledger.write_json(os); }) ||
      !write_document(o.metrics_openmetrics, "openmetrics", hout,
                      [&](std::ostream& os) {
                        obs::write_openmetrics(registry, os);
                      })) {
    return 1;
  }
  if (telemetry.active()) {
    std::fprintf(hout, "telemetry jsonl -> %s (%zu snapshots)\n",
                 o.telemetry_jsonl.c_str(), telemetry.snapshots_written());
  }
  if (!o.self_profile.empty()) {
    profiler.finalize();
    std::ofstream os{o.self_profile};
    if (!os) {
      std::fprintf(stderr, "dvs_sim: cannot open %s\n", o.self_profile.c_str());
      return 1;
    }
    profiler.write_collapsed(os);
    std::fprintf(hout, "self-profile -> %s (%zu span nodes, %.3f ms total)\n",
                 o.self_profile.c_str(), profiler.nodes().size(),
                 profiler.node_total_s(0) * 1e3);
  }
  warn_clamped_histograms(registry);

  if (!o.power_csv.empty()) {
    CsvWriter csv{o.power_csv};
    csv.write_row(std::vector<std::string>{"time_s", "power_mw"});
    for (const auto& [t, p] : m.power_trace) {
      csv.write_row(std::vector<double>{t, p});
    }
    std::fprintf(hout, "\npower trace (%zu samples) -> %s\n", m.power_trace.size(),
                 o.power_csv.c_str());
  }
  return 0;
}

}  // namespace dvs::cli
