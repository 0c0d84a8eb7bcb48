#include "serve/checkpoint.hpp"

#include <stdexcept>

#include "common/json.hpp"

namespace dvs::serve {
namespace {

using json::fmt17;
using obs::sketch_from_text;

/// A sketch as the body of a JSON string member.
std::string sketch_json(const obs::QuantileSketch& s) {
  return json::escape(obs::sketch_text(s));
}

void write_metrics(std::ostream& os, const core::Metrics& m) {
  os << "{\"duration\": " << fmt17(m.duration.value())
     << ", \"total_energy\": " << fmt17(m.total_energy.value())
     << ", \"component_energy\": [";
  for (std::size_t i = 0; i < m.component_energy.size(); ++i) {
    if (i != 0) os << ", ";
    os << fmt17(m.component_energy[i].value());
  }
  os << "], \"average_power\": " << fmt17(m.average_power.value())
     << ", \"frames_arrived\": " << m.frames_arrived
     << ", \"frames_admitted\": " << m.frames_admitted
     << ", \"frames_decoded\": " << m.frames_decoded
     << ", \"frames_dropped\": " << m.frames_dropped
     << ", \"mean_frame_delay\": " << fmt17(m.mean_frame_delay.value())
     << ", \"max_frame_delay\": " << fmt17(m.max_frame_delay.value())
     << ", \"mean_buffered_frames\": " << fmt17(m.mean_buffered_frames)
     << ", \"cpu_switches\": " << m.cpu_switches
     << ", \"mean_cpu_frequency\": " << fmt17(m.mean_cpu_frequency.value())
     << ", \"dpm_idle_periods\": " << m.dpm_idle_periods
     << ", \"dpm_sleeps\": " << m.dpm_sleeps
     << ", \"dpm_wakeups\": " << m.dpm_wakeups
     << ", \"dpm_total_wakeup_delay\": "
     << fmt17(m.dpm_total_wakeup_delay.value())
     << ", \"faults_injected\": " << m.faults_injected
     << ", \"watchdog_escalations\": " << m.watchdog_escalations
     << ", \"watchdog_recoveries\": " << m.watchdog_recoveries
     << ", \"time_in_degraded\": " << fmt17(m.time_in_degraded.value()) << "}";
}

core::Metrics read_metrics(const json::Value& v) {
  core::Metrics m;
  m.duration = Seconds{v.number_or("duration", 0.0)};
  m.total_energy = Joules{v.number_or("total_energy", 0.0)};
  if (const json::Value* comp = v.find("component_energy"); comp != nullptr) {
    const auto& arr = comp->as_array();
    for (std::size_t i = 0; i < arr.size() && i < m.component_energy.size();
         ++i) {
      m.component_energy[i] = Joules{arr[i]->as_number()};
    }
  }
  m.average_power = MilliWatts{v.number_or("average_power", 0.0)};
  m.frames_arrived = static_cast<std::uint64_t>(v.number_or("frames_arrived", 0));
  m.frames_admitted =
      static_cast<std::uint64_t>(v.number_or("frames_admitted", 0));
  m.frames_decoded = static_cast<std::uint64_t>(v.number_or("frames_decoded", 0));
  m.frames_dropped = static_cast<std::uint64_t>(v.number_or("frames_dropped", 0));
  m.mean_frame_delay = Seconds{v.number_or("mean_frame_delay", 0.0)};
  m.max_frame_delay = Seconds{v.number_or("max_frame_delay", 0.0)};
  m.mean_buffered_frames = v.number_or("mean_buffered_frames", 0.0);
  m.cpu_switches = static_cast<int>(v.number_or("cpu_switches", 0));
  m.mean_cpu_frequency = MegaHertz{v.number_or("mean_cpu_frequency", 0.0)};
  m.dpm_idle_periods = static_cast<int>(v.number_or("dpm_idle_periods", 0));
  m.dpm_sleeps = static_cast<int>(v.number_or("dpm_sleeps", 0));
  m.dpm_wakeups = static_cast<int>(v.number_or("dpm_wakeups", 0));
  m.dpm_total_wakeup_delay =
      Seconds{v.number_or("dpm_total_wakeup_delay", 0.0)};
  m.faults_injected =
      static_cast<std::uint64_t>(v.number_or("faults_injected", 0));
  m.watchdog_escalations =
      static_cast<int>(v.number_or("watchdog_escalations", 0));
  m.watchdog_recoveries =
      static_cast<int>(v.number_or("watchdog_recoveries", 0));
  m.time_in_degraded = Seconds{v.number_or("time_in_degraded", 0.0)};
  return m;
}

fleet::FleetGroupResult read_group(const json::Value& v) {
  fleet::FleetGroupResult g;
  g.devices = static_cast<std::size_t>(v.number_or("devices", 0));
  g.wave_devices = static_cast<std::size_t>(v.number_or("wave_devices", 0));
  g.energy_j = v.number_or("energy_j", 0.0);
  g.frames_decoded = static_cast<std::uint64_t>(v.number_or("frames_decoded", 0));
  g.frames_dropped = static_cast<std::uint64_t>(v.number_or("frames_dropped", 0));
  g.faults_injected =
      static_cast<std::uint64_t>(v.number_or("faults_injected", 0));
  g.sum_mean_delay_s = v.number_or("sum_mean_delay_s", 0.0);
  g.delay_sketch = sketch_from_text(v.string_or("delay_sketch", ""));
  g.energy_sketch = sketch_from_text(v.string_or("energy_sketch", ""));
  g.dropped_sketch = sketch_from_text(v.string_or("dropped_sketch", ""));
  return g;
}

}  // namespace

CheckpointWriter::CheckpointWriter(const std::string& path,
                                   const std::string& job_id,
                                   const std::string& kind,
                                   std::size_t flush_every)
    : out_(path, "{\"schema\": \"" + std::string(kCheckpointSchema) +
                     "\", \"job\": \"" + json::escape(job_id) +
                     "\", \"kind\": \"" + json::escape(kind) + "\"}"),
      flush_every_(flush_every == 0 ? 1 : flush_every) {}

bool CheckpointWriter::append_point(std::size_t index,
                                    const core::Metrics& metrics,
                                    const obs::QuantileSketch& delay_sketch) {
  std::ostream& os = out_.out();
  os << "{\"point\": " << index << ", \"metrics\": ";
  write_metrics(os, metrics);
  os << ", \"delay_sketch\": \"" << sketch_json(delay_sketch) << "\"}";
  return record_done();
}

bool CheckpointWriter::append_shard(std::size_t shard,
                                    const fleet::FleetShardPartial& part) {
  std::ostream& os = out_.out();
  os << "{\"shard\": " << shard << ", \"frames_total\": " << part.frames_total
     << ", \"groups\": [";
  for (std::size_t i = 0; i < part.groups.size(); ++i) {
    const fleet::FleetGroupResult& g = part.groups[i];
    if (i != 0) os << ", ";
    os << "{\"devices\": " << g.devices
       << ", \"wave_devices\": " << g.wave_devices
       << ", \"energy_j\": " << fmt17(g.energy_j)
       << ", \"frames_decoded\": " << g.frames_decoded
       << ", \"frames_dropped\": " << g.frames_dropped
       << ", \"faults_injected\": " << g.faults_injected
       << ", \"sum_mean_delay_s\": " << fmt17(g.sum_mean_delay_s)
       << ", \"delay_sketch\": \"" << sketch_json(g.delay_sketch)
       << "\", \"energy_sketch\": \"" << sketch_json(g.energy_sketch)
       << "\", \"dropped_sketch\": \"" << sketch_json(g.dropped_sketch)
       << "\"}";
  }
  os << "]}";
  return record_done();
}

bool CheckpointWriter::record_done() {
  const bool flush = ++pending_ >= flush_every_;
  if (flush) pending_ = 0;
  out_.end_record(flush);
  return flush;
}

void CheckpointWriter::flush() {
  out_.flush();
  pending_ = 0;
}

CheckpointData load_checkpoint(const std::string& path) {
  CheckpointData data;
  durable::load_jsonl(
      path, kCheckpointSchema,
      [&](const json::Value& header) {
        data.job_id = header.string_or("job", "");
        data.kind = header.string_or("kind", "");
      },
      [&](const json::Value& doc) {
        if (const json::Value* point = doc.find("point"); point != nullptr) {
          core::RestoredPoint rp;
          rp.metrics = read_metrics(doc.at("metrics"));
          rp.delay_sketch = sketch_from_text(doc.string_or("delay_sketch", ""));
          data.points[static_cast<std::size_t>(point->as_number())] =
              std::move(rp);
        } else if (const json::Value* shard = doc.find("shard");
                   shard != nullptr) {
          fleet::FleetShardPartial part;
          part.frames_total =
              static_cast<std::uint64_t>(doc.number_or("frames_total", 0));
          for (const json::ValuePtr& g : doc.at("groups").as_array()) {
            part.groups.push_back(read_group(*g));
          }
          data.shards[static_cast<std::size_t>(shard->as_number())] =
              std::move(part);
        }
        return true;
      });
  return data;
}

}  // namespace dvs::serve
