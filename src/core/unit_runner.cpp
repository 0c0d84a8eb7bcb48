#include "core/unit_runner.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <mutex>
#include <thread>

#include "common/check.hpp"
#include "common/json.hpp"

namespace dvs::core {

int resolve_jobs(int jobs) {
  if (jobs > 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void parallel_for(std::size_t n, int jobs,
                  const std::function<void(std::size_t)>& fn) {
  const std::size_t workers =
      std::min(static_cast<std::size_t>(resolve_jobs(jobs)), n);
  if (n == 0) return;
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Each worker owns a contiguous index range and pops from its front; an
  // idle worker steals from the *back* of the victim with the most work
  // left.  Units are whole simulations, so stealing one index at a time is
  // granular enough.
  struct Range {
    std::mutex m;
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  std::vector<Range> ranges(workers);
  const std::size_t chunk = n / workers;
  const std::size_t extra = n % workers;
  std::size_t at = 0;
  for (std::size_t w = 0; w < workers; ++w) {
    ranges[w].begin = at;
    at += chunk + (w < extra ? 1 : 0);
    ranges[w].end = at;
  }

  std::atomic<bool> stop{false};
  std::exception_ptr first_error;
  std::mutex error_m;

  auto worker = [&](std::size_t self) {
    for (;;) {
      if (stop.load(std::memory_order_relaxed)) return;
      std::size_t i = n;  // sentinel: nothing claimed yet
      {
        std::lock_guard<std::mutex> lk(ranges[self].m);
        if (ranges[self].begin < ranges[self].end) i = ranges[self].begin++;
      }
      if (i == n) {
        std::size_t victim = workers;
        std::size_t most = 0;
        for (std::size_t v = 0; v < workers; ++v) {
          if (v == self) continue;
          std::lock_guard<std::mutex> lk(ranges[v].m);
          const std::size_t left = ranges[v].end - ranges[v].begin;
          if (left > most) {
            most = left;
            victim = v;
          }
        }
        if (victim == workers) return;  // everything drained
        {
          std::lock_guard<std::mutex> lk(ranges[victim].m);
          if (ranges[victim].begin < ranges[victim].end) {
            i = --ranges[victim].end;
          }
        }
        if (i == n) continue;  // lost the race; rescan
      }
      try {
        fn(i);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lk(error_m);
          if (!first_error) first_error = std::current_exception();
        }
        stop.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) threads.emplace_back(worker, w);
  worker(0);
  for (std::thread& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

void detail::run_units(std::size_t n, const std::vector<char>& restored,
                       std::size_t restored_weight,
                       const UnitRunOptions& opts,
                       std::chrono::steady_clock::time_point t0,
                       const UnitLabels& labels,
                       const std::function<void(std::size_t)>& execute,
                       const std::function<void(std::size_t)>& observe,
                       const std::function<std::size_t(std::size_t)>& tally,
                       const std::function<UnitReport(std::size_t)>& report) {
  obs::TelemetrySnapshotter* telemetry =
      opts.telemetry != nullptr && opts.telemetry->active() ? opts.telemetry
                                                            : nullptr;
  std::ofstream heartbeat_file;
  std::ostream* heartbeat = nullptr;
  std::string head;  // `"job":"<id>",` + the label member
  if (!opts.heartbeat_path.empty()) {
    if (opts.heartbeat_path == "-") {
      heartbeat = &std::cerr;
    } else {
      heartbeat_file.open(opts.heartbeat_path);
      DVS_CHECK_MSG(static_cast<bool>(heartbeat_file),
                    "cannot open heartbeat path " + opts.heartbeat_path);
      heartbeat = &heartbeat_file;
    }
    // Optional trace context: serve jobs stamp their id on every record.
    if (!opts.heartbeat_job.empty()) {
      head = "\"job\":\"" + json::escape(opts.heartbeat_job) + "\",";
    }
    head += std::string("\"") + labels.key + "\":\"" +
            json::escape(labels.name) + "\",";
  }
  const bool reporting = heartbeat != nullptr || telemetry != nullptr;

  std::mutex progress_m;
  std::size_t done = restored_weight;  // restored units count as done
  parallel_for(n, opts.jobs, [&](std::size_t i) {
    if (restored[i] != 0) return;
    execute(i);
    if (!observe && !reporting) return;
    std::lock_guard<std::mutex> lk(progress_m);
    if (observe) observe(i);
    done += tally(i);
    if (!reporting) return;
    const UnitReport r = report(i);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (heartbeat != nullptr) {
      // ETA from the completion rate so far; with restored units counted
      // as done, a resumed run's ETA reflects the remaining work.
      const double left = static_cast<double>(labels.total - done);
      const double eta =
          done == 0 ? 0.0 : elapsed / static_cast<double>(done) * left;
      char buf[128];
      std::snprintf(buf, sizeof buf,
                    "\"done\":%zu,\"total\":%zu,\"elapsed_s\":%.3f,"
                    "\"eta_s\":%.3f,",
                    done, labels.total, elapsed, eta);
      // One flushed record per unit: a tailing monitor sees each record
      // as soon as the unit lands.
      *heartbeat << '{' << head << buf << r.heartbeat << "}\n" << std::flush;
    }
    if (telemetry != nullptr) {
      static const obs::MetricsRegistry kEmpty;
      obs::TelemetrySnapshotter::Live live = {
          {"done", static_cast<double>(done)},
          {"total", static_cast<double>(labels.total)}};
      live.insert(live.end(), r.live.begin(), r.live.end());
      telemetry->snapshot(elapsed, labels.source,
                          r.registry != nullptr ? *r.registry : kEmpty, live);
    }
  });
}

}  // namespace dvs::core
