// The unit runner under SweepRunner and FleetRunner: restored partials
// come back verbatim and are never executed, slots return in index order,
// and every executed unit is observed once — on the worker that ran it,
// under the one progress lock — before its heartbeat line, with restored
// units already counted as done.
#include "core/unit_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"

namespace dvs::core {
namespace {

/// Ten units; unit i computes 10 * i and weighs i + 1.
UnitKind<int> ten_units() {
  UnitKind<int> kind;
  kind.key = "run";
  kind.name = "ten";
  kind.source = "unit-test";
  kind.total = 55;  // 1 + 2 + ... + 10
  kind.execute = [](std::size_t i, int& part) {
    part = 10 * static_cast<int>(i);
  };
  kind.tally = [](const int& part) {
    return part < 0 ? static_cast<std::size_t>(-part)
                    : static_cast<std::size_t>(part / 10 + 1);
  };
  kind.report = [](std::size_t i, const int& part) {
    return UnitReport{"\"unit\":" + std::to_string(i),
                      {{"value", static_cast<double>(part)}},
                      nullptr};
  };
  return kind;
}

TEST(UnitRunner, RestoredPartialsAreCopiedAndNeverExecuted) {
  // Restored slots carry their weight as a negative marker value.
  const std::map<std::size_t, int> restored = {{2, -3}, {7, -8}};
  for (int jobs : {1, 3}) {
    UnitKind<int> kind = ten_units();
    std::vector<std::atomic<int>> runs(10);
    const auto execute = kind.execute;
    kind.execute = [&](std::size_t i, int& part) {
      runs[i].fetch_add(1);
      execute(i, part);
    };
    UnitRunOptions opts;
    opts.jobs = jobs;
    const std::vector<int> parts = run_units(
        10, &restored, opts, std::chrono::steady_clock::now(), kind);
    ASSERT_EQ(parts.size(), 10u);
    for (std::size_t i = 0; i < 10; ++i) {
      const bool was_restored = restored.count(i) != 0;
      EXPECT_EQ(parts[i], was_restored ? restored.at(i)
                                       : 10 * static_cast<int>(i))
          << "jobs=" << jobs << " unit " << i;
      EXPECT_EQ(runs[i].load(), was_restored ? 0 : 1) << "unit " << i;
    }
  }
}

TEST(UnitRunner, ObserverRunsOnTheExecutingWorkerUnderOneLock) {
  const std::map<std::size_t, int> restored = {{4, -5}};
  for (int jobs : {1, 3}) {
    UnitKind<int> kind = ten_units();
    std::vector<std::thread::id> ran_on(10);
    const auto execute = kind.execute;
    kind.execute = [&](std::size_t i, int& part) {
      ran_on[i] = std::this_thread::get_id();
      execute(i, part);
    };
    int inside = 0;  // unsynchronized on purpose: the lock must serialize
    int max_inside = 0;
    std::vector<std::size_t> observed;
    kind.observe = [&](std::size_t i, const int& part) {
      max_inside = std::max(max_inside, ++inside);
      EXPECT_EQ(std::this_thread::get_id(), ran_on[i]) << "unit " << i;
      EXPECT_EQ(part, 10 * static_cast<int>(i));
      observed.push_back(i);
      std::this_thread::yield();
      --inside;
    };
    UnitRunOptions opts;
    opts.jobs = jobs;
    (void)run_units(10, &restored, opts, std::chrono::steady_clock::now(),
                    kind);
    EXPECT_EQ(max_inside, 1) << "jobs=" << jobs;
    EXPECT_EQ(observed.size(), 9u) << "jobs=" << jobs;
    for (std::size_t i : observed) EXPECT_NE(i, 4u) << "restored observed";
  }
}

TEST(UnitRunner, HeartbeatCountsRestoredWeightAsDone) {
  const std::string path = ::testing::TempDir() + "unit_runner_hb.jsonl";
  for (int jobs : {1, 3}) {
    std::remove(path.c_str());
    std::ostringstream sink;
    obs::TelemetrySnapshotter tel{&sink};
    UnitRunOptions opts;
    opts.jobs = jobs;
    opts.heartbeat_path = path;
    opts.heartbeat_job = "id\"1";
    opts.telemetry = &tel;
    const std::map<std::size_t, int> restored = {{0, -1}, {9, -10}};
    (void)run_units(10, &restored, opts, std::chrono::steady_clock::now(),
                    ten_units());

    std::ifstream in(path);
    std::string line;
    std::vector<json::ValuePtr> beats;
    while (std::getline(in, line)) beats.push_back(json::parse(line));
    ASSERT_EQ(beats.size(), 8u) << "jobs=" << jobs;
    const json::Value& first = *beats.front();
    EXPECT_EQ(first.at("job").as_string(), "id\"1");
    EXPECT_EQ(first.at("run").as_string(), "ten");
    const double first_unit = first.at("unit").as_number();
    EXPECT_DOUBLE_EQ(first.at("done").as_number(), 11.0 + first_unit + 1.0);
    double prev = 0.0;
    for (const json::ValuePtr& b : beats) {
      EXPECT_GT(b->at("done").as_number(), prev);
      prev = b->at("done").as_number();
      EXPECT_DOUBLE_EQ(b->at("total").as_number(), 55.0);
      EXPECT_GE(b->at("eta_s").as_number(), 0.0);
    }
    EXPECT_DOUBLE_EQ(prev, 55.0);

    EXPECT_EQ(tel.snapshots_written(), 8u);
    EXPECT_NE(sink.str().find("\"source\": \"unit-test\""), std::string::npos);
    EXPECT_NE(sink.str().find("\"value\""), std::string::npos);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dvs::core
