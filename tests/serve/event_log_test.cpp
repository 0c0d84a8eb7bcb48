// dvs-events-v1: the daemon's lifecycle narration must survive exactly
// what the daemon survives — append/reload round trips, SIGKILL-torn
// trailing lines (intact prefix only, the checkpoint contract), and
// daemon restarts (a new writer resumes the monotone sequence counter
// from the intact prefix, so multi-lifetime histories stay ordered).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "serve/event_log.hpp"

namespace dvs::serve {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const char* name) {
  return (fs::temp_directory_path() / name).string();
}

TEST(EventLog, LifecycleRoundTrip) {
  const std::string path = temp_path("events_rt.jsonl");
  fs::remove(path);
  {
    EventLog log(path);
    log.daemon_start(4242);
    log.job_claimed("night-sweep");
    log.checkpoint_flush("night-sweep", 3, 12);
    log.job_finished("night-sweep", "sweep", 9, 3);
    log.job_failed("bad-job", "boom: it broke", "failed/bad-job.out/flight");
    log.daemon_stop(2);
    EXPECT_EQ(log.last_seq(), 6u);
  }
  const std::vector<ServeEvent> events = load_events(path);
  ASSERT_EQ(events.size(), 6u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i + 1) << "seq must be monotone from 1";
    EXPECT_GT(events[i].ts, 0.0);
  }
  EXPECT_EQ(events[0].type, "daemon_start");
  EXPECT_EQ(events[0].pid, 4242);
  EXPECT_EQ(events[1].type, "job_claimed");
  EXPECT_EQ(events[1].job, "night-sweep");
  EXPECT_EQ(events[2].type, "checkpoint_flush");
  EXPECT_EQ(events[2].units_done, 3u);
  EXPECT_EQ(events[2].units_total, 12u);
  EXPECT_EQ(events[3].type, "job_finished");
  EXPECT_EQ(events[3].kind, "sweep");
  EXPECT_EQ(events[3].executed, 9u);
  EXPECT_EQ(events[3].restored, 3u);
  EXPECT_EQ(events[4].type, "job_failed");
  EXPECT_EQ(events[4].error, "boom: it broke");
  EXPECT_EQ(events[4].flight_dir, "failed/bad-job.out/flight");
  EXPECT_EQ(events[5].type, "daemon_stop");
  EXPECT_EQ(events[5].jobs_processed, 2u);
  fs::remove(path);
}

TEST(EventLog, RecoveredJobGetsItsOwnEventType) {
  const std::string path = temp_path("events_recovered.jsonl");
  fs::remove(path);
  {
    EventLog log(path);
    log.job_claimed("crashed-job", /*recovered=*/true);
  }
  const std::vector<ServeEvent> events = load_events(path);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, "job_recovered");
  EXPECT_EQ(events[0].job, "crashed-job");
  fs::remove(path);
}

TEST(EventLog, TornTrailingLineKeepsIntactPrefix) {
  const std::string path = temp_path("events_torn.jsonl");
  fs::remove(path);
  {
    EventLog log(path);
    log.daemon_start(1);
    log.job_claimed("j1");
  }
  {
    // Simulate a SIGKILL mid-append: a record cut off mid-object.
    std::ofstream os(path, std::ios::app);
    os << R"({"seq": 3, "ts": 1754650000.5, "event": "job_fini)";
  }
  const std::vector<ServeEvent> events = load_events(path);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].type, "job_claimed");
  fs::remove(path);
}

TEST(EventLog, SequenceResumesAcrossRestartPastTornTail) {
  const std::string path = temp_path("events_resume.jsonl");
  fs::remove(path);
  {
    EventLog log(path);
    log.daemon_start(1);
    log.job_claimed("j1");
    log.job_finished("j1", "run", 1, 0);
  }
  {
    std::ofstream os(path, std::ios::app);
    os << R"({"seq": 4, "ts": 17)";  // torn daemon_stop
  }
  {
    // The next daemon's writer truncates the torn fragment (appending
    // after it would corrupt the glued line) and resumes from seq 3.
    EventLog log(path);
    EXPECT_EQ(log.last_seq(), 3u);
    log.daemon_start(2);
    EXPECT_EQ(log.last_seq(), 4u);
  }
  const std::vector<ServeEvent> events = load_events(path);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[3].seq, 4u);
  EXPECT_EQ(events[3].type, "daemon_start");
  EXPECT_EQ(events[3].pid, 2);
  // The torn fragment must be gone from the file, not merely skipped on
  // read — a reader that breaks at the first unparsable line would
  // otherwise never see the post-restart history.
  std::ifstream in(path);
  std::string line;
  int seq4_lines = 0;
  while (std::getline(in, line)) {
    if (line.find("\"seq\": 4") != std::string::npos) ++seq4_lines;
  }
  EXPECT_EQ(seq4_lines, 1) << "only the real seq-4 record survives";
  fs::remove(path);
}

TEST(EventLog, SingleHeaderAcrossReopen) {
  const std::string path = temp_path("events_reopen.jsonl");
  fs::remove(path);
  {
    EventLog log(path);
    log.daemon_start(1);
  }
  {
    EventLog log(path);
    log.daemon_start(2);
  }
  std::ifstream in(path);
  std::string line;
  int headers = 0;
  while (std::getline(in, line)) {
    if (line.find("dvs-events-v1") != std::string::npos) ++headers;
  }
  EXPECT_EQ(headers, 1);
  fs::remove(path);
}

TEST(EventLog, ControlBytesInErrorTextAreEscaped) {
  // Exception text is arbitrary bytes: a raw \r or \x01 inside a JSONL
  // record would reach readers unescaped.  The line must stay pure JSON
  // and the text must round-trip.
  const std::string path = temp_path("events_ctrl.jsonl");
  fs::remove(path);
  const std::string error = "bad\rline\x01" "end\t\"q\"\\";
  {
    EventLog log(path);
    log.job_failed("job\x02id", error, "");
  }
  std::ifstream in(path, std::ios::binary);
  const std::string bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  for (char c : bytes) {
    EXPECT_FALSE(static_cast<unsigned char>(c) < 0x20 && c != '\n')
        << "raw control byte " << static_cast<int>(c);
  }
  const std::vector<ServeEvent> events = load_events(path);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].error, error);
  EXPECT_EQ(events[0].job, "job\x02id");
  fs::remove(path);
}

TEST(EventLog, MissingFileLoadsEmpty) {
  EXPECT_TRUE(load_events(temp_path("events_never_written.jsonl")).empty());
}

TEST(EventLog, WrongSchemaThrows) {
  const std::string path = temp_path("events_wrong_schema.jsonl");
  {
    std::ofstream os(path);
    os << R"({"schema": "dvs-checkpoint-v1"})" << "\n";
  }
  EXPECT_THROW((void)load_events(path), std::runtime_error);
  fs::remove(path);
}

}  // namespace
}  // namespace dvs::serve
