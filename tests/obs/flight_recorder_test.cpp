// FlightRecorder: ring semantics, dump/parse round trip, and the
// first-trigger auto-dump contract.
#include "obs/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

namespace dvs::obs {
namespace {

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlightRecorder(1).capacity(), 1u);
  EXPECT_EQ(FlightRecorder(2).capacity(), 2u);
  EXPECT_EQ(FlightRecorder(3).capacity(), 4u);
  EXPECT_EQ(FlightRecorder(4096).capacity(), 4096u);
  EXPECT_EQ(FlightRecorder(5000).capacity(), 8192u);
}

TEST(FlightRecorder, RingKeepsTheNewestRecordsOldestFirst) {
  FlightRecorder fr(4);
  for (int i = 0; i < 10; ++i) {
    fr.record(static_cast<double>(i), FlightEventType::DecodeDone, 0,
              static_cast<float>(i), 0.0F);
  }
  EXPECT_EQ(fr.records_stored(), 10u);
  const auto snap = fr.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  // Window = events 6..9, oldest first.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(snap[i].ts, static_cast<double>(6 + i));
  }
}

TEST(FlightRecorder, PartialFillSnapshotsOnlyWhatWasStored) {
  FlightRecorder fr(8);
  fr.record(1.0, FlightEventType::FreqCommit, 3, 88.5F, 0.0F);
  fr.record(2.0, FlightEventType::DpmSleep, 2, 0.0F, 0.0F);
  const auto snap = fr.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].type, static_cast<std::uint16_t>(FlightEventType::FreqCommit));
  EXPECT_EQ(snap[1].code, 2u);
}

TEST(FlightRecorder, DumpParsesBackIdentically) {
  FlightRecorder fr(16);
  fr.record(0.125, FlightEventType::FreqCommit, 7, 147.5F, 0.00015F);
  fr.record(1.5, FlightEventType::WatchdogEscalate, 0, 0.42F, 12.0F);
  fr.record(2.75, FlightEventType::FaultInjected, 2, 5.0F, 0.0F);

  std::ostringstream os;
  fr.dump(os, "unit-test");
  std::istringstream is(os.str());
  const FlightDump dump = parse_flight_dump(is);
  EXPECT_EQ(dump.reason, "unit-test");
  EXPECT_EQ(dump.recorded, 3u);
  EXPECT_EQ(dump.capacity, 16u);
  ASSERT_EQ(dump.records.size(), 3u);
  EXPECT_DOUBLE_EQ(dump.records[0].ts, 0.125);
  EXPECT_EQ(dump.records[0].type,
            static_cast<std::uint16_t>(FlightEventType::FreqCommit));
  EXPECT_EQ(dump.records[0].code, 7u);
  EXPECT_FLOAT_EQ(dump.records[0].a, 147.5F);
  EXPECT_FLOAT_EQ(dump.records[0].b, 0.00015F);
  EXPECT_EQ(dump.records[2].code, 2u);
}

TEST(FlightRecorder, ParseRejectsForeignAndTruncatedInput) {
  {
    std::istringstream is("not a dump\n");
    EXPECT_THROW(parse_flight_dump(is), std::runtime_error);
  }
  {
    std::istringstream is("# dvs-flight-recorder-v1\n# reason: x\n1.0\tbroken\n");
    EXPECT_THROW(parse_flight_dump(is), std::runtime_error);
  }
}

// Parses `text`; it must throw a runtime_error whose message names `where`.
void expect_parse_error(const std::string& text, const std::string& where) {
  std::istringstream is(text);
  try {
    (void)parse_flight_dump(is);
    ADD_FAILURE() << "accepted: " << text;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
        << e.what();
  }
}

TEST(FlightRecorder, ParseRejectsSignsJunkAndOutOfRangeNumbers) {
  const std::string head = "# dvs-flight-recorder-v1\n# reason: x\n";
  // A sign must not wrap to a huge count, and the error names the header.
  expect_parse_error(head + "# capacity: -5\n", "# capacity");
  expect_parse_error(head + "# recorded: abc\n", "# recorded");
  expect_parse_error(head + "# recorded: 12 records\n", "# recorded");
  expect_parse_error(head + "# capacity: +8\n", "# capacity");
  // A code wider than the record's 16 bits must not wrap (70000 -> 4464).
  expect_parse_error(head + "0.5\tfreq_commit\t70000\t1\t0\n",
                     "code at line 3");
  expect_parse_error(head + "0.5\tfreq_commit\t-1\t1\t0\n",
                     "code at line 3");

  std::istringstream widest(head + "# recorded: 18446744073709551615\n" +
                            "0.5\tfreq_commit\t65535\t1\t0\n");
  const FlightDump dump = parse_flight_dump(widest);
  EXPECT_EQ(dump.recorded, 18446744073709551615ULL);
  ASSERT_EQ(dump.records.size(), 1u);
  EXPECT_EQ(dump.records[0].code, 65535u);
}

TEST(FlightRecorder, ParseRejectsJunkInTheRealColumns) {
  const std::string head = "# dvs-flight-recorder-v1\n# reason: x\n";
  // Junk after ts and after a must not be dropped silently.
  expect_parse_error(head + "0.5junk\tfreq_commit\t3\t2.5xyz\tnan\n",
                     "ts at line 3");
  expect_parse_error(head + "0.5\tfreq_commit\t3\t2.5xyz\t0\n",
                     "a at line 3");
  expect_parse_error(head + "0.5\tfreq_commit\t3\t2.5\t0 \n", "b at line 3");
  expect_parse_error(head + "0.5\tfreq_commit\t3\t\t0\n", "a at line 3");
  expect_parse_error(head + "+0.5\tfreq_commit\t3\t1\t0\n", "ts at line 3");
  // Beyond float range: the dump never writes it, so it is not a payload.
  expect_parse_error(head + "0.5\tfreq_commit\t3\t1e39\t0\n", "a at line 3");
  // The error names the line of the bad record, not the first record.
  expect_parse_error(head + "0.5\tfreq_commit\t3\t1\t0\n" +
                         "0.75\tfreq_commit\t3\t1\tx\n",
                     "b at line 4");
}

TEST(FlightRecorder, ParseRejectsNonFiniteTimestamps) {
  const std::string head = "# dvs-flight-recorder-v1\n# reason: x\n";
  for (const char* ts : {"nan", "inf", "-inf"}) {
    expect_parse_error(head + ts + "\tdecode_done\t0\t1\t0\n",
                       "ts at line 3");
  }
}

TEST(FlightRecorder, NonFinitePayloadsParseBack) {
  // A double payload beyond float range narrows to inf; the dump writes it
  // as `inf` and the parser must take it back.
  FlightRecorder fr(4);
  fr.record(0.5, FlightEventType::DpmIdleEnter, 0,
            std::numeric_limits<float>::infinity(),
            std::numeric_limits<float>::quiet_NaN());
  fr.record(0.75, FlightEventType::FaultInjected, 1,
            -std::numeric_limits<float>::infinity(), -2.5F);
  std::ostringstream os;
  fr.dump(os, "non-finite");
  std::istringstream is(os.str());
  const FlightDump dump = parse_flight_dump(is);
  ASSERT_EQ(dump.records.size(), 2u);
  EXPECT_TRUE(std::isinf(dump.records[0].a) && dump.records[0].a > 0.0F);
  EXPECT_TRUE(std::isnan(dump.records[0].b));
  EXPECT_TRUE(std::isinf(dump.records[1].a) && dump.records[1].a < 0.0F);
  EXPECT_FLOAT_EQ(dump.records[1].b, -2.5F);
  EXPECT_DOUBLE_EQ(dump.records[1].ts, 0.75);
}

TEST(FlightRecorder, EventTypeNamesRoundTrip) {
  for (std::uint16_t t = 0;
       t <= static_cast<std::uint16_t>(FlightEventType::Trigger); ++t) {
    const auto type = static_cast<FlightEventType>(t);
    FlightEventType out{};
    ASSERT_TRUE(flight_type_from_string(to_string(type), out));
    EXPECT_EQ(out, type);
  }
  FlightEventType out{};
  EXPECT_FALSE(flight_type_from_string("bogus", out));
}

TEST(FlightRecorder, FirstTriggerAutoDumpsOnceAndKeepsItsReason) {
  const std::string path = ::testing::TempDir() + "flight_auto_dump.txt";
  std::remove(path.c_str());
  FlightRecorder fr(8);
  fr.set_auto_dump(path);
  fr.record(1.0, FlightEventType::DecodeDone, 0, 0.0F, 0.0F);
  fr.trigger(2.0, "watchdog-escalate");
  fr.record(3.0, FlightEventType::DecodeDone, 0, 0.0F, 0.0F);
  fr.trigger(4.0, "fault-injected");  // later anomalies must not clobber

  EXPECT_EQ(fr.triggers(), 2u);
  EXPECT_EQ(fr.first_trigger_reason(), "watchdog-escalate");
  EXPECT_TRUE(fr.dumped());

  std::ifstream in(path);
  ASSERT_TRUE(in);
  const FlightDump dump = parse_flight_dump(in);
  EXPECT_EQ(dump.reason, "watchdog-escalate");
  // The dump captured the window leading into the FIRST anomaly: the decode
  // record plus the trigger marker, nothing after.
  ASSERT_EQ(dump.records.size(), 2u);
  EXPECT_EQ(dump.records[1].type,
            static_cast<std::uint16_t>(FlightEventType::Trigger));
  std::remove(path.c_str());
}

TEST(FlightRecorder, NoDumpWithoutArmedPath) {
  FlightRecorder fr(8);
  fr.trigger(1.0, "anomaly");
  EXPECT_FALSE(fr.dumped());
  EXPECT_EQ(fr.triggers(), 1u);
}

TEST(FlightRecorder, DumpToFileFailsGracefully) {
  FlightRecorder fr(8);
  EXPECT_FALSE(fr.dump_to_file("/nonexistent-dir/x.txt", "r"));
}

}  // namespace
}  // namespace dvs::obs
