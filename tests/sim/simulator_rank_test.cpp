// Reserved ranks: actions a client keeps outside the heap interleave with
// heap events in exactly the (time, seq) order they would have had as
// events.  This is the contract core::Engine's per-frame path rests on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sim/simulator.hpp"

namespace dvs::sim {
namespace {

/// The client loop core::Engine runs: execute whichever ranks first, the
/// heap top or the one reserved action.
void run_with_action(Simulator& sim, Rank& action,
                     const std::function<void()>& fn) {
  for (;;) {
    if (sim.next_rank() < action) {
      sim.step();
      continue;
    }
    if (action.none()) return;
    const Rank due = action;
    action = Rank{};
    sim.advance_to(Seconds{due.at});
    fn();
  }
}

TEST(SimulatorRank, ReservedActionBeforeHeapEventAtSameTime) {
  Simulator sim;
  std::vector<int> order;
  Rank action = sim.reserve(seconds(1.0));
  sim.schedule_at(seconds(1.0), [&] { order.push_back(2); });
  run_with_action(sim, action, [&] { order.push_back(1); });
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.executed_count(), 1u);
}

TEST(SimulatorRank, HeapEventBeforeReservedActionAtSameTime) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(seconds(1.0), [&] { order.push_back(1); });
  Rank action = sim.reserve(seconds(1.0));
  run_with_action(sim, action, [&] { order.push_back(2); });
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimulatorRank, EarlierTimeWinsRegardlessOfSeq) {
  Simulator sim;
  std::vector<double> at;
  Rank action = sim.reserve(seconds(2.0));
  sim.schedule_at(seconds(1.0), [&] { at.push_back(sim.now().value()); });
  sim.schedule_at(seconds(3.0), [&] { at.push_back(sim.now().value()); });
  run_with_action(sim, action, [&] { at.push_back(sim.now().value()); });
  EXPECT_EQ(at, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(SimulatorRank, ActionReservedInsideACallbackRanksAfterPendingTies) {
  // An event at t=1 reserves an action at t=1 while another event is
  // already pending there: the pending event keeps its earlier seq.
  Simulator sim;
  std::vector<int> order;
  Rank action;
  sim.schedule_at(seconds(1.0), [&] {
    order.push_back(1);
    action = sim.reserve(sim.now());
  });
  sim.schedule_at(seconds(1.0), [&] { order.push_back(2); });
  run_with_action(sim, action, [&] { order.push_back(3); });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorRank, NextRankSkipsCancelledEvents) {
  Simulator sim;
  EXPECT_TRUE(sim.next_rank().none());
  const EventId dead = sim.schedule_at(seconds(1.0), [] {});
  sim.schedule_at(seconds(2.0), [] {});
  sim.cancel(dead);
  EXPECT_DOUBLE_EQ(sim.next_rank().at, 2.0);
  EXPECT_FALSE(sim.next_rank().none());
}

TEST(SimulatorRank, NextRankIsNoneWhenOnlyTombstonesRemain) {
  // The inline empty-heap test must not hide a heap of tombstones:
  // next_rank() still purges them and reports no pending event.
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(sim.schedule_at(seconds(1.0 + i), [] {}));
  }
  for (const EventId id : ids) ASSERT_TRUE(sim.cancel(id));
  EXPECT_EQ(sim.heap_size(), 5u);
  EXPECT_TRUE(sim.next_rank().none());
  EXPECT_EQ(sim.heap_size(), 0u);
  EXPECT_EQ(sim.stats().tombstones_purged, 5u);
  EXPECT_FALSE(sim.step());
}

TEST(SimulatorRank, KeyOrdersByTimeThenSeqWithNoneLast) {
  // Rank::key() is the one definition of the order (operator< compares
  // keys).  Each rank of this ladder must rank strictly before every later
  // one: times from +0.0 through denormals to +inf, equal times broken by
  // seq, and none() after the largest real rank.
  constexpr std::uint64_t kMaxSeq = std::numeric_limits<std::uint64_t>::max();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<Rank> ladder{
      Rank{0.0, 0},
      Rank{0.0, kMaxSeq - 1},
      Rank{std::numeric_limits<double>::denorm_min(), 0},
      Rank{1.0, 1},
      Rank{1.0, std::uint64_t{1} << 63},
      Rank{1.0 + std::numeric_limits<double>::epsilon(), 0},
      Rank{std::numeric_limits<double>::max(), kMaxSeq - 1},
      Rank{inf, 0},
      Rank{inf, kMaxSeq - 1},
      Rank{},
  };
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    for (std::size_t j = 0; j < ladder.size(); ++j) {
      EXPECT_EQ(ladder[i] < ladder[j], i < j) << "i=" << i << " j=" << j;
    }
  }
}

TEST(SimulatorRank, NegativeZeroIsCanonicalizedToPositiveZero) {
  // -0.0 passes the "not in the past" check at t=0, but its sign bit
  // would sort its key after +inf.  The kernel stores +0.0 instead.
  Simulator sim;
  const Rank reserved = sim.reserve(seconds(-0.0));
  EXPECT_FALSE(std::signbit(reserved.at));
  EXPECT_TRUE(reserved.key() < (Rank{0.5, 0}.key()));
  sim.schedule_at(seconds(-0.0), [] {});
  const Rank scheduled = sim.next_rank();
  EXPECT_FALSE(std::signbit(scheduled.at));
  EXPECT_TRUE(reserved.key() < scheduled.key());
  const Rank inf{std::numeric_limits<double>::infinity(), 0};
  EXPECT_TRUE(scheduled.key() < inf.key());
}

TEST(SimulatorRank, ReserveAndAdvanceRejectThePast) {
  Simulator sim;
  sim.advance_to(seconds(2.0));
  EXPECT_DOUBLE_EQ(sim.now().value(), 2.0);
  EXPECT_THROW(sim.reserve(seconds(1.0)), std::logic_error);
  EXPECT_THROW(sim.advance_to(seconds(1.0)), std::logic_error);
  EXPECT_THROW(sim.schedule_at(seconds(1.0), [] {}), std::logic_error);
}

TEST(SimulatorRank, NoneRanksAfterEveryRealRank) {
  Simulator sim;
  const Rank r = sim.reserve(seconds(1e300));
  EXPECT_TRUE(r < Rank{});
  EXPECT_FALSE(Rank{} < r);
  EXPECT_FALSE(Rank{} < Rank{});
}

}  // namespace
}  // namespace dvs::sim
