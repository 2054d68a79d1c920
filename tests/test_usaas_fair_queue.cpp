// FairQueue tests: the EDF cross-tenant wait queue as a deterministic
// machine under core::VirtualClock. The contract under test:
//
//   * an empty queue tries inline and never parks a winner;
//   * a single parked waiter is its own dispatcher and naps EXACTLY the
//     seconds its try_acquire asked for — so admission waits stay
//     bit-identical with PR 7's private-sleep loop;
//   * deadlines are enforced at the exact instant: a waiter that cannot
//     pay by its deadline comes back kDeadline with the clock parked on
//     the deadline, not beyond it;
//   * under contention the earliest ABSOLUTE deadline is offered the
//     resource first, regardless of which thread parked first.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/scheduler_clock.h"
#include "usaas/fair_queue.h"

namespace usaas::service {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(FairQueue, EmptyQueueAcquiresInlineWithoutParking) {
  core::VirtualClock clock;
  FairQueue queue{clock};
  int calls = 0;
  const FairQueue::TryAcquire take = [&](double) {
    ++calls;
    return 0.0;
  };
  EXPECT_EQ(queue.wait(10.0, take), FairQueue::Outcome::kAcquired);
  EXPECT_EQ(calls, 1);
  EXPECT_DOUBLE_EQ(clock.now(), 0.0);  // no nap was needed
  const FairQueue::Stats stats = queue.stats();
  EXPECT_EQ(stats.acquired_immediate, 1u);
  EXPECT_EQ(stats.parked, 0u);
  EXPECT_EQ(stats.depth, 0u);
}

TEST(FairQueue, UnpayableIsReportedWithoutWaiting) {
  core::VirtualClock clock;
  FairQueue queue{clock};
  const FairQueue::TryAcquire never = [](double) { return kInf; };
  EXPECT_EQ(queue.wait(10.0, never), FairQueue::Outcome::kUnpayable);
  EXPECT_DOUBLE_EQ(clock.now(), 0.0);
  EXPECT_EQ(queue.stats().unpayable, 1u);
}

TEST(FairQueue, SingleWaiterNapsExactlyTheNeededSeconds) {
  core::VirtualClock clock;
  FairQueue queue{clock};
  // The resource becomes payable at t = 0.25 exactly (a 4 tokens/s
  // bucket refilling one token from empty).
  const double ready_at = 0.25;
  const FairQueue::TryAcquire take = [&](double now) {
    return now >= ready_at ? 0.0 : ready_at - now;
  };
  EXPECT_EQ(queue.wait(10.0, take), FairQueue::Outcome::kAcquired);
  // The waiter was its own dispatcher: one nap of exactly 0.25 virtual
  // seconds, not 0.25 + epsilon.
  EXPECT_DOUBLE_EQ(clock.now(), 0.25);
  const FairQueue::Stats stats = queue.stats();
  EXPECT_EQ(stats.parked, 1u);
  EXPECT_EQ(stats.acquired_queued, 1u);
  EXPECT_EQ(stats.depth, 0u);
  EXPECT_EQ(stats.max_depth, 1u);
}

TEST(FairQueue, DeadlinePassesAtTheExactInstant) {
  core::VirtualClock clock;
  FairQueue queue{clock};
  // Needs a full second of accrual but only has 0.3 s of patience: the
  // dispatcher must nap min(need, slack) = 0.3 and expire on the dot.
  const FairQueue::TryAcquire starved = [](double now) {
    return now >= 1.0 ? 0.0 : 1.0 - now;
  };
  EXPECT_EQ(queue.wait(0.3, starved), FairQueue::Outcome::kDeadline);
  EXPECT_DOUBLE_EQ(clock.now(), 0.3);
  EXPECT_EQ(queue.stats().expired, 1u);
}

TEST(FairQueue, TokensLandingExactlyAtTheDeadlineStillAcquire) {
  core::VirtualClock clock;
  FairQueue queue{clock};
  // Payable at t = 0.5 and the deadline IS 0.5: PR 7's loop admitted
  // this boundary case (wait <= deadline), so the queue must too.
  const FairQueue::TryAcquire take = [](double now) {
    return now >= 0.5 ? 0.0 : 0.5 - now;
  };
  EXPECT_EQ(queue.wait(0.5, take), FairQueue::Outcome::kAcquired);
  EXPECT_DOUBLE_EQ(clock.now(), 0.5);
}

// The two threaded tests below gate the resource on an atomic flag and
// keep the waiters parked until BOTH threads are in the queue, so the
// asserted ordering is independent of thread arrival order. While the
// gate is closed every closure asks for the queue's minimum nap (1 µs of
// virtual time per dispatcher sweep), and the deadlines are huge (1e6 s)
// — the virtual clock cannot plausibly reach them before the real-time
// main thread opens the gate, so nothing expires prematurely.

TEST(FairQueue, EarliestDeadlineIsOfferedTheResourceFirst) {
  core::VirtualClock clock;
  FairQueue queue{clock};

  std::atomic<bool> released{false};
  std::vector<std::string> order;  // guarded by FairQueue::mu_: the
                                   // closures run with the queue locked.
  const auto taker = [&](const std::string& who) {
    return FairQueue::TryAcquire{[&, who](double) -> double {
      if (!released.load(std::memory_order_acquire)) return 1e-6;
      order.push_back(who);
      return 0.0;
    }};
  };
  const FairQueue::TryAcquire take_late = taker("late");
  const FairQueue::TryAcquire take_early = taker("early");

  FairQueue::Outcome late_outcome{};
  FairQueue::Outcome early_outcome{};
  std::thread late{[&] { late_outcome = queue.wait(2e6, take_late); }};
  std::thread early{[&] { early_outcome = queue.wait(1e6, take_early); }};
  while (queue.depth() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  // The gate opens inside a closure the queue runs under its lock, and
  // the opener's deadline is the earliest, so a dispatcher sweep offers
  // it first: every sweep sees the gate either shut for both takers or
  // open for both. (Flipped from outside the lock, the flip could land
  // between "early" being asked and "late" being asked.)
  const FairQueue::TryAcquire open_gate = [&](double) -> double {
    released.store(true, std::memory_order_release);
    return 0.0;
  };
  EXPECT_EQ(queue.wait(5e5, open_gate), FairQueue::Outcome::kAcquired);
  late.join();
  early.join();

  EXPECT_EQ(late_outcome, FairQueue::Outcome::kAcquired);
  EXPECT_EQ(early_outcome, FairQueue::Outcome::kAcquired);
  // Whichever thread parked first, deadline 1e6 outranks deadline 2e6.
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "early");
  EXPECT_EQ(order[1], "late");
  const FairQueue::Stats stats = queue.stats();
  EXPECT_EQ(stats.acquired_queued, 3u);  // the two takers and the opener
  EXPECT_EQ(stats.max_depth, 3u);
  EXPECT_EQ(stats.depth, 0u);
}

TEST(FairQueue, ExpiringWaiterDoesNotStarveTheQueue) {
  core::VirtualClock clock;
  FairQueue queue{clock};
  // Once the gate opens, the EARLIER-deadline waiter can never pay
  // before its deadline (needs 1e7 s of accrual) while the later one can
  // pay instantly. The dead weight at the head of the EDF order must
  // expire on its own schedule without blocking the payable waiter
  // behind it.
  std::atomic<bool> released{false};
  const FairQueue::TryAcquire hopeless = [&](double) -> double {
    return released.load(std::memory_order_acquire) ? 1e7 : 1e-6;
  };
  const FairQueue::TryAcquire payable = [&](double) -> double {
    return released.load(std::memory_order_acquire) ? 0.0 : 1e-6;
  };
  FairQueue::Outcome hopeless_outcome{};
  FairQueue::Outcome payable_outcome{};
  std::thread a{[&] { hopeless_outcome = queue.wait(1e6, hopeless); }};
  std::thread b{[&] { payable_outcome = queue.wait(2e6, payable); }};
  while (queue.depth() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  released.store(true, std::memory_order_release);
  a.join();
  b.join();
  EXPECT_EQ(hopeless_outcome, FairQueue::Outcome::kDeadline);
  EXPECT_EQ(payable_outcome, FairQueue::Outcome::kAcquired);
  const FairQueue::Stats stats = queue.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.acquired_queued, 1u);
  EXPECT_EQ(stats.depth, 0u);
}

TEST(FairQueue, NewArrivalInterruptsADispatcherNap) {
  // Real clock on purpose: the regression is that a SteadyClock
  // dispatcher napping min(need, slack) could not be interrupted, so an
  // immediately-payable latecomer sat out the whole stale nap. Waiter A
  // would nap ~60 s at a time; every later arrival must cut that short.
  core::SteadyClock clock;
  FairQueue queue{clock};
  std::atomic<bool> released{false};
  const FairQueue::TryAcquire hopeless = [&](double) -> double {
    return released.load(std::memory_order_acquire) ? kInf : 60.0;
  };
  const FairQueue::TryAcquire instant = [](double) { return 0.0; };
  const double t0 = clock.now();
  FairQueue::Outcome a_outcome{};
  std::thread a{[&] { a_outcome = queue.wait(t0 + 240.0, hopeless); }};
  while (queue.depth() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  // Let A become the dispatcher and start its long nap.
  std::this_thread::sleep_for(std::chrono::milliseconds{20});
  // B arrives mid-nap and can pay instantly: it must be served by the
  // interrupt-triggered re-sweep, not after A's nap expires.
  const auto b_start = std::chrono::steady_clock::now();
  EXPECT_EQ(queue.wait(t0 + 480.0, instant), FairQueue::Outcome::kAcquired);
  const double b_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    b_start)
          .count();
  EXPECT_LT(b_seconds, 5.0);  // a lost interrupt means ~60 s here
  // Release A (now unpayable) and interrupt the fresh nap with a third
  // arrival so A observes the verdict promptly instead of 60 s later.
  released.store(true, std::memory_order_release);
  EXPECT_EQ(queue.wait(t0 + 480.0, instant), FairQueue::Outcome::kAcquired);
  a.join();
  EXPECT_EQ(a_outcome, FairQueue::Outcome::kUnpayable);
  EXPECT_EQ(queue.stats().depth, 0u);
}

}  // namespace
}  // namespace usaas::service
