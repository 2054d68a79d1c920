// Deterministic fault injection for the streaming ingest path.
//
// Real user-signal feeds fail in undramatic, constant ways: a flush to the
// store times out, a backend has a slow minute, a producer ships a garbage
// record. The streaming front-end must degrade gracefully through all of
// them, and the only way to *test* that is to make the faults themselves
// reproducible. FaultInjector is a seeded decision stream: given the same
// seed and the same sequence of questions ("does this flush fail?", "is
// this record corrupt?"), it returns the same answers on every run — so a
// fault-injection test failure replays exactly, including under TSan/ASan.
//
// The injector is configured programmatically: a test builds a Config (the
// flush/corrupt knobs for StreamIngestor, the socket knobs for HttpListener
// and the test's own client fleet) and hands the injector to the component
// under test.
//
// The injector only *decides*; it never touches domain records or sockets
// (core does not know what a call, a post or a connection is). The
// streaming layer applies the corruption, and the listener / test client
// apply the socket misbehaviour, that it asks for.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>

#include "core/rng.h"

namespace usaas::core {

class FaultInjector {
 public:
  struct Config {
    std::uint64_t seed{1};
    /// Deterministically fail this many flush attempts before consulting
    /// the probabilistic knob — the workhorse for retry/backoff tests.
    std::size_t fail_first_flushes{0};
    /// After the first `fail_first_flushes`, fail each flush attempt with
    /// this probability.
    double flush_failure_p{0.0};
    /// Corrupt each record offered to corrupt_this_record() with this
    /// probability.
    double corrupt_record_p{0.0};
    /// Delay each flush with this probability, by `slow_flush_delay`.
    double slow_flush_p{0.0};
    std::chrono::milliseconds slow_flush_delay{0};
    // ---- Socket-level faults ----
    /// Drop a just-accepted connection with this probability (the listener
    /// treats it as a transient accept() failure and keeps serving).
    double accept_failure_p{0.0};
    /// The peer trickles its request bytes (slow-loris): stall this often,
    /// by `slow_read_delay` per chunk, so the server's read timeout — not
    /// a wedged worker — must end the connection.
    double slow_read_p{0.0};
    std::chrono::milliseconds slow_read_delay{0};
    /// The peer sends only a prefix of its request and then goes silent.
    double partial_request_p{0.0};
    /// The peer closes before reading the response; the server's write
    /// lands on a vanished socket (EPIPE/ECONNRESET, never a crash).
    double disconnect_p{0.0};
  };

  explicit FaultInjector(Config config);

  /// One call per flush attempt, in attempt order. True = the attempt
  /// must be treated as failed without touching the store.
  [[nodiscard]] bool fail_this_flush();

  /// One call per flush attempt: the delay to impose before the flush
  /// body (zero most of the time).
  [[nodiscard]] std::chrono::milliseconds flush_delay();

  /// One call per record offered to the staging buffer. True = the caller
  /// should corrupt its copy of the record before validation sees it.
  [[nodiscard]] bool corrupt_this_record();

  // ---- Socket-level decisions ----
  /// One call per accepted connection. True = the listener must treat the
  /// accept as failed (close immediately, count, keep accepting).
  [[nodiscard]] bool fail_this_accept();
  /// One call per client request: the stall to insert between request
  /// chunks (zero = send normally). Non-zero marks a slow-loris peer.
  [[nodiscard]] std::chrono::milliseconds slow_read_stall();
  /// One call per client request. True = send only a prefix, then stop.
  [[nodiscard]] bool truncate_this_request();
  /// One call per client request. True = close the socket before reading
  /// the response.
  [[nodiscard]] bool disconnect_before_response();

  // Cumulative injection counters (thread-safe snapshots).
  [[nodiscard]] std::size_t flush_failures_injected() const;
  [[nodiscard]] std::size_t slow_flushes_injected() const;
  [[nodiscard]] std::size_t corruptions_injected() const;
  [[nodiscard]] std::size_t accept_failures_injected() const;
  [[nodiscard]] std::size_t slow_reads_injected() const;
  [[nodiscard]] std::size_t truncated_requests_injected() const;
  [[nodiscard]] std::size_t disconnects_injected() const;

 private:
  Config config_;
  mutable std::mutex mu_;
  Rng rng_;
  std::size_t flush_attempts_seen_{0};
  std::size_t flush_failures_{0};
  std::size_t slow_flushes_{0};
  std::size_t corruptions_{0};
  std::size_t accept_failures_{0};
  std::size_t slow_reads_{0};
  std::size_t truncated_requests_{0};
  std::size_t disconnects_{0};
};

}  // namespace usaas::core
