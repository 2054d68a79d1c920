// A reader/writer lock for the live-ingest query path.
//
// §5's USaaS is a continuously-ingesting service: operator queries must
// keep answering while the streaming front-end flushes staged batches into
// the shard stores. Flushes are rare and batch-sized, queries are frequent
// and read-only — the classic many-readers/one-writer shape — so the shard
// table is guarded by one shared mutex: a flush holds it exclusively for
// the duration of a batch append, a query holds it shared across its whole
// shard fan-out. Readers therefore always observe a *flushed prefix* of
// the corpus (never a torn shard, never a half-appended batch), which is
// what makes streaming ingest bit-identical to batch ingest from the
// query's point of view. A single corpus-wide lock (rather than one lock
// per shard) is deliberate: per-shard locks cannot give a query a
// consistent cross-shard snapshot, and the writer path is a handful of
// batch appends per second at most.
#pragma once

#include <shared_mutex>

namespace usaas::core {

class RwLock {
 public:
  RwLock() = default;
  RwLock(const RwLock&) = delete;
  RwLock& operator=(const RwLock&) = delete;

  /// Shared (reader) guard: any number of concurrent holders, excluded
  /// only by a writer. Blocks while a writer holds the lock.
  [[nodiscard]] std::shared_lock<std::shared_mutex> read() {
    return std::shared_lock<std::shared_mutex>{mu_};
  }

  /// Exclusive (writer) guard. Blocks until every reader released.
  [[nodiscard]] std::unique_lock<std::shared_mutex> write() {
    return std::unique_lock<std::shared_mutex>{mu_};
  }

 private:
  std::shared_mutex mu_;
};

}  // namespace usaas::core
