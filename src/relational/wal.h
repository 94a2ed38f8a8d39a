#ifndef MEDSYNC_RELATIONAL_WAL_H_
#define MEDSYNC_RELATIONAL_WAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/json.h"
#include "common/metrics/metrics.h"
#include "common/result.h"
#include "common/status.h"

namespace medsync::relational {

/// One durable log record. `lsn` is assigned on append, starting at 1.
struct WalRecord {
  uint64_t lsn = 0;
  Json payload;
};

/// A file-backed write-ahead log with per-record checksums.
///
/// Record wire format (one record per line):
///   <crc32-hex-8> <length-decimal> <lsn-decimal> <json-payload>\n
/// The checksum and length cover `<lsn-decimal> <json-payload>`, so a
/// corrupted LSN is caught like any other corruption, and a record without
/// one is refused. Recovery reads records until EOF; only a
/// torn tail — a final record missing its '\n' terminator, the signature of
/// an interrupted append — is truncated away. A complete line that fails
/// the checksum, length, or LSN monotonicity check is bit rot, and Open
/// fails with Corruption rather than silently dropping it along with every
/// valid record after it. The local database
/// of every sharing peer logs mutations through this before applying them,
/// so a crashed peer replays to its pre-crash state and can rejoin the
/// sharing protocol where it left off.
///
/// LSNs are durable and survive Reset(): truncating the log after a
/// checkpoint does NOT renumber from 1, so a snapshot that records "covers
/// everything through LSN K" stays meaningful in every crash window around
/// the checkpoint (see Database::Checkpoint).
class Wal {
 public:
  struct Options {
    /// fdatasync after every Append (and after Reset), so an acknowledged
    /// record survives a machine crash, not just a process crash. The
    /// database's commit path opens its WAL with this ON; raw Wal users
    /// default to the fast no-sync behaviour and call Sync() at their own
    /// durability points.
    bool sync_every_append = false;
  };

  /// Opens (creating if needed) the log at `path` and recovers existing
  /// records. `recovered` receives the surviving records; may be nullptr.
  static Result<Wal> Open(std::string path, std::vector<WalRecord>* recovered,
                          Options options);
  static Result<Wal> Open(std::string path,
                          std::vector<WalRecord>* recovered) {
    return Open(std::move(path), recovered, Options());
  }

  Wal(Wal&& other) noexcept;
  Wal& operator=(Wal&& other) noexcept;
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;
  ~Wal();

  /// Appends a record and flushes it to the OS (plus fdatasync when
  /// sync_every_append is on). Returns the assigned LSN.
  Result<uint64_t> Append(const Json& payload);

  /// Forces appended records to stable storage (fdatasync).
  Status Sync();

  /// Truncates the log to empty (after a snapshot/checkpoint); synced when
  /// sync_every_append is on. LSN assignment continues from where it was —
  /// records appended after a Reset are numbered strictly above everything
  /// the checkpoint covered.
  Status Reset();

  /// Raises the next LSN to at least `lsn` (no-op if already past it). A
  /// database whose snapshot covers LSNs through K calls this with K+1 on
  /// open, so fresh appends never reuse covered numbers even when the log
  /// file itself is empty.
  void EnsureNextLsnAtLeast(uint64_t lsn) {
    if (next_lsn_ < lsn) next_lsn_ = lsn;
  }

  uint64_t next_lsn() const { return next_lsn_; }
  const std::string& path() const { return path_; }
  const Options& options() const { return options_; }

  /// Durability accounting, mirrored into an attached registry as
  /// wal.appends / wal.append_bytes / wal.syncs / wal.resets /
  /// wal.recovered_records / wal.truncations.
  struct Stats {
    uint64_t appends = 0;
    uint64_t append_bytes = 0;
    uint64_t syncs = 0;
    uint64_t resets = 0;
    uint64_t recovered_records = 0;  // surviving records seen by Open
    uint64_t truncations = 0;        // torn tails cut during recovery
  };
  const Stats& stats() const { return stats_; }

  /// Attaches counters; recovery counts accumulated by Open are flushed to
  /// the registry at attach time. `registry` must outlive the Wal; nullptr
  /// detaches.
  void set_metrics(metrics::MetricsRegistry* registry);

 private:
  Wal() = default;

  std::string path_;
  int fd_ = -1;
  uint64_t next_lsn_ = 1;
  Options options_;
  Stats stats_;

  metrics::Counter* appends_counter_ = nullptr;
  metrics::Counter* append_bytes_counter_ = nullptr;
  metrics::Counter* syncs_counter_ = nullptr;
  metrics::Counter* resets_counter_ = nullptr;
};

}  // namespace medsync::relational

#endif  // MEDSYNC_RELATIONAL_WAL_H_
