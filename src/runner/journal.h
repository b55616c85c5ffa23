// Crash-safe per-job journal for resumable sweeps.
//
// Alongside its final report, a journaled run maintains `<report>.journal`:
// one framed, CRC32-checksummed JSONL record per completed JobResult. The
// file is created (and recovery-compacted) via write-to-temp + fsync +
// atomic rename, and each record is appended with one write(2) followed by
// fdatasync(2), so after any crash — SIGKILL, OOM, power loss — the journal
// is a clean prefix of complete records plus at most one torn tail line.
//
// Frame grammar (one record per '\n'-terminated line):
//
//   PERTJ1 H <crc32-hex8> <header-json>      (first line)
//   PERTJ1 R <crc32-hex8> <result-json>      (one per completed job)
//
// The checksum covers exactly the payload bytes after the third space. The
// header pins the batch identity: report name, job count, and a 64-bit hash
// over every (key, seed) pair, so a journal can never resume a different
// sweep. Records are keyed by JobResult::key; duplicate keys are legal
// (a failed cell re-run on resume appends a second record) and resolve
// last-writer-wins.
//
// Recovery (`recover_journal`) replays the file, quarantines undecodable
// lines — truncated tail, checksum mismatch, malformed frame or JSON — into
// `<journal>.quarantine` (appending, for forensics), deduplicates, and
// atomically rewrites the journal to contain exactly the surviving records,
// so a subsequent crash-resume cycle starts from a verified-clean file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "runner/job.h"
#include "runner/shard.h"

namespace pert::runner {

struct JournalHeader {
  std::string name;         ///< RunReport/batch name
  std::uint64_t jobs = 0;   ///< cells in the full (unsharded) sweep grid
  /// Identity hash. Unsharded: a hash over every (key, seed) pair. Sharded:
  /// that base hash folded with the shard index and count, so a shard can
  /// never resume (or be mistaken for) another shard's journal — or an
  /// unsharded one. Pre-shard journals carry the base hash and a {0,1}
  /// shard, so they keep resuming byte-identically.
  std::uint64_t grid = 0;
  std::uint64_t base = 0;   ///< shard-independent grid hash (== grid when
                            ///< unsharded); lets tools cross-check that N
                            ///< shard journals describe one grid
  ShardSpec shard;          ///< which slice this journal records

  friend bool operator==(const JournalHeader&, const JournalHeader&) = default;
};

/// The header describing `jobs` (order-sensitive: the grid hash folds keys
/// and seeds in submission order), sliced by `shard`. Pass the FULL job
/// vector even when sharding: the hash covers the whole grid, the shard spec
/// only selects which cells this journal may record.
JournalHeader journal_header(std::string_view name,
                             const std::vector<Job>& jobs,
                             ShardSpec shard = {});

struct JournalRecovery {
  /// False when the file has no decodable header (missing, empty, or the
  /// header line itself is corrupt): the journal carries no trustworthy
  /// identity and callers must start fresh.
  bool usable = false;
  JournalHeader header;
  /// Surviving records after quarantine + last-writer-wins dedup, file order.
  std::vector<JobResult> records;
  std::size_t raw_records = 0;   ///< decodable record lines before dedup
  std::size_t duplicates = 0;    ///< earlier records superseded by key
  std::size_t quarantined = 0;   ///< lines moved to `<path>.quarantine`
};

/// Replays, quarantines, dedups, and compacts the journal at `path` (see
/// file comment). Missing file => usable=false, nothing written. Throws
/// std::runtime_error only on I/O failure.
JournalRecovery recover_journal(const std::string& path);

/// Append-only journal handle. Thread-safe: workers append completed results
/// concurrently; each append is one write(2) + fdatasync(2).
class Journal {
 public:
  /// Creates/truncates `path` with just the header (temp + fsync + rename),
  /// then opens it for appending.
  static Journal start_fresh(const std::string& path,
                             const JournalHeader& header);

  /// Opens an existing journal for appending (call after recover_journal,
  /// which guarantees the file ends in a complete record).
  static Journal append_to(const std::string& path);

  Journal(Journal&& other) noexcept;
  Journal& operator=(Journal&&) = delete;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;
  ~Journal();

  /// Appends one completed result as a framed record and syncs it to disk.
  void append(const JobResult& r);

  std::size_t appended() const noexcept { return appended_; }
  const std::string& path() const noexcept { return path_; }

 private:
  explicit Journal(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}

  std::string path_;
  int fd_ = -1;
  std::mutex mu_;
  std::size_t appended_ = 0;
};

/// Serializes one journal line (exposed for corruption tests).
std::string journal_frame(char type, const std::string& payload);

/// Writes `contents` to `path` durably: write to `<path>.tmp`, fsync, rename
/// over `path`, fsync the containing directory. Throws std::runtime_error on
/// failure. Also used for final reports, so a crash mid-export can never
/// leave a half-written JSON document under the report name.
void atomic_write_file(const std::string& path, std::string_view contents);

}  // namespace pert::runner
