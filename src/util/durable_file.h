// Crash-consistent file primitives shared by checkpointing (fl/checkpoint)
// and the durable Raft control plane (net/raft.h).
//
// Two durability idioms live here, and nowhere else:
//
//   1. Sealed files — whole-blob atomic replacement.  The blob is framed as
//      magic (caller-chosen, 4 bytes) + u32 version + u64 payload size +
//      payload + u32 CRC-32(payload), written to `path.tmp`, fsynced, then
//      renamed over `path`.  A crash mid-write can never leave a torn file
//      at the final path; a reader sees either the complete old blob or the
//      complete new one, and the CRC rejects bit rot.
//
//   2. DurableFile — an append-only write-ahead log of CRC-framed records
//      with fsync-on-append discipline.  File layout: a 8-byte header
//      (magic + u32 version) followed by records, each framed as
//      u32 record-magic + u32 payload length + u32 CRC-32(payload) +
//      payload.  Recovery scans the log front to back and applies the
//      torn-tail rule: a framing/CRC failure with *no* well-formed record
//      after it is the torn final write of a crash — the tail is truncated
//      and the log stays usable; a failure with a valid record after it is
//      silent mid-log corruption (bad disk, not a crash) and recovery
//      refuses loudly (std::runtime_error) rather than dropping committed
//      records.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace cmfl::util {

/// Atomically (re)writes `path` as a sealed blob: tmp + fsync + rename.
/// Throws std::runtime_error on I/O failure.
void save_sealed_file(const std::string& path,
                      const std::array<char, 4>& magic, std::uint32_t version,
                      std::span<const std::byte> payload);

/// Loads a sealed blob, verifying magic, version, declared size, and CRC.
/// Throws std::runtime_error on any mismatch, truncation, or corruption.
std::vector<std::byte> load_sealed_file(const std::string& path,
                                        const std::array<char, 4>& magic,
                                        std::uint32_t version);

/// Durability accounting for one DurableFile (monotonic per open handle).
struct DurableFileStats {
  std::uint64_t bytes_fsynced = 0;   // record bytes covered by an fsync
  std::uint64_t fsync_calls = 0;
  std::uint64_t records_appended = 0;
};

/// Append-only CRC-framed record log with fsync-on-append (idiom 2 above).
class DurableFile {
 public:
  static constexpr std::size_t kHeaderBytes = 8;         // magic + version
  static constexpr std::size_t kRecordHeaderBytes = 12;  // magic + len + crc
  static constexpr std::uint32_t kRecordMagic = 0x57'41'4c'52u;  // "RLAW" LE

  /// What the recovery scan found at open time.
  struct Recovery {
    std::vector<std::vector<std::byte>> records;  // well-formed, in order
    std::uint64_t valid_bytes = 0;  // file offset past the last good record
    bool tail_truncated = false;    // a torn tail was cut at valid_bytes
  };

  /// Opens `path` (creating it with a fresh header if absent) and recovers
  /// existing records.  Throws std::runtime_error on a header mismatch, on
  /// mid-log corruption (torn-tail rule above), or on I/O failure.
  /// `sync` = false skips every fsync (tests of the scan logic only).
  DurableFile(std::string path, const std::array<char, 4>& magic,
              std::uint32_t version, bool sync = true);
  ~DurableFile();

  DurableFile(const DurableFile&) = delete;
  DurableFile& operator=(const DurableFile&) = delete;

  const Recovery& recovered() const noexcept { return recovery_; }
  const DurableFileStats& stats() const noexcept { return stats_; }
  const std::string& path() const noexcept { return path_; }

  /// Appends one framed record.  With `sync_now` (the default) the record
  /// is on stable storage when the call returns — batch several appends
  /// with sync_now = false and a final sync() to pay one fsync.
  void append(std::span<const std::byte> record, bool sync_now = true);

  /// Flushes all appended-but-unsynced records to stable storage.
  void sync();

  /// Atomically replaces the log at `path` with exactly `records` (written
  /// to a tmp file, fsynced, renamed) — the WAL-rotation primitive used
  /// after a snapshot supersedes the log prefix.  Returns the bytes
  /// written.  Throws std::runtime_error on I/O failure.
  static std::uint64_t rewrite(const std::string& path,
                               const std::array<char, 4>& magic,
                               std::uint32_t version,
                               std::span<const std::vector<std::byte>> records,
                               bool sync = true);

  /// Lenient record-boundary scan used by fault injection and tests:
  /// (offset, total length incl. framing) of each well-formed record, in
  /// order, stopping at the first bad one.  Missing file => empty.
  static std::vector<std::pair<std::uint64_t, std::uint64_t>> record_spans(
      const std::string& path);

 private:
  void fsync_now();

  std::string path_;
  int fd_ = -1;
  bool sync_ = true;
  std::uint64_t unsynced_bytes_ = 0;
  Recovery recovery_;
  DurableFileStats stats_;
};

}  // namespace cmfl::util
