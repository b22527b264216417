// Persistent on-disk result store: an append-only, CRC-verified key/value
// log shared by repeated and parallel evaluation runs.
//
// The evaluation pipeline's outcomes are pure functions of an injective
// structural key (plan::structural_key), which makes them cacheable across
// process lifetimes: a multi-hour `red_cli optimize` that re-runs after a
// crash — or N shard processes sweeping disjoint ordinal ranges of the same
// space — should pay for every evaluation once, ever. The store is the
// durability half of that contract. Both pricing paths consult an attached
// store before computing and write back what they computed:
// explore::SweepDriver (behind its in-memory memo) and opt::Optimizer (one
// lookup per priced layer, by LayerPlan::key). They share keys and the
// outcome codec, so a store written by a sweep warm-starts a search, and
// the reverse.
// lookup() is const and safe to call from many threads while no put() runs;
// the optimizer reads during a batch and writes only between batches.
//
// File layout (host-endian; the store is a same-machine cache, not an
// interchange format):
//
//   [8-byte file magic "REDSTOR1"]
//   record*:
//     [u32 record magic 0x45524352 "RCRE"]
//     [u32 crc32 of the framed key+payload bytes]
//     [u32 key length] [u32 payload length]
//     [key bytes] [payload bytes]
//
// Robustness contract: a torn tail (writer killed mid-append) or a flipped
// bit anywhere invalidates AT MOST the records it touches. The loader
// verifies magic, sane lengths, and CRC per record; on any violation it
// quarantines the bad bytes and rescans for the next record magic, so one
// bad record never poisons the run — corrupt stores degrade into smaller
// caches, never into crashes or wrong answers (a false CRC pass is the only
// failure mode, at 2^-32 per corrupted record).
//
// Concurrency: records are appended with a single O_APPEND write(2) each, so
// parallel writers on one file interleave whole records in practice; a rare
// torn interleave is swallowed by the quarantine path like any other
// corruption. Readers only see records that were complete at open() time.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

namespace red::store {

/// What loading found, and what this session appended. `records_quarantined`
/// counts resync events (each skipping one damaged record or a torn tail);
/// `bytes_skipped` is the quarantined byte total.
struct StoreReport {
  std::int64_t records_loaded = 0;
  std::int64_t records_quarantined = 0;
  std::int64_t bytes_skipped = 0;
  std::int64_t appended = 0;

  [[nodiscard]] bool clean() const { return records_quarantined == 0 && bytes_skipped == 0; }
};

class ResultStore {
 public:
  /// Open (creating if absent) the store at `path` and load every intact
  /// record into memory. Duplicate keys keep the newest record. Corruption
  /// is quarantined into report(), never thrown; a missing directory or an
  /// unwritable file throws IoError.
  explicit ResultStore(std::string path);
  ~ResultStore();

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  /// The stored payload for `key`, or nullptr. The pointer is stable until
  /// the next put().
  [[nodiscard]] const std::string* lookup(const std::string& key) const;

  /// Insert and append to disk. A key already present is a no-op (outcomes
  /// are pure functions of the key, so the stored payload is already right).
  void put(const std::string& key, std::string payload);

  /// Flush buffered appends to the OS. Called by the destructor; exposed for
  /// long-running drivers that want bounded loss windows.
  void flush();

  [[nodiscard]] const StoreReport& report() const { return report_; }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::int64_t entries() const { return static_cast<std::int64_t>(map_.size()); }

 private:
  void load(const std::string& bytes);

  std::string path_;
  std::unordered_map<std::string, std::string> map_;
  StoreReport report_;
  int fd_ = -1;  ///< O_APPEND descriptor for put()
};

}  // namespace red::store
