// Virtual flash storage: holds SST file contents in memory and prices reads
// of them on the simulated flash array. An NDP invocation ships the file ids
// of a snapshot's Version (its address-mapping info, paper Sect. 2.1), and
// the device reads those files here without host interaction.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "sim/cost.h"

namespace hybridndp::lsm {

using FileId = uint64_t;

/// In-memory flash array with page-priced random reads. All reads are
/// charged to the caller's AccessContext so host (BLK/NATIVE) and device
/// (internal) paths pay their respective costs.
class VirtualStorage {
 public:
  explicit VirtualStorage(const sim::HwParams* hw) : hw_(hw) {}

  /// Store a new immutable file and return its id. Fails
  /// (FaultSite::kStorageWrite) instead of storing when an injected write
  /// fault exhausts its retries.
  Result<FileId> AddFile(std::string contents);

  /// Remove a file (after compaction).
  void RemoveFile(FileId id);

  /// Raw contents (no cost charge) — for building readers.
  const std::string* FileContents(FileId id) const;

  /// Charge the cost of reading `n` bytes at `offset` of file `id` through
  /// ctx's I/O path. `sequential` selects streaming vs random-page pricing.
  /// Returns a view into the file contents.
  Result<Slice> Read(sim::AccessContext* ctx, FileId id, uint64_t offset,
                     uint64_t n, bool sequential) const;

  uint64_t TotalBytes() const { return total_bytes_; }
  size_t NumFiles() const { return files_.size(); }
  const sim::HwParams& hw() const { return *hw_; }

 private:
  const sim::HwParams* hw_;
  std::map<FileId, std::string> files_;
  FileId next_file_id_ = 1;
  uint64_t total_bytes_ = 0;
};

}  // namespace hybridndp::lsm
