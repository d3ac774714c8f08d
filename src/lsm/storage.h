// Virtual flash storage: holds SST file contents in memory and tracks their
// physical page placement on the simulated flash array. The page placement
// (address-mapping table) is what an NDP invocation ships to the device so
// it can access DB objects without host interaction (paper Sect. 2.1).

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

/// Physical placement of one file on the flash array.
struct FilePlacement {
  FileId file_id = 0;
  uint64_t start_page = 0;
  uint64_t num_pages = 0;
  uint64_t size_bytes = 0;
};

/// In-memory flash array with page-granular file allocation. All reads are
/// charged to the caller's AccessContext so host (BLK/NATIVE) and device
/// (internal) paths pay their respective costs.
class VirtualStorage {
 public:
  explicit VirtualStorage(const sim::HwParams* hw) : hw_(hw) {}

  /// Store a new immutable file and return its id. Fails
  /// (FaultSite::kStorageWrite) instead of storing when an injected write
  /// fault exhausts its retries.
  Result<FileId> AddFile(std::string contents);

  /// Remove a file (after compaction). Pages are reclaimed logically.
  void RemoveFile(FileId id);

  /// Raw contents (no cost charge) — for building readers.
  const std::string* FileContents(FileId id) const;

  /// Placement info for NDP invocations.
  Result<FilePlacement> Placement(FileId id) const;

  /// Charge the cost of reading `n` bytes at `offset` of file `id` through
  /// ctx's I/O path. `sequential` selects streaming vs random-page pricing.
  /// Returns a view into the file contents.
  Result<Slice> Read(sim::AccessContext* ctx, FileId id, uint64_t offset,
                     uint64_t n, bool sequential) const;

  uint64_t TotalBytes() const { return total_bytes_; }
  size_t NumFiles() const { return files_.size(); }
  const sim::HwParams& hw() const { return *hw_; }

 private:
  struct FileEntry {
    std::string contents;
    FilePlacement placement;
  };

  const sim::HwParams* hw_;
  std::map<FileId, FileEntry> files_;
  FileId next_file_id_ = 1;
  uint64_t next_page_ = 0;
  uint64_t total_bytes_ = 0;
};

}  // namespace hybridndp::lsm
