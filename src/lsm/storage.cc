#include "lsm/storage.h"

#include "sim/fault.h"

namespace hybridndp::lsm {

Result<FileId> VirtualStorage::AddFile(std::string contents) {
  HNDP_RETURN_IF_ERROR(
      sim::FaultCheck(sim::FaultSite::kStorageWrite, nullptr));
  const FileId id = next_file_id_++;
  FileEntry entry;
  entry.placement.file_id = id;
  entry.placement.size_bytes = contents.size();
  const uint64_t page = hw_->flash.page_bytes;
  entry.placement.num_pages = (contents.size() + page - 1) / page;
  entry.placement.start_page = next_page_;
  next_page_ += entry.placement.num_pages;
  total_bytes_ += contents.size();
  entry.contents = std::move(contents);
  files_.emplace(id, std::move(entry));
  return id;
}

void VirtualStorage::RemoveFile(FileId id) {
  auto it = files_.find(id);
  if (it == files_.end()) return;
  total_bytes_ -= it->second.placement.size_bytes;
  files_.erase(it);
}

const std::string* VirtualStorage::FileContents(FileId id) const {
  auto it = files_.find(id);
  if (it == files_.end()) return nullptr;
  return &it->second.contents;
}

Result<FilePlacement> VirtualStorage::Placement(FileId id) const {
  auto it = files_.find(id);
  if (it == files_.end()) {
    return Status::NotFound("file " + std::to_string(id));
  }
  return it->second.placement;
}

Result<Slice> VirtualStorage::Read(sim::AccessContext* ctx, FileId id,
                                   uint64_t offset, uint64_t n,
                                   bool sequential) const {
  auto it = files_.find(id);
  if (it == files_.end()) {
    return Status::NotFound("file " + std::to_string(id));
  }
  const std::string& data = it->second.contents;
  if (offset > data.size() || n > data.size() - offset) {
    return Status::InvalidArgument("read beyond EOF");
  }
  // Fault site: device-internal flash accesses only. Host-path reads stay
  // clean so a permanent device fault can still degrade to host execution.
  if (ctx != nullptr && ctx->actor() == sim::Actor::kDevice &&
      sim::FaultInjector::Enabled()) {
    HNDP_RETURN_IF_ERROR(sim::FaultCheck(sim::FaultSite::kStorageRead, ctx));
  }
  if (ctx != nullptr) {
    if (sequential) {
      // Streaming readers consume consecutive blocks; charge exact bytes so
      // sub-page blocks are not over-billed page by page.
      ctx->ChargeFlashRead(n);
    } else {
      // Random accesses pay full page reads.
      const uint64_t page = hw_->flash.page_bytes;
      const uint64_t first = offset / page;
      const uint64_t last = (offset + n + page - 1) / page;
      for (uint64_t p = first; p < last; ++p) {
        ctx->ChargeFlashRandomRead(page);
      }
    }
  }
  return Slice(data.data() + offset, n);
}

}  // namespace hybridndp::lsm
