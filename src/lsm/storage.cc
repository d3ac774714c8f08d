#include "lsm/storage.h"

#include "sim/fault.h"

namespace hybridndp::lsm {

Result<FileId> VirtualStorage::AddFile(std::string contents) {
  HNDP_RETURN_IF_ERROR(
      sim::FaultCheck(sim::FaultSite::kStorageWrite, nullptr));
  const FileId id = next_file_id_++;
  total_bytes_ += contents.size();
  files_.emplace(id, std::move(contents));
  return id;
}

void VirtualStorage::RemoveFile(FileId id) {
  auto it = files_.find(id);
  if (it == files_.end()) return;
  total_bytes_ -= it->second.size();
  files_.erase(it);
}

const std::string* VirtualStorage::FileContents(FileId id) const {
  auto it = files_.find(id);
  if (it == files_.end()) return nullptr;
  return &it->second;
}

Result<Slice> VirtualStorage::Read(sim::AccessContext* ctx, FileId id,
                                   uint64_t offset, uint64_t n,
                                   bool sequential) const {
  auto it = files_.find(id);
  if (it == files_.end()) {
    return Status::NotFound("file " + std::to_string(id));
  }
  const std::string& data = it->second;
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
