// Pins the JOB store the benchmark builds (perfbench/driver/job_store.cc:
// scale 0.001, data seed 42, a 512 KiB MemTable and a 4 MiB C2 target).
// Every live file's bytes, the flush and compaction counts and every
// column statistic are rendered as text and compared with
// tests/golden/job_store.txt. A change to the write path (MemTable, SST
// building, compaction) or to statistics collection that keeps the store's
// bytes and the planner's inputs must leave this text unchanged; only a
// declared model change (DESIGN.md §12) re-records it. On a mismatch the
// test writes what it built to job_store.actual.txt in its working
// directory, for a diff.

#include <gtest/gtest.h>

#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/hash.h"
#include "job/generator.h"
#include "job/schema.h"
#include "lsm/db.h"
#include "rel/table.h"
#include "sim/hw_model.h"

namespace hybridndp::job {
namespace {

void Line(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void Line(std::string* out, const char* fmt, ...) {
  char buf[2048];
  va_list args;
  va_start(args, fmt);
  const int n = vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  ASSERT_LT(n, static_cast<int>(sizeof(buf))) << "line truncated";
  *out += buf;
  *out += '\n';
}

struct LiveFiles {
  uint64_t files = 0;
  uint64_t bytes = 0;
};

void RenderCf(const lsm::DB& db, const lsm::VirtualStorage& storage,
              const std::string& name, lsm::ColumnFamilyId cf,
              LiveFiles* live, std::string* out) {
  Line(out, "cf %s", name.c_str());
  const lsm::Version& version = db.GetVersion(cf);
  for (size_t level = 0; level < version.levels.size(); ++level) {
    for (const lsm::FileMetaData& f : version.levels[level]) {
      const std::string* contents = storage.FileContents(f.file_id);
      ASSERT_NE(contents, nullptr) << name;
      ++live->files;
      live->bytes += f.file_size;
      Line(out, "  C%zu file=%llu size=%llu entries=%llu hash=%016llx",
           level + 1, static_cast<unsigned long long>(f.file_id),
           static_cast<unsigned long long>(f.file_size),
           static_cast<unsigned long long>(f.num_entries),
           static_cast<unsigned long long>(Hash64(Slice(*contents))));
    }
  }
}

void RenderStats(const rel::Table& table, std::string* out) {
  const rel::TableStats& stats = table.stats();
  Line(out, "stats %s rows=%llu", table.def().name.c_str(),
       static_cast<unsigned long long>(stats.row_count));
  for (size_t i = 0; i < stats.columns.size(); ++i) {
    const rel::ColumnStats& cs = stats.columns[i];
    std::string hist;
    for (uint64_t b : cs.histogram) hist += " " + std::to_string(b);
    Line(out, "  %s %s min=%d max=%d ndv=%llu null_fraction=%.17g hist=[%s ]",
         table.def().schema.column(i).name.c_str(), cs.is_int ? "int" : "str",
         cs.min_int, cs.max_int, static_cast<unsigned long long>(cs.ndv),
         cs.null_fraction, hist.c_str());
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(JobStorePinTest, BenchmarkStoreIsByteForByteTheGolden) {
  sim::HwParams hw = sim::HwParams::PaperDefaults();
  lsm::VirtualStorage storage(&hw);
  lsm::DBOptions db_opts;
  db_opts.memtable_bytes = 512 << 10;
  db_opts.l1_target_bytes = 4ull << 20;
  lsm::DB db(&storage, db_opts);
  rel::Catalog catalog(&db);
  JobDataOptions data;
  data.scale = 0.001;
  data.seed = 42;
  ASSERT_TRUE(BuildJobDatabase(&catalog, data).ok());

  LiveFiles live;
  std::string cfs, stats;
  for (const JobTableSpec& spec : JobTables()) {
    const rel::Table* table = catalog.Get(spec.name);
    ASSERT_NE(table, nullptr) << spec.name;
    RenderCf(db, storage, "t_" + table->def().name, table->primary_cf(),
             &live, &cfs);
    for (size_t i = 0; i < table->def().indexes.size(); ++i) {
      RenderCf(db, storage,
               "i_" + table->def().name + "_" + table->def().indexes[i].name,
               table->index_cf(i), &live, &cfs);
    }
    RenderStats(*table, &stats);
  }

  // The headline numbers, also asserted on their own for a readable
  // failure.
  EXPECT_EQ(live.files, 48u);
  EXPECT_EQ(live.bytes, 6830839u);
  EXPECT_EQ(storage.TotalBytes(), live.bytes);

  std::string actual;
  Line(&actual, "store live_files=%llu live_bytes=%llu flushes=%llu "
       "compactions=%llu compacted_bytes=%llu",
       static_cast<unsigned long long>(live.files),
       static_cast<unsigned long long>(live.bytes),
       static_cast<unsigned long long>(db.stats().flushes),
       static_cast<unsigned long long>(db.stats().compactions),
       static_cast<unsigned long long>(db.stats().compacted_bytes));
  actual += cfs;
  actual += stats;

  const std::string golden = ReadFile(HNDP_JOB_STORE_GOLDEN);
  if (actual != golden) {
    std::ofstream("job_store.actual.txt") << actual;
    ASSERT_FALSE(golden.empty()) << "missing " << HNDP_JOB_STORE_GOLDEN;
    // Report the first differing line.
    std::istringstream a(actual), g(golden);
    std::string la, lg;
    int line = 1;
    while (true) {
      const bool more_a = static_cast<bool>(std::getline(a, la));
      const bool more_g = static_cast<bool>(std::getline(g, lg));
      if (!more_a && !more_g) break;
      if (!more_a || !more_g || la != lg) {
        ADD_FAILURE() << "line " << line << " differs\n  golden: " << lg
                      << "\n  built:  " << la
                      << "\n(full text in job_store.actual.txt)";
        break;
      }
      ++line;
    }
  }
}

}  // namespace
}  // namespace hybridndp::job
