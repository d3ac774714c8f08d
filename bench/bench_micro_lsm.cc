// Substrate micro-benchmarks (google-benchmark): wall-clock performance of
// the building blocks — skiplist memtable, block encode/decode, bloom
// probes, SST point reads and scans, LIKE matching. These measure the
// simulator's real execution speed, not simulated time.

#include <benchmark/benchmark.h>

#include "common/bloom.h"
#include "common/random.h"
#include "exec/expr.h"
#include "lsm/db.h"
#include "lsm/memtable.h"
#include "lsm/sst.h"
#include "sim/hw_model.h"

namespace hybridndp {
namespace {

void BM_MemTableAdd(benchmark::State& state) {
  lsm::MemTable mem;
  Rng rng(1);
  uint64_t i = 0;
  for (auto _ : state) {
    std::string key = "key" + std::to_string(rng.Next() % 100000);
    mem.Add(++i, lsm::ValueType::kValue, key, "value");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemTableAdd);

void BM_MemTableGet(benchmark::State& state) {
  lsm::MemTable mem;
  for (int i = 0; i < 10000; ++i) {
    mem.Add(i + 1, lsm::ValueType::kValue, "key" + std::to_string(i), "v");
  }
  Rng rng(2);
  std::string value;
  bool deleted;
  for (auto _ : state) {
    std::string key = "key" + std::to_string(rng.Next() % 10000);
    benchmark::DoNotOptimize(
        mem.Get(key, lsm::kMaxSequenceNumber, &value, &deleted, nullptr));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemTableGet);

void BM_BlockBuildAndScan(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    lsm::BlockBuilder builder(16);
    for (int i = 0; i < n; ++i) {
      char buf[24];
      snprintf(buf, sizeof(buf), "key%08d", i);
      std::string ikey;
      lsm::AppendInternalKey(&ikey, buf, 1, lsm::ValueType::kValue);
      builder.Add(ikey, "value");
    }
    std::string data = builder.Finish();
    lsm::BlockIter iter;
    iter.Reset(Slice(data));
    int count = 0;
    for (iter.SeekToFirst(); iter.Valid(); iter.Next()) ++count;
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BlockBuildAndScan)->Arg(64)->Arg(512);

void BM_BloomProbe(benchmark::State& state) {
  BloomFilterBuilder builder(10);
  for (int i = 0; i < 100000; ++i) builder.AddKey("key" + std::to_string(i));
  std::string data = builder.Finish();
  BloomFilter filter((Slice(data)));
  Rng rng(3);
  for (auto _ : state) {
    std::string key = "key" + std::to_string(rng.Next() % 200000);
    benchmark::DoNotOptimize(filter.MayContain(key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomProbe);

void BM_SstPointGet(benchmark::State& state) {
  sim::HwParams hw = sim::HwParams::PaperDefaults();
  lsm::VirtualStorage storage(&hw);
  lsm::SstBuilder builder(&storage, lsm::SstOptions{});
  for (int i = 0; i < 100000; ++i) {
    char buf[24];
    snprintf(buf, sizeof(buf), "key%08d", i);
    std::string ikey;
    lsm::AppendInternalKey(&ikey, buf, 1, lsm::ValueType::kValue);
    builder.Add(ikey, "value" + std::to_string(i));
  }
  auto meta = builder.Finish();
  lsm::SstReader reader(&storage, *meta);
  Rng rng(4);
  std::string value;
  bool deleted;
  for (auto _ : state) {
    char buf[24];
    snprintf(buf, sizeof(buf), "key%08d",
             static_cast<int>(rng.Next() % 100000));
    benchmark::DoNotOptimize(reader.Get(nullptr, nullptr, buf,
                                        lsm::kMaxSequenceNumber, &value,
                                        &deleted));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SstPointGet);

void BM_DbScan(benchmark::State& state) {
  sim::HwParams hw = sim::HwParams::PaperDefaults();
  lsm::VirtualStorage storage(&hw);
  lsm::DBOptions opts;
  opts.memtable_bytes = 1 << 20;
  lsm::DB db(&storage, opts);
  auto cf = db.CreateColumnFamily("bench");
  for (int i = 0; i < 50000; ++i) {
    (void)db.Put(cf, "key" + std::to_string(i), "value" + std::to_string(i));
  }
  (void)db.Flush(cf);
  for (auto _ : state) {
    auto iter = db.NewIterator(lsm::ReadOptions{}, cf);
    int count = 0;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) ++count;
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 50000);
}
BENCHMARK(BM_DbScan);

void BM_LikeMatch(benchmark::State& state) {
  Rng rng(5);
  std::vector<std::string> values;
  for (int i = 0; i < 1000; ++i) {
    values.push_back(rng.NextString(24) + "(co-production)" +
                     rng.NextString(8));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        exec::LikeMatch(values[i++ % values.size()], "%(co-production)%"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LikeMatch);

}  // namespace
}  // namespace hybridndp

BENCHMARK_MAIN();
