// dlbench_probe — times the coding and storage layers' public functions
// directly, at the block size and cluster size a workload measured:
//
//   dlbench_probe --n N --block-bytes B --store-dir DIR --result FILE
//
//   encode_us       ReedSolomon(n-2f, n).encode(block)
//   reconstruct_us  ReedSolomon::decode from the n-2f parity-side chunks
//                   (every data chunk erased, so it is a real solve)
//   merkle_us       MerkleTree over the n chunks
//   append_sync_us  LedgerStore append of the block + epoch marker, then
//                   sync(), in a scratch store under DIR
//
// Each is the median over repeated calls within a fixed time box, after one
// warm-up call. Outputs are checked (decode round-trips, roots repeat, the
// store reads the block back); a mismatch exits 1.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "dlbench.hpp"
#include "erasure/reed_solomon.hpp"
#include "merkle/merkle_tree.hpp"
#include "storage/ledger_store.hpp"

namespace {

using Clock = std::chrono::steady_clock;

// Median microseconds of body() over at least 5 calls and about `budget_s`.
template <typename Body>
double median_us(double budget_s, Body&& body) {
  body();
  std::vector<double> us;
  const auto start = Clock::now();
  while (us.size() < 5 ||
         (std::chrono::duration<double>(Clock::now() - start).count() < budget_s &&
          us.size() < 100000)) {
    const auto t0 = Clock::now();
    body();
    us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  return dlbench::percentile(us, 0.5);
}

}  // namespace

int main(int argc, char** argv) {
  int n = 4;
  std::size_t block_bytes = 0;
  std::string store_dir, result_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string a = argv[i];
    if (a == "--n") {
      n = std::atoi(argv[i + 1]);
    } else if (a == "--block-bytes") {
      block_bytes = static_cast<std::size_t>(std::atoll(argv[i + 1]));
    } else if (a == "--store-dir") {
      store_dir = argv[i + 1];
    } else if (a == "--result") {
      result_path = argv[i + 1];
    } else {
      std::fprintf(stderr, "dlbench_probe: unknown flag %s\n", a.c_str());
      return 2;
    }
  }
  if (n < 4 || block_bytes == 0 || store_dir.empty() || result_path.empty()) {
    std::fprintf(stderr,
                 "usage: dlbench_probe --n N --block-bytes B --store-dir DIR "
                 "--result FILE\n");
    return 2;
  }
  const int f = (n - 1) / 3;
  const int k = n - 2 * f;
  const double budget = 0.25;
  bool ok = true;

  const dl::Bytes block = dl::random_bytes(block_bytes, 0xB10C);
  const dl::ReedSolomon rs(k, n);
  std::vector<dl::Bytes> chunks;
  const double encode_us = median_us(budget, [&] { chunks = rs.encode(block); });

  const dl::Hash root = dl::MerkleTree(chunks).root();
  const double merkle_us = median_us(budget, [&] {
    if (dl::MerkleTree(chunks).root() != root) ok = false;
  });

  std::vector<dl::Bytes> partial = chunks;
  for (int i = 0; i < n - k; ++i) partial[static_cast<std::size_t>(i)].clear();
  const double reconstruct_us = median_us(budget, [&] {
    const auto got = rs.decode(partial);
    if (!got.has_value() || *got != block) ok = false;
  });

  std::string err;
  dl::storage::StoreOptions sopt;
  auto store = dl::storage::LedgerStore::open(store_dir, sopt, &err);
  if (store == nullptr) {
    std::fprintf(stderr, "dlbench_probe: cannot open store %s: %s\n",
                 store_dir.c_str(), err.c_str());
    return 1;
  }
  std::uint64_t epoch = 0;
  const double append_sync_us = median_us(budget, [&] {
    dl::storage::BlockRecord rec;
    rec.at_epoch = epoch;
    rec.block_epoch = epoch;
    rec.content = block;
    store->append_block(rec);
    store->append_epoch_done(epoch++);
    store->sync();
  });
  std::vector<dl::storage::BlockRecord> back;
  if (!store->blocks_at(0, back) || back.size() != 1 || back[0].content != block) {
    ok = false;
  }

  dlbench::JsonOut out;
  out.num("n", n)
      .num("block_bytes", static_cast<double>(block_bytes))
      .num("encode_us", encode_us)
      .num("reconstruct_us", reconstruct_us)
      .num("merkle_us", merkle_us)
      .num("append_sync_us", append_sync_us)
      .num("ok", ok ? 1 : 0);
  std::ofstream file(result_path);
  file << out.str() << "\n";
  if (!file) {
    std::fprintf(stderr, "dlbench_probe: cannot write %s\n", result_path.c_str());
    return 1;
  }
  return ok ? 0 : 1;
}
