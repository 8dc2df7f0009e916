// Microbenchmarks (google-benchmark) for the primitives: SHA-256, GF(2^8)
// row ops, Reed-Solomon encode/decode, Merkle build/prove/verify, GF(2^64)
// fingerprints, AVID-M disperse + retrieval verification, block codec, and
// a full in-memory BA round.
#include <benchmark/benchmark.h>

#include <memory>

#include "ba/binary_agreement.hpp"
#include "ba/common_coin.hpp"
#include "common/rng.hpp"
#include "crypto/fingerprint.hpp"
#include "crypto/sha256.hpp"
#include "dl/block.hpp"
#include "erasure/reed_solomon.hpp"
#include "merkle/merkle_tree.hpp"
#include "vid/avid_m.hpp"

namespace {

using namespace dl;

void BM_Sha256(benchmark::State& state) {
  const Bytes data = random_bytes(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(1024)->Arg(65536)->Arg(1 << 20);

void BM_RsEncode(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int f = (n - 1) / 3;
  const ReedSolomon rs(n - 2 * f, n);
  const Bytes block = random_bytes(500'000, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.encode(block));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 500'000);
}
BENCHMARK(BM_RsEncode)->Arg(16)->Arg(64)->Arg(128);

void BM_RsDecode(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int f = (n - 1) / 3;
  const ReedSolomon rs(n - 2 * f, n);
  auto chunks = rs.encode(random_bytes(500'000, 3));
  // Erase the data shards: worst-case decode from parity.
  for (int i = 0; i < 2 * f; ++i) chunks[static_cast<std::size_t>(i)].clear();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.decode(chunks));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 500'000);
}
BENCHMARK(BM_RsDecode)->Arg(16)->Arg(64)->Arg(128);

void BM_MerkleBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<Bytes> leaves;
  for (int i = 0; i < n; ++i) leaves.push_back(random_bytes(32'000, static_cast<std::uint64_t>(i)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MerkleTree(leaves).root());
  }
}
BENCHMARK(BM_MerkleBuild)->Arg(16)->Arg(128);

void BM_MerkleVerify(benchmark::State& state) {
  std::vector<Bytes> leaves;
  for (int i = 0; i < 128; ++i) leaves.push_back(random_bytes(1000, static_cast<std::uint64_t>(i)));
  const MerkleTree tree(leaves);
  const auto proof = tree.prove(77);
  for (auto _ : state) {
    benchmark::DoNotOptimize(merkle_verify(tree.root(), leaves[77], proof));
  }
}
BENCHMARK(BM_MerkleVerify);

void BM_Fingerprint(benchmark::State& state) {
  const Bytes data = random_bytes(static_cast<std::size_t>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fingerprint(data, 0x12345678ABCDEF01ULL));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Fingerprint)->Arg(4096)->Arg(65536);

void BM_AvidMDisperse(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const vid::Params p{n, (n - 1) / 3};
  const Bytes block = random_bytes(500'000, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vid::avid_m_disperse(p, block));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 500'000);
}
BENCHMARK(BM_AvidMDisperse)->Arg(16)->Arg(64)->Arg(128);

void BM_AvidMRetrieveVerify(benchmark::State& state) {
  // The retrieval-side re-encode check — AVID-M's verification cost.
  const int n = 16;
  const vid::Params p{n, 5};
  auto msgs = vid::avid_m_disperse(p, random_bytes(500'000, 6));
  for (auto _ : state) {
    vid::AvidMRetriever r(p, 0);
    for (int i = 0; i < n; ++i) {
      r.handle_return_chunk(i, msgs[static_cast<std::size_t>(i)]);
      if (r.done()) break;
    }
    benchmark::DoNotOptimize(r.result());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 500'000);
}
BENCHMARK(BM_AvidMRetrieveVerify);

void BM_BlockCodec(benchmark::State& state) {
  core::Block b;
  b.v_array.assign(16, 12345);
  for (int i = 0; i < 600; ++i) {
    core::Transaction tx;
    tx.submit_time = i;
    tx.origin = 3;
    tx.payload = random_bytes(250, static_cast<std::uint64_t>(i));
    b.txs.push_back(std::move(tx));
  }
  const Bytes enc = b.encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::BlockView::decode(enc, 16));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(enc.size()));
}
BENCHMARK(BM_BlockCodec);

void BM_BaFullInstance(benchmark::State& state) {
  // A full N-node BA instance to completion with synchronous delivery —
  // measures automaton CPU cost, not network latency.
  const int n = static_cast<int>(state.range(0));
  const int f = (n - 1) / 3;
  for (auto _ : state) {
    ba::CommonCoin coin(7);
    std::vector<std::unique_ptr<ba::BinaryAgreement>> nodes;
    for (int i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<ba::BinaryAgreement>(
          n, f, i, [&coin](std::uint32_t r) { return coin.flip(0, 0, r); }));
    }
    std::vector<std::tuple<int, int, Envelope>> queue;
    auto push = [&](int from, const Outbox& out) {
      for (const OutMsg& m : out) {
        for (int to = 0; to < n; ++to) queue.emplace_back(from, to, m.env);
      }
    };
    for (int i = 0; i < n; ++i) {
      Outbox out;
      nodes[static_cast<std::size_t>(i)]->input(i % 2 == 0, out);
      push(i, out);
    }
    while (!queue.empty()) {
      auto [from, to, env] = std::move(queue.back());
      queue.pop_back();
      Outbox out;
      nodes[static_cast<std::size_t>(to)]->handle(from, env.kind, env.body, out);
      push(to, out);
    }
    benchmark::DoNotOptimize(nodes[0]->output());
  }
}
BENCHMARK(BM_BaFullInstance)->Arg(16)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
