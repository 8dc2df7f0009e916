// The multi-core runtime seams, exercised with real threads (run under
// ThreadSanitizer in CI):
//
//   - EventLoop::post() from concurrent producers: thread-safe, FIFO per
//     producer, runs on the loop thread, wakes a sleeping loop.
//   - EventLoop::stop() from another thread wakes epoll promptly.
//   - runtime::WorkerPool: jobs run, destructor drains the queued tail.
//   - TcpEnv::offload(): work on a pool thread, done on the home loop.
//   - client::IngressShards: N gateway shards behind one SO_REUSEPORT port,
//     clients committing through a real 4-replica cluster, with connection
//     churn (a client leaves, a fresh one joins mid-run).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "app/loopback_cluster.hpp"
#include "client/dl_client.hpp"
#include "net/event_loop.hpp"
#include "net/tcp_env.hpp"
#include "runtime/worker_pool.hpp"

namespace dl {
namespace {

TEST(ThreadedEnv, CrossThreadPostIsFifoPerProducerOnTheLoopThread) {
  net::EventLoop loop;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;

  std::vector<int> last_seen(kProducers, -1);  // loop-thread state, no lock
  std::atomic<int> received{0};
  std::atomic<bool> off_loop_execution{false};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        loop.post([&, p, i] {
          if (!loop.in_loop_thread()) {
            off_loop_execution.store(true, std::memory_order_relaxed);
          }
          EXPECT_EQ(last_seen[static_cast<std::size_t>(p)], i - 1);
          last_seen[static_cast<std::size_t>(p)] = i;
          received.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }

  // Poll until everything arrived; a watchdog fails the test rather than
  // hanging forever if a task is lost.
  std::function<void()> poll = [&] {
    if (received.load(std::memory_order_relaxed) == kProducers * kPerProducer) {
      loop.stop();
      return;
    }
    loop.after(0.002, poll);
  };
  loop.after(0.0, poll);
  bool timed_out = false;
  loop.after(30.0, [&] {
    timed_out = true;
    loop.stop();
  });
  loop.run();
  for (auto& t : producers) t.join();

  ASSERT_FALSE(timed_out);
  EXPECT_EQ(received.load(), kProducers * kPerProducer);
  EXPECT_FALSE(off_loop_execution.load());
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(last_seen[static_cast<std::size_t>(p)], kPerProducer - 1);
  }
}

TEST(ThreadedEnv, StopFromAnotherThreadWakesASleepingLoop) {
  net::EventLoop loop;
  // No timers, no fds: run() parks in epoll_wait indefinitely until the
  // cross-thread stop()'s eventfd kick wakes it.
  std::thread runner([&] { loop.run(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const auto stop_at = std::chrono::steady_clock::now();
  loop.stop();
  runner.join();
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - stop_at)
          .count();
  // Promptly = the eventfd wake, not some fallback poll timeout.
  EXPECT_LT(waited, 1.0);
  // run() consumed the stop request on exit: the loop is re-runnable.
  EXPECT_FALSE(loop.stopped());
}

TEST(ThreadedEnv, StopBeforeRunIsNotLost) {
  // The spawn-then-stop race: a stop() issued before run() ever starts must
  // make that run() return immediately, not be silently discarded.
  net::EventLoop loop;
  loop.stop();
  EXPECT_TRUE(loop.stopped());
  bool ran_task = false;
  loop.post([&] { ran_task = true; });
  loop.run();  // returns without dispatching anything
  EXPECT_FALSE(ran_task);

  // The pending request was consumed, so a subsequent run() proceeds
  // normally and drains the mailbox.
  EXPECT_FALSE(loop.stopped());
  loop.post([&loop] { loop.stop(); });
  loop.run();
  EXPECT_TRUE(ran_task);
}

TEST(ThreadedEnv, WorkerPoolRunsEverythingAndDrainsOnDestruction) {
  std::atomic<int> ran{0};
  {
    runtime::WorkerPool pool(2);
    EXPECT_EQ(pool.size(), 2);
    for (int i = 0; i < 200; ++i) {
      pool.submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    // Destructor must finish all 200, not drop the queued tail.
  }
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadedEnv, TcpEnvOffloadRunsWorkOffLoopAndDoneOnLoop) {
  net::EventLoop loop;
  net::ClusterConfig cfg;
  cfg.n = 1;
  cfg.f = 0;
  cfg.nodes.push_back({0, "127.0.0.1", 0, 0});
  runtime::WorkerPool pool(2);
  net::TcpEnv env(loop, cfg, 0);
  env.set_peer_port(0, env.listen_port());
  env.set_worker_pool(&pool);

  struct Nop : runtime::Receiver {
    void on_receive(int, ByteView) override {}
  } nop;
  env.start(nop);

  constexpr int kJobs = 32;
  std::atomic<int> done_count{0};
  std::atomic<bool> work_on_loop{false};
  std::atomic<bool> done_off_loop{false};
  std::vector<int> done_order;  // home-loop state, no lock

  // offload() is home-loop-affine: drive it from inside the loop.
  loop.post([&] {
    for (int i = 0; i < kJobs; ++i) {
      env.offload(
          [&, i] {
            if (loop.in_loop_thread()) {
              work_on_loop.store(true, std::memory_order_relaxed);
            }
            volatile int x = i * i;  // a visible payload
            (void)x;
          },
          [&, i] {
            if (!loop.in_loop_thread()) {
              done_off_loop.store(true, std::memory_order_relaxed);
            }
            done_order.push_back(i);
            if (done_count.fetch_add(1, std::memory_order_relaxed) + 1 ==
                kJobs) {
              loop.stop();
            }
          });
    }
  });
  bool timed_out = false;
  loop.after(30.0, [&] {
    timed_out = true;
    loop.stop();
  });
  loop.run();

  ASSERT_FALSE(timed_out);
  EXPECT_EQ(done_count.load(), kJobs);
  EXPECT_FALSE(work_on_loop.load()) << "work must run on a pool thread";
  EXPECT_FALSE(done_off_loop.load()) << "done must run on the home loop";
  EXPECT_EQ(done_order.size(), static_cast<std::size_t>(kJobs));
}

// A real 4-replica app::LoopbackCluster whose replica-0 ingress runs as TWO
// gateway shards on their own threads behind one SO_REUSEPORT port (the
// other replicas take no clients). Several clients connect
// (the kernel spreads them across the shards), commit transactions, then
// churn: one client disconnects and a fresh session joins mid-run. Every
// submitted transaction must be observed committed exactly once by its
// submitter, and the post-join shard aggregates must account for all of it.
TEST(ThreadedEnv, ShardedGatewayCommitsAcrossConnectionChurn) {
  app::LoopbackCluster cluster(app::loopback_config(4), [](int i) {
    app::ReplicaOptions o;
    o.node.propose_delay = 0.003;
    o.node.max_block_bytes = 8192;
    o.loops = i == 0 ? 2 : 0;
    return o;
  });
  net::EventLoop& loop = cluster.loop();
  client::IngressShards& shards = *cluster[0].ingress();
  ASSERT_NE(shards.listen_port(), 0);
  ASSERT_EQ(shards.shard_count(), 2);
  cluster.start();

  auto payload = [](std::uint64_t stream, std::uint64_t i) {
    Bytes p = random_bytes(64, (stream << 32) ^ i);
    for (int b = 0; b < 8; ++b) {
      p[static_cast<std::size_t>(b)] = static_cast<std::uint8_t>(i >> (8 * b));
      p[static_cast<std::size_t>(8 + b)] =
          static_cast<std::uint8_t>(stream >> (8 * b));
    }
    return p;
  };

  constexpr int kClients = 3;
  constexpr std::uint64_t kPerClient = 20;
  std::vector<std::unique_ptr<client::DlClient>> clients;
  std::vector<std::set<std::uint64_t>> committed(kClients + 1);
  std::uint64_t dup_commits = 0;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<client::DlClient>(
        loop, "127.0.0.1", shards.listen_port()));
    clients.back()->set_commit_callback(
        [&, c](std::uint64_t seq, std::uint64_t, std::uint32_t, double,
               const net::StageLatencies&) {
          if (!committed[static_cast<std::size_t>(c)].insert(seq).second) {
            ++dup_commits;
          }
        });
    clients.back()->start();
  }

  std::vector<std::uint64_t> submitted(kClients, 0);
  std::function<void()> feed = [&] {
    for (int c = 0; c < kClients; ++c) {
      if (submitted[static_cast<std::size_t>(c)] < kPerClient) {
        clients[static_cast<std::size_t>(c)]->submit(
            payload(static_cast<std::uint64_t>(c) + 1,
                    submitted[static_cast<std::size_t>(c)]++));
      }
    }
    if (submitted[0] < kPerClient) loop.after(0.002, feed);
  };
  loop.after(0.0, feed);

  ASSERT_TRUE(cluster.run_until([&] {
    for (int c = 0; c < kClients; ++c) {
      if (committed[static_cast<std::size_t>(c)].size() < kPerClient) {
        return false;
      }
    }
    return true;
  })) << "committed " << committed[0].size() << "/" << committed[1].size()
      << "/" << committed[2].size();

  // Churn: drop client 0, bring up a NEW session that lands on some shard
  // (possibly a different one) and must still commit.
  clients[0]->close();
  clients.push_back(std::make_unique<client::DlClient>(loop, "127.0.0.1",
                                                       shards.listen_port()));
  clients.back()->set_commit_callback(
      [&](std::uint64_t seq, std::uint64_t, std::uint32_t, double,
          const net::StageLatencies&) {
        committed[kClients].insert(seq);
      });
  clients.back()->start();
  loop.after(0.0, [&] {
    for (std::uint64_t i = 0; i < 5; ++i) {
      clients.back()->submit(payload(99, i));
    }
  });
  ASSERT_TRUE(cluster.run_until([&] { return committed[kClients].size() >= 5; }));

  EXPECT_EQ(dup_commits, 0u);
  for (auto& c : clients) c->close();
  shards.shutdown();

  // Post-join aggregates are exact: both shards together saw every submit
  // and notified every commit exactly once.
  constexpr std::uint64_t kTotal = kClients * kPerClient + 5;
  const client::Gateway::Stats total = shards.aggregate_stats();
  EXPECT_EQ(total.submits, kTotal);
  EXPECT_EQ(total.commits_notified, kTotal);
  const client::MempoolStats ms = shards.aggregate_mempool_stats();
  EXPECT_EQ(ms.admitted, kTotal);
  EXPECT_EQ(ms.committed, kTotal);
}

}  // namespace
}  // namespace dl
