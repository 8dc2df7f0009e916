// Replica — the composition root of one DispersedLedger replica on the
// real runtime: transport, the VID/BA node, the client input queue and the
// durable log (§3–§5), plus the obs plane. dlnoded, the in-process cluster
// tests (app/loopback_cluster.hpp) and the sim-vs-real bench build replicas
// only through it.
//
// Teardown order is the member declaration order below, reversed: admin,
// exporter, ingress, worker pool, node, env, flight recorder, store,
// registry. The worker pool's destructor runs its queued jobs, which use
// the node, the env, the store and (through store drains) the registry's
// histograms, so all of those outlive it; ingress, exporter and admin read
// the node, env and store. docs/ARCHITECTURE.md ("Composition root") has
// the full argument.
//
// Construct, start(), stop() and destroy on the home loop's thread, or
// before it runs. The loop is the caller's and must outlive the replica;
// destroying a replica while its loop keeps running is unsupported (timers
// the node set through TcpEnv::after are never cancelled).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "adversary/adversary.hpp"
#include "client/ingress.hpp"
#include "dl/node.hpp"
#include "net/tcp_env.hpp"
#include "obs/admin.hpp"
#include "obs/exporter.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/registry.hpp"
#include "runtime/worker_pool.hpp"
#include "storage/ledger_store.hpp"

namespace dl::app {

// Every field is what one dlnoded flag (named alongside) sets.
struct ReplicaOptions {
  int id = 0;                          // --id
  // Protocol knobs (--propose-delay-ms, --propose-size, --max-block-bytes,
  // --catchup-ms). n, f and self are taken from the cluster and `id`.
  core::NodeConfig node;
  adversary::RealAdversary adversary;  // --adversary
  int net_loops = 1;                   // --net-loops
  int workers = 0;                     // --workers (0: coding inline)
  // --loops: client ingress shards on the node's client_port (0 there
  // binds an ephemeral port). 0 shards: no client plane.
  int loops = 1;
  client::MempoolOptions mempool;
  std::string store_dir;               // --store; empty: no durability
  storage::FsyncPolicy fsync = storage::FsyncPolicy::kBatch;  // --fsync
  // Exporter plus the loop-task and store-drain histograms
  // (--stats-interval); implied by an admin server.
  bool metrics = false;
  // Protocol flight recorder (--flight-recorder); implied by an admin server.
  bool flight_recorder = false;
  int admin_port = -1;                 // --admin-port; <0: none, 0: ephemeral
};

// The store directory could not be opened (dlnoded exits 2 on it). Any
// other exception out of the constructor is a startup failure such as a
// bind collision (dlnoded exits 3).
struct StoreOpenError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class Replica {
 public:
  // A block the store recovered, decoded as it was delivered live.
  using RecoveredFn = std::function<void(const storage::BlockRecord& record,
                                         const core::Block& block)>;

  // Builds every part; binds the peer, client and admin ports. Nothing
  // touches the loop's dispatch until start().
  Replica(net::EventLoop& home, const net::ClusterConfig& cluster,
          ReplicaOptions opt);
  ~Replica();
  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  // Runs on every live delivery, before the client ingress is notified.
  // Set before start().
  void set_delivery_hook(core::DlNode::DeliveryFn hook) {
    hook_ = std::move(hook);
  }

  // Walks the recovered store prefix once: seeds every ingress committed
  // ring (a resubmitted payload is answered Committed, not committed twice)
  // and hands each block to `recovered`. Then starts the transport and the
  // client ingress. Call once.
  void start(const RecoveredFn& recovered = {});

  // After the loop has stopped: Goodbye to clients and join shard threads
  // (the ingress aggregates are exact from here on), then make everything
  // delivered durable. Idempotent. Destruction does the same on its own.
  void stop();

  net::TcpEnv& env() { return env_; }
  core::DlNode& node() { return node_; }
  client::IngressShards* ingress() { return ingress_.get(); }
  storage::LedgerStore* store() { return store_.get(); }
  obs::Registry& registry() { return registry_; }
  obs::NodeExporter* exporter() { return exporter_.get(); }
  obs::FlightRecorder* flight_recorder() { return flight_.get(); }
  obs::AdminServer* admin() { return admin_.get(); }

 private:
  net::EventLoop& loop_;
  core::DlNode::DeliveryFn hook_;

  // Declaration order is the teardown order above, reversed.
  obs::Registry registry_;
  std::unique_ptr<storage::LedgerStore> store_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  net::TcpEnv env_;
  core::DlNode node_;
  std::unique_ptr<runtime::WorkerPool> pool_;
  std::unique_ptr<client::IngressShards> ingress_;
  std::unique_ptr<obs::NodeExporter> exporter_;
  std::unique_ptr<obs::AdminServer> admin_;
};

}  // namespace dl::app
