// Replica — the composition root of one DispersedLedger replica on the
// real runtime: transport, the VID/BA node, the client input queue and the
// durable log (§3–§5), plus the obs plane. dlnoded, the in-process cluster
// tests (app/loopback_cluster.hpp) and the sim-vs-real bench build replicas
// only through it.
//
// A replica is one thread: every part runs on the caller's home loop.
// Teardown order is the member declaration order below, reversed: admin,
// exporter, gateway, node, env, flight recorder, store, registry. The
// gateway, exporter and admin read the node, env and store; store drains
// observe the registry's histograms. docs/ARCHITECTURE.md ("Composition
// root") has the full argument.
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
#include "client/gateway.hpp"
#include "dl/node.hpp"
#include "net/tcp_env.hpp"
#include "obs/admin.hpp"
#include "obs/exporter.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/registry.hpp"
#include "storage/ledger_store.hpp"

namespace dl::app {

// Every field is what one dlnoded flag (named alongside) sets.
struct ReplicaOptions {
  int id = 0;                          // --id
  // Protocol knobs (--propose-delay-ms, --propose-size, --max-block-bytes,
  // --catchup-ms). n, f and self are taken from the cluster and `id`.
  core::NodeConfig node;
  adversary::RealAdversary adversary;  // --adversary
  // A client gateway on the node's client_port (0 there binds an ephemeral
  // port). dlnoded turns it off when the config gives no client_port.
  bool client_plane = true;
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
                                         const core::BlockView& block)>;

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

  // Walks the recovered store prefix once: seeds the gateway's committed
  // ring (a resubmitted payload is answered Committed, not committed twice)
  // and hands each block to `recovered`. Then starts the transport and the
  // gateway. Call once.
  void start(const RecoveredFn& recovered = {});

  // After the loop has stopped: Goodbye to clients, then make everything
  // delivered durable. Idempotent. Destruction does the same on its own.
  void stop();

  net::TcpEnv& env() { return env_; }
  core::DlNode& node() { return node_; }
  client::Gateway* gateway() { return gateway_.get(); }
  storage::LedgerStore* store() { return store_.get(); }
  obs::Registry& registry() { return registry_; }
  obs::NodeExporter* exporter() { return exporter_.get(); }
  obs::FlightRecorder* flight_recorder() { return flight_.get(); }
  obs::AdminServer* admin() { return admin_.get(); }

 private:
  // Hands a delivered block's payloads to the gateway.
  void notify_gateway(std::uint64_t at_epoch, const core::BlockKey& key,
                      const core::BlockView& block, double now);

  net::EventLoop& loop_;
  core::DlNode::DeliveryFn hook_;

  // Declaration order is the teardown order above, reversed.
  obs::Registry registry_;
  std::unique_ptr<storage::LedgerStore> store_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  net::TcpEnv env_;
  core::DlNode node_;
  std::unique_ptr<client::Gateway> gateway_;
  std::unique_ptr<obs::NodeExporter> exporter_;
  std::unique_ptr<obs::AdminServer> admin_;
};

}  // namespace dl::app
