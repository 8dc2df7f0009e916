// NodeExporter — wires a replica's subsystems into an obs::Registry.
//
// One object owns the full metric surface of a dlnoded process: it
// registers every instrument at construction and installs a registry sample
// hook that mirrors externally-owned stats structs (NodeStats, PeerStats,
// shaper/pool/store/loop counters) into those instruments at snapshot time.
//
// Threading: every source except the process-global BufferPool is affine
// to the replica's home loop (plain counters, no locks), and so is the
// sample hook: the admin endpoint, the --stats-interval timer and the
// SIGUSR1 handler all run there. Snapshot the registry only from that loop.
//
// delta_line() doubles as the --stats-interval formatter: a one-line
// summary of what changed since the previous call (shared with dl_loadgen's
// --progress via obs::StatLine).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "obs/statline.hpp"

namespace dl::core {
class DlNode;
}
namespace dl::net {
class TcpEnv;
class EventLoop;
}  // namespace dl::net
namespace dl::client {
class Gateway;
}
namespace dl::storage {
class LedgerStore;
}

namespace dl::obs {

struct ExporterSources {
  core::DlNode& node;
  net::TcpEnv& env;
  const net::EventLoop& home_loop;
  client::Gateway* gateway = nullptr;       // null without a client plane
  storage::LedgerStore* store = nullptr;    // null without --store
};

class NodeExporter {
 public:
  // Registers all instruments on `reg` and installs the mirroring sample
  // hook. A null gateway or store skips its metric group. `reg` and all
  // sources must outlive the exporter, and the registry must not snapshot
  // after a source dies: app::Replica owns them all and fixes that order.
  NodeExporter(Registry& reg, ExporterSources src);

  // Mirrors every source into the registry instruments. Called by the
  // sample hook; callable directly for a final exit snapshot.
  void refresh();

  // One-line delta summary since the previous delta_line() call.
  std::string delta_line(double now);

 private:
  ExporterSources src_;
  int n_ = 0;  // cluster size (per-peer series 0..n-1, self skipped)

  // node protocol progress
  Gauge* g_epoch_frontier_ = nullptr;     // delivered epochs (frontier)
  Gauge* g_dispersal_epoch_ = nullptr;    // current dispersal epoch
  Counter* c_delivered_blocks_ = nullptr;
  Counter* c_delivered_tx_ = nullptr;
  Counter* c_delivered_bytes_ = nullptr;
  Counter* c_delivered_linked_ = nullptr;
  Counter* c_proposed_ = nullptr;
  Counter* c_proposed_empty_ = nullptr;
  Counter* c_own_dropped_ = nullptr;
  Counter* c_bad_uploader_ = nullptr;
  Counter* c_vid_chunks_sent_ = nullptr;
  Counter* c_vid_chunks_recv_ = nullptr;
  Counter* c_return_chunks_sent_ = nullptr;
  Counter* c_return_chunks_recv_ = nullptr;
  Counter* c_ba_sent_ = nullptr;
  Counter* c_ba_recv_ = nullptr;
  Counter* c_ba_decisions_ = nullptr;
  Counter* c_recovered_epochs_ = nullptr;
  Counter* c_caught_up_epochs_ = nullptr;
  Counter* c_catch_up_rounds_ = nullptr;
  Counter* c_catch_up_msgs_ = nullptr;
  Gauge* g_input_queue_bytes_ = nullptr;
  Gauge* g_resident_epochs_ = nullptr;
  Gauge* g_retained_chunk_bytes_ = nullptr;

  // transport (per peer + shaper totals)
  struct PeerSeries {
    Gauge* connected = nullptr;
    Gauge* queued_bytes = nullptr;
    Counter* sent_bytes = nullptr;
    Counter* recv_bytes = nullptr;
    Counter* sent_frames = nullptr;
    Counter* recv_frames = nullptr;
    Counter* dropped_bytes = nullptr;
    Counter* reconnects = nullptr;
    Counter* shaper_waits = nullptr;
  };
  std::vector<PeerSeries> peers_;  // indexed by peer id; self left null
  Counter* c_shaper_granted_ = nullptr;
  Counter* c_shaper_lost_frames_ = nullptr;
  Counter* c_shaper_lost_bytes_ = nullptr;
  Counter* c_shaper_throttles_ = nullptr;

  // the home event loop (loop="home")
  Counter* c_loop_polls_ = nullptr;
  Counter* c_loop_drains_ = nullptr;
  Counter* c_loop_tasks_ = nullptr;
  Counter* c_loop_timers_ = nullptr;
  Gauge* g_loop_last_drain_ = nullptr;

  // buffer pool
  Counter* c_pool_fresh_ = nullptr;
  Counter* c_pool_hits_ = nullptr;
  Counter* c_pool_releases_ = nullptr;
  Counter* c_pool_huge_ = nullptr;

  // gateway / mempool
  Counter* c_gw_accepted_ = nullptr;
  Gauge* g_gw_active_ = nullptr;
  Counter* c_gw_submits_ = nullptr;
  Counter* c_gw_commits_ = nullptr;
  Counter* c_gw_clientless_ = nullptr;
  Counter* c_gw_slow_ = nullptr;
  Counter* c_gw_bad_ = nullptr;
  Counter* c_mp_admitted_ = nullptr;
  Counter* c_mp_admitted_bytes_ = nullptr;
  Counter* c_mp_drop_dup_ = nullptr;
  Counter* c_mp_drop_full_ = nullptr;
  Counter* c_mp_drop_oversize_ = nullptr;
  Counter* c_mp_committed_ = nullptr;
  Counter* c_mp_replays_ = nullptr;

  // ledger store
  Counter* c_st_records_ = nullptr;
  Counter* c_st_bytes_ = nullptr;
  Counter* c_st_drains_ = nullptr;
  Counter* c_st_fsyncs_ = nullptr;
  Counter* c_st_segments_ = nullptr;

  // delta_line state
  struct DeltaBase {
    double t = 0;
    std::uint64_t delivered_epochs = 0;
    std::uint64_t delivered_tx = 0;
    std::uint64_t submits = 0;
    std::uint64_t admitted = 0;
    std::uint64_t drops = 0;
    std::uint64_t sent_bytes = 0;
    std::uint64_t recv_bytes = 0;
    std::uint64_t fsyncs = 0;
  };
  DeltaBase base_;
  bool base_valid_ = false;
};

}  // namespace dl::obs
