// DlNode — a full DispersedLedger replica (Fig. 17 of the paper), runnable
// on any runtime::Env backend: the deterministic simulator (runtime::SimEnv)
// or real TCP sockets (net::TcpEnv, see dlnoded).
//
// One node plays every role: AVID-M server for all N VID instances of every
// epoch, BA participant in all N instances, disperser of its own proposals,
// and retrieval client for committed blocks. The configuration flags also
// express the paper's baselines and variants:
//
//   DispersedLedger  vote_on_dispersal=1  linking=1  coupled=0  repropose=0
//   DL-Coupled       vote_on_dispersal=1  linking=1  coupled=1  repropose=0
//   HoneyBadger      vote_on_dispersal=0  linking=0  coupled=-  repropose=1
//   HB-Link          vote_on_dispersal=0  linking=1  coupled=-  repropose=0
//
// vote_on_dispersal=0 makes the node download a block before voting for it
// (VID + immediate retrieval == the reliable-broadcast construction
// HoneyBadger uses) and advance epochs only after full delivery — exactly
// the coupling DispersedLedger removes.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "ba/common_coin.hpp"
#include "common/prefix_set.hpp"
#include "dl/block.hpp"
#include "dl/catchup.hpp"
#include "dl/epoch.hpp"
#include "dl/retrieval.hpp"
#include "runtime/env.hpp"

namespace dl::storage {
class LedgerStore;
}  // namespace dl::storage

namespace dl::obs {
class FlightRecorder;
}  // namespace dl::obs

namespace dl::core {

struct NodeConfig {
  int n = 4;
  int f = 1;
  int self = 0;
  std::uint64_t coin_seed = 7;

  // Proposal pacing (Nagle; §5): propose when `propose_delay` elapsed since
  // the last proposal OR `propose_size` bytes are queued — whichever first —
  // and the previous epoch allows it.
  double propose_delay = 0.100;       // seconds
  std::size_t propose_size = 150'000; // bytes
  std::size_t max_block_bytes = 2'000'000;

  // Protocol shape (see table above).
  bool vote_on_dispersal = true;  // false => HoneyBadger-style RBC voting
  bool inter_node_linking = true;
  bool coupled_proposals = false; // DL-Coupled: empty block while behind
  bool repropose_dropped = false; // plain HB: resubmit dropped blocks' txs
  // Stop proposing when delivery lags dispersal by more than P epochs
  // (§4.5 "constantly-slow nodes"; 0 disables).
  int fall_behind_stop = 0;

  // Retrieval optimization (§6.3): broadcast a cancel once decoded.
  bool cancel_on_decode = true;

  // Catch-up probe period in seconds: while delivery is stalled the node
  // periodically asks peers for its missing committed epochs (served from
  // their LedgerStore as coded chunks). 0 disables the probe — the default,
  // so simulator benches and nodes without a store are untouched.
  double catch_up_interval = 0;

  // Infinite-backlog workloads: when > 0 the input queue is bottomless and
  // blocks are filled at proposal time with synthetic transactions of this
  // payload size (timestamps = proposal time; throughput-only experiments).
  std::size_t backlog_tx_bytes = 0;

  // Byzantine behaviours, for failure-injection tests and adversary benches.
  // The node otherwise follows the protocol (a useful worst case: it keeps
  // liveness while attacking safety-relevant paths).
  bool byz_inconsistent_blocks = false;  // disperse non-codeword chunk sets
  bool byz_lie_v_array = false;          // inflate the reported V array

  static NodeConfig dispersed_ledger(int n, int f, int self);
  static NodeConfig dl_coupled(int n, int f, int self);
  static NodeConfig honey_badger(int n, int f, int self);
  static NodeConfig hb_link(int n, int f, int self);
};

struct NodeStats {
  std::uint64_t delivered_payload_bytes = 0;  // confirmed tx bytes
  std::uint64_t delivered_tx_count = 0;
  std::uint64_t delivered_blocks = 0;
  std::uint64_t delivered_linked_blocks = 0;  // via inter-node linking
  std::uint64_t delivered_epochs = 0;
  std::uint64_t proposed_blocks = 0;
  std::uint64_t proposed_empty_blocks = 0;    // DL-Coupled back-pressure
  std::uint64_t own_blocks_dropped = 0;       // proposed but not BA-committed
  std::uint64_t reproposed_tx = 0;
  std::uint64_t bad_uploader_blocks = 0;
  std::uint64_t current_dispersal_epoch = 0;
  std::size_t input_queue_bytes = 0;
  // Crash recovery / catch-up.
  std::uint64_t recovered_epochs = 0;     // replayed from the local store
  std::uint64_t caught_up_epochs = 0;     // installed via coded catch-up
  std::uint64_t caught_up_blocks = 0;
  std::uint64_t catch_up_rounds = 0;
  // Wire-level protocol counters (tallied centrally in flush()/on_receive();
  // a broadcast counts once per destination node).
  std::uint64_t vid_chunks_sent = 0;      // VidChunk / FpChunk out
  std::uint64_t vid_chunks_received = 0;
  std::uint64_t return_chunks_sent = 0;   // retrieval VidReturnChunk out
  std::uint64_t return_chunks_received = 0;
  std::uint64_t ba_msgs_sent = 0;
  std::uint64_t ba_msgs_received = 0;
  std::uint64_t ba_decisions = 0;         // BA instances decided locally
  std::uint64_t catch_up_msgs_received = 0;
  // Memory: DLEpoch states still held, and the chunk bytes this node's
  // AVID-M servers keep for peers that have not fetched them. Both stay
  // flat while every peer retrieves; a silent peer pins chunks.
  std::uint64_t resident_epochs = 0;
  std::uint64_t retained_chunk_bytes = 0;
};

// Pipeline checkpoints of one own-proposal, in home-loop seconds (0 = not
// reached). The gateway turns consecutive differences into the per-stage
// latency rows of BENCH_loadgen: ingress (admit→proposed), disperse
// (proposed→vid_done), ba (vid_done→ba_done), retrieve (ba_done→delivered),
// notify (delivered→commit frame flushed).
struct OwnBlockStages {
  double proposed = 0;   // propose_now() built and dispersed the block
  double vid_done = 0;   // our own VID instance completed
  double ba_done = 0;    // every BA of the proposal epoch output
  double delivered = 0;  // block executed/delivered
};

class DlNode : public runtime::Receiver {
 public:
  // One node per Env. The caller injects the node into its backend at start
  // time (SimEnv::attach / TcpEnv::start); the protocol logic below cannot
  // tell the backends apart. Every method of this class — including the
  // Receiver callbacks and submit() — is home-loop-affine.
  DlNode(NodeConfig cfg, runtime::Env& env);

  // --- client interface -------------------------------------------------
  // Submits a transaction to this node (consortium model: clients talk to
  // their organization's node).
  void submit(Bytes payload);

  // Invoked for every delivered (executed) block, in delivery order —
  // identical across correct nodes. `block` views the delivered bytes and
  // is valid during the call only.
  using DeliveryFn =
      std::function<void(std::uint64_t epoch_delivered_in, BlockKey key,
                         const BlockView& block, double now)>;
  void set_delivery_callback(DeliveryFn fn) { on_deliver_ = std::move(fn); }

  const NodeStats& stats() const { return stats_; }
  const NodeConfig& config() const { return cfg_; }

  // Optional protocol flight recorder: coarse milestones (propose, chunk
  // rx, BA decide, deliver, catch-up) stamped with env_.now(), so the same
  // hooks trace identically on the simulator (virtual time) and the real
  // runtime. Null (the default) records nothing. Set during startup wiring.
  void set_flight_recorder(obs::FlightRecorder* fr) { flight_ = fr; }
  // Live backlog of submitted-but-not-yet-proposed transactions (wire
  // bytes). The client gateway uses this as its pump watermark so the
  // mempool, not this unbounded queue, absorbs ingress bursts.
  std::size_t input_queue_bytes() const { return input_queue_bytes_; }
  // Stage checkpoints of the own-block proposed in epoch `e`; nullptr once
  // pruned (after delivery) or if nothing was proposed there. Valid during
  // the delivery callback for the block being delivered. Home-loop only.
  const OwnBlockStages* own_block_stages(std::uint64_t e) const {
    auto it = own_stages_.find(e);
    return it == own_stages_.end() ? nullptr : &it->second;
  }
  // Delivered-prefix fingerprint: hash chain over (epoch, proposer, bytes).
  // Two correct nodes agree on every prefix (tests compare at equal counts).
  Hash delivery_fingerprint() const { return fingerprint_; }
  // SHA-256 of the block being delivered, over its bytes as retrieved (the
  // bytes the store keeps: vid::kBadUploader for an inconsistent
  // dispersal). The fingerprint chain already needs it, so a delivery
  // consumer reads it here instead of hashing the block again. Valid
  // during the delivery callback. Home-loop only.
  const Hash& delivered_block_digest() const { return delivered_digest_; }
  std::uint64_t next_epoch_to_deliver() const { return deliver_next_; }

  // Durable storage. Call before start(): replays the store's committed
  // prefix (delivered set, fingerprint chain, delivery/propose frontiers)
  // so the node resumes BA from its first uncommitted epoch, and hooks
  // delivery so every block/epoch is persisted from here on. The store must
  // outlive the node. Recovery does NOT refire the delivery callback —
  // consumers that need the replayed prefix read the store directly
  // (app::Replica::start walks it for them).
  void attach_store(storage::LedgerStore* store);
  storage::LedgerStore* store() const { return store_; }

  // --- runtime::Receiver --------------------------------------------------
  void start() override;
  void on_receive(int from, ByteView bytes) override;
  void on_receive_local(int self, const Envelope& env) override;

 private:
  DLEpoch& epoch_state(std::uint64_t e);
  // Frees a delivered epoch once drained(); later VID/BA messages for it
  // are dropped.
  void maybe_retire(std::uint64_t e);
  void erase_epoch(std::map<std::uint64_t, DLEpoch>::iterator it);

  // Message plumbing: assign envelope ids, map kinds to traffic classes.
  void flush(Outbox&& out, std::uint64_t epoch, std::uint32_t instance);
  runtime::SendOpts classify(const Envelope& env, int to) const;
  std::uint64_t retrieval_tag(std::uint64_t epoch, std::uint32_t instance,
                              int client) const;

  // Dispersal pipeline.
  void maybe_propose();
  void propose_now();
  bool can_start_next_epoch() const;
  Block build_block();

  // Protocol reactions. on_envelope dispatches every received message,
  // from a peer or from this node itself.
  void on_envelope(int from, const EnvelopeView& env);
  void handle_vid_message(int from, const EnvelopeView& env);
  void handle_ba_message(int from, const EnvelopeView& env);
  void handle_return_chunk(int from, const EnvelopeView& env);
  void handle_cancel(int from, const EnvelopeView& env);
  void after_vid_activity(std::uint64_t e, int instance);
  void after_ba_activity(std::uint64_t e);
  void note_vid_complete(std::uint64_t e, int instance);

  // Voting rule: DL inputs 1 on VID completion; HB on block download.
  void maybe_vote(std::uint64_t e, int instance);

  // Retrieval + delivery.
  void start_retrieval(BlockKey key);
  void on_block_available(BlockKey key);
  void try_deliver();
  void deliver_block(std::uint64_t at_epoch, BlockKey key);

  // Durability + catch-up.
  void recover_from_store();
  void note_activity(std::uint64_t epoch);  // persists the vote/propose floor
  void request_store_drain();
  void handle_catch_up_request(int from, const EnvelopeView& env);
  void handle_catch_up_chunk(int from, const EnvelopeView& env);
  void handle_catch_up_done(int from, const EnvelopeView& env);
  void catch_up_tick();
  void start_catch_up_round();
  void try_install_catch_up();
  void install_catch_up_block(std::uint64_t at_epoch, BlockKey key,
                              std::shared_ptr<const Bytes> content);
  // What deliver_block and install_catch_up_block share: stats, the
  // fingerprint chain, the store record and the delivery callback.
  void deliver_content(std::uint64_t at_epoch, BlockKey key,
                       std::shared_ptr<const Bytes> content, bool bad);

  NodeConfig cfg_;
  runtime::Env& env_;
  ba::CommonCoin coin_;
  vid::Params vid_params_;

  std::map<std::uint64_t, DLEpoch> epochs_;
  PrefixSet retired_;  // epochs freed by maybe_retire()
  RetrievalManager retrievals_;

  // Input queue and its wire-byte total.
  std::deque<Transaction> input_queue_;
  std::size_t input_queue_bytes_ = 0;

  // Dispersal pipeline state.
  std::uint64_t propose_epoch_ = 0;  // next epoch to propose into
  double last_propose_time_ = -1e18;
  bool propose_timer_armed_ = false;
  std::map<std::uint64_t, Block> own_blocks_;  // until delivered
  std::map<std::uint64_t, OwnBlockStages> own_stages_;  // until delivered

  // VID completion tracking for the V array (§4.3): V[j] = prefix(j).
  BlockKeySet completed_;

  // Delivery state.
  std::uint64_t deliver_next_ = 0;
  BlockKeySet delivered_;
  std::set<BlockKey> linked_pending_;           // queued by linking
  std::vector<std::uint64_t> linked_scanned_;   // per-proposer scan frontier

  DeliveryFn on_deliver_;
  NodeStats stats_;
  obs::FlightRecorder* flight_ = nullptr;
  Hash fingerprint_{};
  Hash delivered_digest_{};  // see delivered_block_digest()

  // --- durability + catch-up state --------------------------------------
  storage::LedgerStore* store_ = nullptr;
  // After a restart the node must not vote in epochs it may already have
  // voted in pre-crash (crash must not become equivocation), and must treat
  // epochs below its restored pipeline as agreement-closed (their DLEpoch
  // state is gone, so all_ba_output() could never turn true again).
  std::uint64_t vote_floor_ = 0;
  std::uint64_t closed_floor_ = 0;

  // One catch-up round at a time. Slots are keyed by delivery position
  // within an epoch; every per-peer map doubles as the f+1 agreement vote.
  struct CatchUpSlot {
    std::map<int, std::pair<std::uint64_t, std::uint32_t>> key_claims;
    bool key_confirmed = false;
    std::uint64_t block_epoch = 0;
    std::uint32_t proposer = 0;
    std::unique_ptr<vid::AvidMRetriever> retriever;
    bool have = false;
    std::shared_ptr<const Bytes> content;
  };
  struct CatchUpEpoch {
    std::map<int, std::uint32_t> count_claims;
    bool count_confirmed = false;
    std::uint32_t count = 0;
    std::map<std::uint32_t, CatchUpSlot> slots;
  };
  struct CatchUpRound {
    bool active = false;
    std::uint64_t from = 0;
    std::map<int, std::uint64_t> frontier_claims;
    std::uint64_t target = 0;  // (f+1)-th largest claimed frontier
    std::map<std::uint64_t, CatchUpEpoch> epochs;
  };
  CatchUpRound round_;
  std::uint64_t last_probe_deliver_ = 0;  // progress check between ticks
  bool catch_up_timer_armed_ = false;
};

}  // namespace dl::core
