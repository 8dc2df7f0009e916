// dlnoded — one DispersedLedger replica as a real process over TCP.
//
// Loads a cluster config (see net/cluster_config.hpp), runs one
// app::Replica (a DlNode on a net::TcpEnv, plus client ingress, store and
// observability; see app/replica.hpp), and streams the committed ledger to
// a file: one line per delivered block,
//
//   <delivered-at-epoch> <block-epoch> <proposer> <sha256 of block bytes>
//
// in delivery order — identical across correct replicas (the smoke test in
// scripts/run_local_cluster.sh diffs these files).
//
// Transactions come from one of two sources:
//
//   - The client ingress plane (default when the config gives this node a
//     client_port): a client::Gateway on the node's event loop accepts
//     dl_client/dl_loadgen connections, admits transactions through a
//     client::Mempool, and notifies submitters when their transactions
//     commit. See docs/DEPLOY.md.
//   - --selfdrive: the legacy synthetic generator (one transaction every
//     --tx-interval-ms), for self-contained smoke runs with no external
//     load source.
//
// The whole replica, coding and storage included, runs on one thread.
//
// Lifecycle: with --target-epochs E the process exits 0 once it delivered E
// epochs, after a --linger-seconds grace during which it keeps serving
// retrieval chunks to stragglers; E = 0 means run until signalled.
// SIGINT/SIGTERM trigger a graceful shutdown — close client connections
// with a final Goodbye frame, flush the ledger stream, exit 0 — instead of
// dying mid-write. --max-seconds is a hard watchdog that exits 1.
//
// Exit codes: 0 done, 1 watchdog, 2 bad flags/config or unopenable store or
// ledger, 3 startup failure such as a bind collision (the launcher retries
// those on a fresh port range), 44 adversary crash.
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/signalfd.h>
#include <unistd.h>

#include <charconv>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <type_traits>

#include "app/replica.hpp"
#include "crypto/sha256.hpp"

namespace {

// The replica's own options come straight from their flags; the rest are
// process concerns.
dl::app::ReplicaOptions replica_defaults() {
  dl::app::ReplicaOptions o;
  o.id = -1;  // required
  o.node.propose_delay = 0.020;
  o.node.propose_size = 32'768;
  o.node.max_block_bytes = 262'144;
  return o;
}

struct Flags {
  std::string config;
  dl::app::ReplicaOptions replica = replica_defaults();
  std::uint64_t target_epochs = 100;  // 0 = run until signalled
  bool selfdrive = false;
  std::size_t tx_bytes = 256;
  double tx_interval = 0.005;     // seconds
  std::string ledger_path;
  double catch_up_interval = -1;  // seconds; <0 = auto (on iff --store)
  double linger = 3.0;
  double max_seconds = 120.0;
  bool quiet = false;
  double stats_interval = 0;  // seconds; 0 = no periodic delta line
  std::string flight_path;    // chrome-trace dump at exit; empty = off
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --config FILE --id N [options]\n"
      "  --config FILE          cluster TOML (required)\n"
      "  --id N                 this replica's node id (required)\n"
      "  --target-epochs E      deliver E epochs, then exit (default 100; 0 = until signal)\n"
      "  --selfdrive            drive a synthetic workload (no client plane needed)\n"
      "  --tx-bytes B           synthetic transaction payload size (default 256)\n"
      "  --tx-interval-ms M     submit one synthetic tx every M ms (default 5)\n"
      "  --propose-delay-ms M   proposal pacing delay (default 20)\n"
      "  --propose-size B       proposal pacing size trigger (default 32768)\n"
      "  --max-block-bytes B    block size cap (default 262144)\n"
      "  --ledger FILE          write the committed-ledger log here\n"
      "  --store DIR            durable ledger store: persist committed blocks\n"
      "                         under DIR and recover the prefix at boot\n"
      "  --fsync P              store durability: never | batch | always\n"
      "                         (default batch: group-commit fsync)\n"
      "  --catchup-ms M         probe peers for missed epochs every M ms when\n"
      "                         delivery stalls (0 disables; default: 250 with\n"
      "                         --store, off without)\n"
      "  --adversary MODE       run as a misbehaving replica:\n"
      "                         crash@E (exit abruptly once epoch E commits),\n"
      "                         mute (connected, all Data frames dropped),\n"
      "                         slowdrip[@RATE] (egress crawls at RATE B/s, default 4096),\n"
      "                         equivocate (inconsistent blocks), v-liar (inflated V)\n"
      "  --admin-port P         serve GET /metrics /statusz /healthz /tracez on\n"
      "                         127.0.0.1:P (0 = ephemeral, logged at startup)\n"
      "  --stats-interval S     log a one-line activity delta every S seconds\n"
      "  --flight-recorder FILE dump the protocol flight recorder as\n"
      "                         chrome-trace JSON to FILE at exit\n"
      "  --linger-seconds S     keep serving after target before exit (default 3)\n"
      "  --max-seconds S        watchdog: exit 1 if not done by then (default 120)\n"
      "  --quiet                suppress progress output\n"
      "numbers are non-negative decimals with no sign or trailing text\n",
      argv0);
}

// A whole-token, non-negative decimal number: no sign, no leading blank,
// no trailing garbage, in range; floating-point values must be finite.
template <typename T>
bool parse_number(const char* s, T& out) {
  const char* end = s + std::strlen(s);
  T v{};
  const auto [p, ec] = std::from_chars(s, end, v);
  if (ec != std::errc() || p != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) return false;
  }
  if constexpr (std::is_signed_v<T>) {
    if (v < 0) return false;
  }
  out = v;
  return true;
}

using Setter = std::function<bool(const char*)>;
Setter text(std::string& out) {
  return [&out](const char* v) {
    out = v;
    return true;
  };
}
template <typename T>
Setter number(T& out) {
  return [&out](const char* v) { return parse_number(v, out); };
}
// A millisecond flag stored in seconds.
Setter millis(double& seconds) {
  return [&seconds](const char* v) {
    double ms = 0;
    if (!parse_number(v, ms)) return false;
    seconds = ms / 1000.0;
    return true;
  };
}
// A flag read by `parse`, which returns an empty optional on a bad value.
template <typename T, typename Parse>
Setter parsed(T& out, Parse parse) {
  return [&out, parse](const char* v) {
    auto value = parse(v);
    if (value.has_value()) out = *value;
    return value.has_value();
  };
}

bool parse_flags(int argc, char** argv, Flags& f) {
  dl::app::ReplicaOptions& r = f.replica;
  const std::map<std::string, Setter> valued = {
      {"--config", text(f.config)},
      {"--id", number(r.id)},
      {"--target-epochs", number(f.target_epochs)},
      {"--tx-bytes", number(f.tx_bytes)},
      {"--tx-interval-ms", millis(f.tx_interval)},
      {"--propose-delay-ms", millis(r.node.propose_delay)},
      {"--propose-size", number(r.node.propose_size)},
      {"--max-block-bytes", number(r.node.max_block_bytes)},
      {"--adversary", parsed(r.adversary, dl::adversary::parse_real_adversary)},
      {"--admin-port", number(r.admin_port)},
      {"--stats-interval", number(f.stats_interval)},
      {"--flight-recorder", text(f.flight_path)},
      {"--ledger", text(f.ledger_path)},
      {"--store", text(r.store_dir)},
      {"--fsync", parsed(r.fsync, dl::storage::parse_fsync_policy)},
      {"--catchup-ms", millis(f.catch_up_interval)},
      {"--linger-seconds", number(f.linger)},
      {"--max-seconds", number(f.max_seconds)},
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    bool ok = true;
    if (a == "--selfdrive") {
      f.selfdrive = true;
    } else if (a == "--quiet") {
      f.quiet = true;
    } else if (auto it = valued.find(a); it != valued.end() && i + 1 < argc) {
      ok = it->second(argv[++i]);
    } else {
      ok = false;
    }
    if (!ok) {
      usage(argv[0]);
      return false;
    }
  }
  if (f.config.empty() || r.id < 0 || r.admin_port > 65535) {
    usage(argv[0]);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dl;

  Flags flags;
  if (!parse_flags(argc, argv, flags)) return 2;

  std::string err;
  auto cluster = net::ClusterConfig::load(flags.config, &err);
  if (!cluster.has_value()) {
    std::fprintf(stderr, "dlnoded: bad config: %s\n", err.c_str());
    return 2;
  }
  app::ReplicaOptions& ropt = flags.replica;
  const int id = ropt.id;
  if (id >= cluster->n) {
    std::fprintf(stderr, "dlnoded: --id %d out of range (n=%d)\n", id,
                 cluster->n);
    return 2;
  }
  // A VID chunk envelope carries at most one block plus small proof/header
  // overhead; anything the transport's frame limit forbids would tear every
  // connection down on each send, so reject the configuration up front.
  if (ropt.node.max_block_bytes + 65536 > net::kMaxFrameBytes) {
    std::fprintf(stderr,
                 "dlnoded: --max-block-bytes %zu too large for the %zu-byte "
                 "frame limit\n",
                 ropt.node.max_block_bytes, net::kMaxFrameBytes);
    return 2;
  }
  // Catch-up defaults on only when there is a store to serve it from and to
  // persist what it pulls.
  if (flags.catch_up_interval >= 0) {
    ropt.node.catch_up_interval = flags.catch_up_interval;
  } else if (!ropt.store_dir.empty()) {
    ropt.node.catch_up_interval = 0.25;
  }
  // No client_port in the config: no client plane.
  if (cluster->nodes[static_cast<std::size_t>(id)].client_port == 0) {
    ropt.client_plane = false;
  }
  // The exporter + histograms only when some consumer exists; the flight
  // recorder whenever anyone could ask for it (/tracez or the exit dump).
  ropt.metrics = flags.stats_interval > 0;
  ropt.flight_recorder = !flags.flight_path.empty();

  // Block SIGINT/SIGTERM/SIGUSR1 so that a signal can only ever be consumed
  // through the signalfd below, never by the default disposition that would
  // kill the process mid-ledger-line. SIGUSR1 asks for a metrics snapshot,
  // not shutdown.
  sigset_t sigmask;
  sigemptyset(&sigmask);
  sigaddset(&sigmask, SIGINT);
  sigaddset(&sigmask, SIGTERM);
  sigaddset(&sigmask, SIGUSR1);
  sigprocmask(SIG_BLOCK, &sigmask, nullptr);

  net::EventLoop loop;
  std::optional<app::Replica> replica;
  try {
    replica.emplace(loop, *cluster, ropt);
  } catch (const app::StoreOpenError& e) {
    std::fprintf(stderr, "dlnoded: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    // Distinct exit code: the launcher retries bind collisions on a fresh
    // port range (see scripts/run_local_cluster.sh).
    std::fprintf(stderr, "dlnoded[%d]: startup failed: %s\n", id, e.what());
    return 3;
  }
  core::DlNode& node = replica->node();
  net::TcpEnv& env = replica->env();
  storage::LedgerStore* store = replica->store();
  client::Gateway* gateway = replica->gateway();
  if (!flags.quiet && store != nullptr &&
      store->recovered().delivered_epochs > 0) {
    const auto& rec = store->recovered();
    std::fprintf(stderr,
                 "dlnoded[%d]: recovered %" PRIu64 " epochs / %" PRIu64
                 " blocks from %s (truncated %" PRIu64 " bytes)\n",
                 id, rec.delivered_epochs, rec.committed_blocks,
                 ropt.store_dir.c_str(), rec.truncated_bytes);
  }
  if (!flags.quiet && replica->admin() != nullptr) {
    std::fprintf(stderr, "dlnoded[%d]: admin endpoint on 127.0.0.1:%u\n",
                 id, replica->admin()->bound_port());
  }

  // The text ledger is a derived view of the store: with a store the
  // recovered prefix is rewritten at start() and live deliveries append
  // after it; without one, APPEND — truncating would destroy the pre-crash
  // prefix on every restart, exactly the history a restart must keep.
  std::FILE* ledger = nullptr;
  if (!flags.ledger_path.empty()) {
    ledger =
        std::fopen(flags.ledger_path.c_str(), store != nullptr ? "w" : "a");
    if (ledger == nullptr) {
      std::fprintf(stderr, "dlnoded: cannot open %s\n", flags.ledger_path.c_str());
      return 2;
    }
    // Line-buffered: a kill loses at most the line being formatted, never
    // leaves half a line in a stdio buffer for the smoke diff to trip on.
    std::setvbuf(ledger, nullptr, _IOLBF, 1u << 16);
  }

  bool done = false;
  bool timed_out = false;
  bool signalled = false;

  auto finish = [&](const char* why) {
    if (done) return;
    done = true;
    if (!flags.quiet) {
      std::fprintf(stderr,
                   "dlnoded[%d]: %s at t=%.2fs (epochs=%" PRIu64
                   "); lingering %.1fs\n",
                   id, why, env.now(), node.stats().delivered_epochs,
                   flags.linger);
    }
    // Keep answering retrieval requests while slower replicas catch up.
    env.after(flags.linger, [&loop] { loop.stop(); });
  };

  // One line per delivered block: the SHA-256 of its bytes as retrieved and
  // stored, so the live line and the store-replay line agree.
  auto ledger_line = [&](std::uint64_t at_epoch, std::uint64_t block_epoch,
                         std::uint32_t proposer, const Hash& digest) {
    std::fprintf(ledger, "%" PRIu64 " %" PRIu64 " %" PRIu32 " %s\n", at_epoch,
                 block_epoch, proposer, digest.hex().c_str());
  };
  // Runs before the replica notifies its clients, so the ledger line is out
  // first and crash@E dies without notifying anyone.
  replica->set_delivery_hook([&](std::uint64_t at_epoch, core::BlockKey key,
                                 const core::BlockView&, double) {
    if (ledger != nullptr) {
      ledger_line(at_epoch, key.epoch,
                  static_cast<std::uint32_t>(key.proposer),
                  node.delivered_block_digest());
    }
    if (ropt.adversary.kind == adversary::RealAdversary::Kind::CrashAtEpoch &&
        at_epoch >= ropt.adversary.crash_epoch) {
      // Abrupt death, not graceful shutdown: no linger, no Goodbye frames,
      // no store sync — exactly what crash recovery must tolerate. The
      // ledger stream is line-buffered, so completed lines are already out.
      std::fprintf(stderr, "dlnoded[%d]: adversary crash at epoch %" PRIu64 "\n",
                   id, at_epoch);
      std::_Exit(44);
    }
    if (flags.target_epochs != 0 &&
        node.stats().delivered_epochs >= flags.target_epochs) {
      finish("target epochs delivered");
    }
  });

  // Synthetic self-driven workload (legacy smoke mode).
  std::uint64_t tx_seq = 0;
  std::function<void()> submit_tick = [&] {
    if (done) return;
    node.submit(random_bytes(flags.tx_bytes,
                             (static_cast<std::uint64_t>(id) << 40) | tx_seq++));
    env.after(flags.tx_interval, submit_tick);
  };
  if (flags.selfdrive) env.after(flags.tx_interval, submit_tick);

  // Graceful SIGINT/SIGTERM: flush the ledger, say Goodbye to clients, exit
  // cleanly — never die mid-ledger-line. The signals were blocked above;
  // they arrive on a signalfd multiplexed on the same epoll loop, so no
  // async-signal-safety games.
  const int sfd = signalfd(-1, &sigmask, SFD_NONBLOCK | SFD_CLOEXEC);
  if (sfd < 0) {
    // No graceful path — restore default delivery so the process at least
    // stays killable instead of silently swallowing blocked signals.
    sigprocmask(SIG_UNBLOCK, &sigmask, nullptr);
  } else {
    loop.add_fd(sfd, EPOLLIN, [&](std::uint32_t) {
      bool shutdown_sig = false;
      signalfd_siginfo si;
      while (read(sfd, &si, sizeof si) == sizeof si) {
        if (si.ssi_signo == SIGUSR1) {
          // Operator asked for a snapshot: dump the full exposition to
          // stderr and keep running. We are on the home loop, so the
          // registry sample hooks may read home-loop-affine state.
          std::fprintf(stderr, "%s", replica->registry().prometheus_text().c_str());
        } else {
          shutdown_sig = true;
        }
      }
      if (!shutdown_sig || signalled) return;
      signalled = true;
      if (!flags.quiet) {
        std::fprintf(stderr, "dlnoded[%d]: signal: graceful shutdown\n", id);
      }
      if (gateway != nullptr) gateway->shutdown();
      if (ledger != nullptr) std::fflush(ledger);
      loop.stop();
    });
  }

  // Periodic one-line activity delta (epochs, tx/s, submit/admit rates,
  // wire byte rates, fsync rate) — cheap enough to leave on in production.
  obs::NodeExporter* exporter = replica->exporter();
  std::function<void()> stats_tick = [&] {
    std::fprintf(stderr, "dlnoded[%d]: %s\n", id,
                 exporter->delta_line(env.now()).c_str());
    env.after(flags.stats_interval, stats_tick);
  };
  if (flags.stats_interval > 0) {
    // Seed the delta base now so the first printed line covers one interval.
    exporter->delta_line(env.now());
    env.after(flags.stats_interval, stats_tick);
  }

  // Watchdog.
  env.after(flags.max_seconds, [&] {
    if (!done && !signalled) {
      timed_out = true;
      std::fprintf(stderr,
                   "dlnoded[%d]: TIMEOUT after %.0fs: delivered_epochs=%" PRIu64
                   " (target %" PRIu64 "), connected_peers=%d\n",
                   id, flags.max_seconds, node.stats().delivered_epochs,
                   flags.target_epochs, env.connected_peers());
      loop.stop();
    }
  });

  // Replay the recovered prefix into the text ledger's derived view.
  replica->start([&](const storage::BlockRecord& r, const core::BlockView&) {
    if (ledger != nullptr) {
      ledger_line(r.at_epoch, r.block_epoch, r.proposer, sha256(r.content));
    }
  });
  loop.run();

  // Goodbye to clients and durable store before the exit summary.
  replica->stop();
  if (sfd >= 0) {
    loop.del_fd(sfd);
    close(sfd);
  }
  if (ledger != nullptr) std::fclose(ledger);
  obs::FlightRecorder* flight = replica->flight_recorder();
  if (flight != nullptr && !flags.flight_path.empty()) {
    if (!flight->dump_to_file(flags.flight_path, id)) {
      std::fprintf(stderr, "dlnoded[%d]: cannot write flight recorder to %s\n",
                   id, flags.flight_path.c_str());
    } else if (!flags.quiet) {
      std::fprintf(stderr,
                   "dlnoded[%d]: flight recorder: %" PRIu64 " events (%" PRIu64
                   " dropped) -> %s\n",
                   id, flight->total_recorded(), flight->dropped(),
                   flags.flight_path.c_str());
    }
  }
  const auto& st = node.stats();
  if (!flags.quiet) {
    std::fprintf(stderr,
                 "dlnoded[%d]: exit: epochs=%" PRIu64 " blocks=%" PRIu64
                 " payload_bytes=%" PRIu64 " fingerprint=%s\n",
                 id, st.delivered_epochs, st.delivered_blocks,
                 st.delivered_payload_bytes,
                 node.delivery_fingerprint().hex().substr(0, 16).c_str());
    if (store != nullptr) {
      const auto ss = store->stats();
      std::fprintf(stderr,
                   "dlnoded[%d]: store: fsync=%s recovered=%" PRIu64
                   " caught_up=%" PRIu64 " records=%" PRIu64
                   " bytes=%" PRIu64 " drains=%" PRIu64 " fsyncs=%" PRIu64
                   " segments=%zu\n",
                   id, storage::to_string(store->fsync_policy()),
                   st.recovered_epochs, st.caught_up_epochs,
                   ss.appended_records, ss.appended_bytes, ss.drains,
                   ss.fsyncs, store->segment_count());
    }
    if (gateway != nullptr) {
      const client::Gateway::Stats& gs = gateway->stats();
      const client::MempoolStats& ms = gateway->mempool().stats();
      std::fprintf(stderr,
                   "dlnoded[%d]: ingress: submits=%" PRIu64
                   " admitted=%" PRIu64 " committed=%" PRIu64
                   " dup=%" PRIu64 " full=%" PRIu64 " notified=%" PRIu64 "\n",
                   id, gs.submits, ms.admitted, ms.committed,
                   ms.dropped_duplicate, ms.dropped_full,
                   gs.commits_notified);
    }
    // High-water resident set over the whole run (Linux reports kB);
    // scripts/run_local_cluster.sh bounds it in loadgen mode. Minor faults
    // count pages the allocator handed back to the kernel and touched again.
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::fprintf(stderr, "dlnoded[%d]: memory: peak_rss_kb=%ld minflt=%ld\n",
                 id, ru.ru_maxrss, ru.ru_minflt);
  }
  return timed_out ? 1 : 0;
}
