"""A loopback dlnoded cluster and what the benchmark reads from outside it:
/proc CPU and memory counters, per-thread CPU, and /metrics scrapes."""

import os
import shutil
import signal
import socket
import subprocess
import time
import urllib.request

CLK_TCK = os.sysconf("SC_CLK_TCK")


class StartupFailed(Exception):
    pass


def free_ports(k):
    socks = []
    try:
        for _ in range(k):
            s = socket.socket()
            s.bind(("127.0.0.1", 0))
            socks.append(s)
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


def _stat_fields(path):
    """Fields after the command name of a /proc/.../stat file; index 11 and
    12 are utime and stime in clock ticks."""
    with open(path) as f:
        return f.read().rsplit(")", 1)[1].split()


def _status_value(path, key):
    with open(path) as f:
        for line in f:
            if line.startswith(key + ":"):
                return float(line.split()[1])
    return 0.0


class Cluster:
    """n replicas of dlnoded on 127.0.0.1 with fresh ports, ledgers and
    stores under `workdir`. `links` is a list of [[link]] TOML bodies."""

    def __init__(self, dlnoded, workdir, n=4, store=False, links=(), traced=False):
        self.dlnoded, self.workdir, self.n = dlnoded, workdir, n
        self.store, self.links, self.traced = store, list(links), traced
        self.procs = []
        os.makedirs(workdir, exist_ok=True)
        ports = free_ports(3 * n)
        self.peer_ports = ports[:n]
        self.client_ports = ports[n:2 * n]
        self.admin_ports = ports[2 * n:]
        self.config = os.path.join(workdir, "cluster.toml")
        with open(self.config, "w") as f:
            f.write("[cluster]\nn = %d\nf = %d\n" % (n, (n - 1) // 3))
            for i in range(n):
                f.write('\n[[node]]\nid = %d\nhost = "127.0.0.1"\nport = %d\n'
                        "client_port = %d\n" % (i, self.peer_ports[i], self.client_ports[i]))
            for body in self.links:
                f.write("\n[[link]]\n" + body)

    def ledger(self, i):
        return os.path.join(self.workdir, "ledger-%d.txt" % i)

    def _wait_listening(self, i, timeout=10):
        """Waits until replica i listens on its peer port. Replica j dials
        every lower id, so starting them in order, each once its
        predecessor listens, means no dial fails and no redial backoff
        lands in the set-up time."""
        want = ":%04X" % self.peer_ports[i]
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            self.check_alive()
            with open("/proc/net/tcp") as f:
                for line in f.readlines()[1:]:
                    fields = line.split()
                    if fields[1].endswith(want) and fields[3] == "0A":  # LISTEN
                        return
            time.sleep(0.001)
        raise StartupFailed("replica %d never listened on port %d" % (i, self.peer_ports[i]))

    def start(self):
        for i in range(self.n):
            if i > 0:
                self._wait_listening(i - 1)
            cmd = [self.dlnoded, "--config", self.config, "--id", str(i),
                   "--target-epochs", "0", "--max-seconds", "3600",
                   "--ledger", self.ledger(i)]
            if self.store:
                cmd += ["--store", os.path.join(self.workdir, "store-%d" % i),
                        "--fsync", "batch"]
            if self.traced:
                cmd += ["--admin-port", str(self.admin_ports[i])]
            log = open(os.path.join(self.workdir, "replica-%d.log" % i), "w")
            self.procs.append(subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                               stderr=log, stdin=subprocess.DEVNULL))
            log.close()

    def check_alive(self):
        for i, p in enumerate(self.procs):
            code = p.poll()
            if code is not None:
                raise StartupFailed("replica %d exited with %d (see %s)" % (
                    i, code, os.path.join(self.workdir, "replica-%d.log" % i)))

    def stop(self, timeout=20):
        """SIGTERM every replica and wait; returns their exit codes."""
        for p in self.procs:
            if p.poll() is None:
                p.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + timeout
        codes = []
        for p in self.procs:
            try:
                codes.append(p.wait(max(0.1, deadline - time.monotonic())))
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
                codes.append("timeout")
        self.procs = []
        return codes

    def kill(self):
        for p in self.procs:
            if p.poll() is None:
                p.kill()
            p.wait()
        self.procs = []

    def remove_stores(self):
        """Deletes the replicas' stores (hundreds of MB per run); logs and
        ledgers stay for inspection."""
        for i in range(self.n):
            shutil.rmtree(os.path.join(self.workdir, "store-%d" % i), ignore_errors=True)

    def ledgers_agree(self):
        """(True, common length) iff every ledger file has the same common
        prefix of delivered blocks."""
        lines = []
        for i in range(self.n):
            with open(self.ledger(i)) as f:
                lines.append(f.read().splitlines())
        common = min(len(l) for l in lines)
        ok = all(l[:common] == lines[0][:common] for l in lines)
        return ok, common

    def snapshot(self, traced):
        """Counters of every replica at this instant."""
        snap = []
        for i, p in enumerate(self.procs):
            f = _stat_fields("/proc/%d/stat" % p.pid)
            r = {"t": time.monotonic(),
                 "utime": int(f[11]) / CLK_TCK, "stime": int(f[12]) / CLK_TCK,
                 "hwm_mb": _status_value("/proc/%d/status" % p.pid, "VmHWM") / 1024}
            if traced:
                threads = {}
                for tid in os.listdir("/proc/%d/task" % p.pid):
                    base = "/proc/%d/task/%s/" % (p.pid, tid)
                    try:
                        tf = _stat_fields(base + "stat")
                        threads[tid] = {
                            "cpu": (int(tf[11]) + int(tf[12])) / CLK_TCK,
                            "ctxsw": _status_value(base + "status", "voluntary_ctxt_switches")
                            + _status_value(base + "status", "nonvoluntary_ctxt_switches")}
                    except FileNotFoundError:  # thread exited meanwhile
                        pass
                r["threads"] = threads
                url = "http://127.0.0.1:%d/metrics" % self.admin_ports[i]
                with urllib.request.urlopen(url, timeout=5) as resp:
                    r["metrics"] = resp.read().decode()
            snap.append(r)
        return snap
