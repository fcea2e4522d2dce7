"""rficd process control and the single-process socket load generator.

One thread drives every connection through a selector. Closed loop: each
connection keeps one job outstanding and sends the next when the previous
one finishes. Open loop: jobs are due at pre-drawn Poisson arrival times and
are sent round-robin over the connections whether or not earlier jobs have
finished; latency is timed from the due time, and send lateness is kept.
"""
import gc
import json
import os
import selectors
import socket
import subprocess
import time


class JobRecord:
    """Client-side timeline and output of one submitted job."""
    __slots__ = ("idx", "cls", "netlist", "priority", "due", "sent",
                 "accepted", "started", "finished", "exit", "rejected",
                 "out", "ctx_hits", "ctx_misses", "factorizations",
                 "refactorizations", "late_events")

    def __init__(self, idx, job):
        self.idx = idx
        self.cls = job.cls
        self.netlist = job.netlist
        self.priority = job.priority
        self.due = self.sent = self.accepted = None
        self.started = self.finished = None
        self.exit = None
        self.rejected = None
        self.out = []
        self.ctx_hits = self.ctx_misses = 0
        self.factorizations = self.refactorizations = 0
        self.late_events = 0  # events read after this job's `finished`


class Daemon:
    """One rficd process on a socket relative to the checkout root (unix
    socket paths are limited to 107 bytes; the checkout path is not)."""

    def __init__(self, exe, sock_rel, workers, threads, log_path):
        self.sock_rel = sock_rel
        if os.path.exists(sock_rel):
            os.unlink(sock_rel)
        self.log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [exe, "--socket", sock_rel, "--workers", str(workers),
             "--threads", str(threads)],
            stdout=self.log, stderr=subprocess.STDOUT)

    def connect(self, timeout=30.0):
        deadline = time.perf_counter() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"rficd exited with {self.proc.returncode}")
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(self.sock_rel)
                return s
            except OSError:
                s.close()
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.002)

    def cpu_seconds(self):
        """utime + stime of the daemon so far."""
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def vm_hwm_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self, timeout=30.0):
        """Ask for a clean shutdown; kill if it does not come; always reap."""
        if self.proc.poll() is None:
            try:
                s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                s.settimeout(5.0)
                s.connect(self.sock_rel)
                s.sendall(b'{"cmd":"shutdown"}\n')
                s.recv(256)
                s.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        if os.path.exists(self.sock_rel):
            os.unlink(self.sock_rel)


class Conn:
    """One client connection: submits are answered in order on a connection,
    so accepted/rejected replies pop a FIFO of pending submits."""

    def __init__(self, sock):
        self.sock = sock
        self.buf = b""
        self.pending = []   # JobRecords awaiting accepted/rejected
        self.jobs = {}      # daemon job id -> JobRecord
        self.ended = {}     # daemon job id -> JobRecord, after `finished`
        self.bytes_in = 0

    def submit(self, rec, lanes, ordering):
        req = {"cmd": "submit", "netlist": rec.netlist, "threads": lanes,
               "priority": rec.priority, "label": f"{rec.cls}-{rec.idx}"}
        if ordering:
            req["ordering"] = ordering
        data = (json.dumps(req) + "\n").encode()
        rec.sent = time.perf_counter()
        self.pending.append(rec)
        self.sock.sendall(data)

    def read(self, now):
        """Drain readable bytes; return the JobRecords that ended (finished
        or rejected) in this read."""
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("rficd closed a client connection")
        self.bytes_in += len(chunk)
        lines = (self.buf + chunk).split(b"\n")
        self.buf = lines.pop()
        done = []
        for line in lines:
            ev = json.loads(line)
            kind = ev.get("event")
            if kind == "accepted":
                rec = self.pending.pop(0)
                rec.accepted = now
                self.jobs[ev["job"]] = rec
            elif kind == "rejected":
                rec = self.pending.pop(0)
                rec.rejected = ev.get("reason", "?")
                rec.finished = now
                done.append(rec)
            elif ev.get("job") in self.ended:
                # `finished` is terminal in the protocol: anything after it
                # is an ordering violation, which fails the job.
                rec = self.ended[ev["job"]]
                rec.late_events += 1
                if kind == "stdout":
                    rec.out.append(ev["text"])
            elif kind == "started":
                self.jobs[ev["job"]].started = now
            elif kind == "stdout":
                self.jobs[ev["job"]].out.append(ev["text"])
            elif kind == "finished":
                rec = self.jobs.pop(ev["job"])
                self.ended[ev["job"]] = rec
                rec.finished = now
                rec.exit = ev["exit"]
                rec.ctx_hits = ev.get("ctxHits", 0)
                rec.ctx_misses = ev.get("ctxMisses", 0)
                rec.factorizations = ev.get("factorizations", 0)
                rec.refactorizations = ev.get("refactorizations", 0)
                done.append(rec)
        return done

    def outstanding(self):
        return len(self.pending) + len(self.jobs)


def run_jobs_to_completion(daemon, jobs, lanes, ordering, timeout=120.0):
    """Submit `jobs` on one connection and wait for all of them (warm-up)."""
    conn = Conn(daemon.connect())
    try:
        recs = [JobRecord(i, j) for i, j in enumerate(jobs)]
        for r in recs:
            conn.submit(r, lanes, ordering)
        left = len(recs)
        deadline = time.perf_counter() + timeout
        while left:
            if time.perf_counter() > deadline:
                raise RuntimeError("warm-up jobs did not finish")
            left -= len(conn.read(time.perf_counter()))
        return recs
    finally:
        conn.sock.close()


def stats_roundtrip(daemon):
    s = daemon.connect()
    try:
        s.sendall(b'{"cmd":"stats"}\n')
        buf = b""
        while b"\n" not in buf:
            chunk = s.recv(65536)
            if not chunk:
                raise ConnectionError("no stats reply")
            buf += chunk
        return json.loads(buf.split(b"\n", 1)[0])
    finally:
        s.close()


def drive(daemon, job_iter, cfg, seconds, arrivals=None, drain_timeout=60.0):
    """Run the measured phase, then drain. Closed loop when `arrivals` is
    None (one job in flight per connection); open loop otherwise (`arrivals`
    yields due offsets in seconds, sent round-robin over the connections)."""
    nconn = cfg["connections"]
    conns = [Conn(daemon.connect()) for _ in range(nconn)]
    # select(2) takes its timeout in microseconds; epoll and poll round it
    # up to whole milliseconds, which would make every open-loop send up to
    # 1 ms late. Fine at this few connections.
    sel = selectors.SelectSelector()
    for c in conns:
        sel.register(c.sock, selectors.EVENT_READ, c)
    records = []
    lateness = []
    lanes, ordering = cfg["lanes"], cfg.get("ordering")

    def send(conn, due):
        rec = JobRecord(len(records), next(job_iter))
        records.append(rec)
        conn.submit(rec, lanes, ordering)
        rec.due = due if due is not None else rec.sent
        return rec

    # The collector's full passes over tens of thousands of live records
    # would stall the generator for milliseconds: keep it off while driving.
    gc.disable()
    try:
        cpu0 = daemon.cpu_seconds()
        t0 = time.perf_counter()
        t_end = t0 + seconds
        if arrivals is None:
            for c in conns:
                send(c, None)
            while True:
                now = time.perf_counter()
                if now >= t_end:
                    break
                for key, _ in sel.select(timeout=t_end - now):
                    conn = key.data
                    ended = conn.read(time.perf_counter())
                    for _ in ended:
                        if time.perf_counter() < t_end:
                            send(conn, None)
        else:
            rr = 0
            next_due = t0 + next(arrivals)
            while True:
                now = time.perf_counter()
                while next_due <= now and next_due < t_end:
                    send(conns[rr % nconn], next_due)
                    lateness.append(time.perf_counter() - next_due)
                    rr += 1
                    next_due = t0 + next(arrivals)
                    now = time.perf_counter()
                if now >= t_end:
                    break
                wait = max(0.0, min(next_due, t_end) - now)
                for key, _ in sel.select(timeout=wait):
                    key.data.read(time.perf_counter())
        # Throughput window: start to the last completion inside it, so the
        # rate is not quantized by a job cut off at the deadline.
        in_window = [r.finished for r in records
                     if r.finished is not None and r.rejected is None]
        window = (max(in_window) if in_window else time.perf_counter()) - t0
        # Drain: every attempted job must end; the ones that never do count
        # as failed.
        deadline = time.perf_counter() + drain_timeout
        while any(c.outstanding() for c in conns):
            now = time.perf_counter()
            if now > deadline:
                break
            for key, _ in sel.select(timeout=deadline - now):
                key.data.read(time.perf_counter())
        # Daemon CPU from the start to the end of the drain (the daemon idles
        # after it), divided by every job that finished in that span.
        cpu = daemon.cpu_seconds() - cpu0
        return {"records": records, "window": window, "cpu": cpu,
                "completed_in_window": len(in_window),
                "bytes_in": sum(c.bytes_in for c in conns),
                "lateness": lateness}
    finally:
        gc.enable()
        sel.close()
        for c in conns:
            c.sock.close()
