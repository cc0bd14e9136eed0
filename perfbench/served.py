"""The served pass: ``repro gateway serve`` in its own process, driven
by one client over one TCP connection in a closed loop.

The client sends the next request only after the previous answer
arrived, in the plan's fixed order; nothing is triggered by a timer.
The server runs with one BLAS thread (see ``server_env``).
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from inputs import ALPHA, K, MIN_TIMED_OPS, Op, Plan

#: Gateway launches whose time-to-first-answer is measured; the last
#: one stays up for the rest of the pass.
SETUP_LAUNCHES = 5
START_TIMEOUT = 150.0
STOP_TIMEOUT = 60.0
_ANNOUNCE = re.compile(r"listening on ([0-9.]+):(\d+)")


def server_env(root: Path) -> dict:
    """The served process's environment: the checkout's source tree on
    the path and single-threaded BLAS (a second OpenBLAS thread only
    burns CPU on 2 cores and adds noise)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for name in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"
    ):
        env[name] = "1"
    return env


def write_config(plan: Plan, workdir: Path) -> Path:
    tenant = {
        "name": plan.workload,
        "collection": plan.corpus.snapshot.name,
        "alpha": ALPHA,
        "engine": "columnar",
    }
    if plan.wal:
        tenant["wal"] = f"{plan.workload}.wal"
    config = {"cache_size": plan.cache_size, "tenants": [tenant]}
    path = workdir / "gateway.json"
    path.write_text(json.dumps(config, indent=1), encoding="utf-8")
    return path


class Gateway:
    """One ``repro gateway serve`` process and the client connection."""

    def __init__(self, root: Path, workdir: Path, config: Path) -> None:
        self.root = root
        self.workdir = workdir
        self.config = config
        self.proc: subprocess.Popen | None = None
        self.sock: socket.socket | None = None
        self.stream = None
        self._log = None

    def start(self) -> None:
        log_path = self.workdir / "gateway.log"
        self._log = open(log_path, "w+", encoding="utf-8")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "gateway", "serve",
                "--config", str(self.config), "--port", "0",
            ],
            cwd=self.root,
            env=server_env(self.root),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=self._log,
        )
        deadline = time.monotonic() + START_TIMEOUT
        while True:
            match = _ANNOUNCE.search(log_path.read_text(encoding="utf-8"))
            if match:
                break
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(
                    "gateway did not start:\n"
                    + log_path.read_text(encoding="utf-8")[-3000:]
                )
            time.sleep(0.002)
        self.sock = socket.create_connection(
            (match.group(1), int(match.group(2))), timeout=START_TIMEOUT
        )
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.stream = self.sock.makefile("rwb")

    def request(self, obj: dict) -> tuple[dict, float]:
        """Send one line, wait for its answer: ``(response, seconds)``."""
        line = json.dumps(obj, separators=(",", ":")).encode() + b"\n"
        started = time.perf_counter()
        self.stream.write(line)
        self.stream.flush()
        raw = self.stream.readline()
        elapsed = time.perf_counter() - started
        if not raw:
            raise RuntimeError("gateway closed the connection")
        return json.loads(raw), elapsed

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the gateway process, in MB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Close the connection, SIGTERM (graceful drain, WAL flushed
        and closed), and wait for the process to end."""
        if self.stream is not None:
            try:
                self.stream.close()
            except OSError:
                pass
            self.stream = None
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=STOP_TIMEOUT)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            self.proc = None
        if self._log is not None:
            self._log.close()
            self._log = None


def to_request(op: Op, number: int) -> dict:
    if op.kind == "search":
        return {"id": f"r{number}", "query": list(op.tokens), "k": K}
    if op.kind == "delete":
        return {"op": "delete", "name": op.name}
    return {"op": op.kind, "name": op.name, "tokens": list(op.tokens)}


@dataclass
class Record:
    """One answered request: the op, its response and client latency."""

    phase: str
    op: Op
    response: dict
    seconds: float

    @property
    def failed(self) -> bool:
        return "error" in self.response


@dataclass
class ServedPass:
    setup_seconds: list[float] = field(default_factory=list)
    records: list[Record] = field(default_factory=list)
    timed_seconds: float = 0.0
    peak_rss_mb: float = 0.0

    def phase(self, name: str) -> list[Record]:
        return [r for r in self.records if r.phase == name]


class _Client:
    def __init__(self, gateway: Gateway, out: ServedPass):
        self.gateway = gateway
        self.out = out
        self.number = 0

    def run(self, phase: str, op: Op) -> Record:
        self.number += 1
        response, seconds = self.gateway.request(
            to_request(op, self.number)
        )
        record = Record(phase, op, response, seconds)
        self.out.records.append(record)
        return record


def served_pass(
    plan: Plan, root: Path, workdir: Path, seconds: float
) -> ServedPass:
    """Set up (timed, ``SETUP_LAUNCHES`` times), warm up, run the timed
    closed loop for ``seconds`` and at least ``MIN_TIMED_OPS`` ops, then
    the checking rotations and the write burst; for a WAL-backed plan,
    restart on snapshot + WAL and re-check every write."""
    config = write_config(plan, workdir)
    out = ServedPass()
    first = plan.warmup[0]
    gateway = None
    try:
        for launch in range(SETUP_LAUNCHES):
            gateway = Gateway(root, workdir, config)
            started = time.perf_counter()
            gateway.start()
            client = _Client(gateway, out)
            client.run("setup", first)
            out.setup_seconds.append(time.perf_counter() - started)
            if launch < SETUP_LAUNCHES - 1:
                gateway.stop()
        for op in plan.warmup[1:]:
            client.run("warmup", op)
        stream = plan.stream()
        started = time.perf_counter()
        done = 0
        while (
            time.perf_counter() - started < seconds
            or done < MIN_TIMED_OPS
        ):
            client.run("timed", next(stream))
            done += 1
        out.timed_seconds = time.perf_counter() - started
        for op in plan.checks:
            client.run("checks", op)
        for op in plan.burst:
            client.run("burst", op)
        out.peak_rss_mb = gateway.peak_rss_mb()
        gateway.stop()
        if plan.wal:
            gateway = Gateway(root, workdir, config)
            gateway.start()
            client = _Client(gateway, out)
            for op in restart_checks(out.records):
                client.run("restart", op)
            gateway.stop()
    finally:
        if gateway is not None:
            gateway.stop()
    return out


def restart_checks(records: list[Record]) -> list[Op]:
    """After a restart on snapshot + WAL: one read per written name,
    querying its last acknowledged contents (a deleted name's former
    contents), which the checker then holds to the write."""
    last: dict[str, Op] = {}
    for record in records:
        if record.op.is_write and not record.failed:
            last[record.op.name] = record.op
    return [
        Op("search", op.tokens, verifies=name)
        for name, op in last.items()
    ]
