"""Launching, sampling and stopping the real server processes.

A server's replicas and spawned workers are found through ``/proc`` as
its descendants: they are sampled for CPU and peak memory, and stopped
with it.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

BANNER = re.compile(r"on http://([\d.]+):(\d+)")
#: Seconds a server may take from launch to a healthy ``/healthz``.
START_TIMEOUT = 150.0
#: Interval between ``/healthz`` polls while timing set-up.
POLL_SECONDS = 0.005

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class ServerError(RuntimeError):
    """A server did not start or did not answer as expected."""


class Server:
    """One ``repro serve`` or ``repro route`` process and its descendants.

    ``setup_s`` is the time from launch to the first ``200`` on
    ``/healthz`` whose status is ``ok`` (for a router: every replica up).
    """

    def __init__(self, argv: list[str], env: dict) -> None:
        self.port: int | None = None
        self._banner = threading.Event()
        started = time.perf_counter()
        self.process = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        self._output: list[str] = []
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            self._await_healthy(started)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _read(self) -> None:
        # Keep draining so a chatty server can never block on a full pipe.
        for line in self.process.stdout:
            if len(self._output) < 200:
                self._output.append(line)
            if self.port is None:
                match = BANNER.search(line)
                if match is not None:
                    self.port = int(match.group(2))
                    self._banner.set()
        self._banner.set()

    def _await_healthy(self, started: float) -> None:
        deadline = started + START_TIMEOUT
        self._banner.wait(START_TIMEOUT)
        if self.port is None:
            raise ServerError(f"no serving banner: {''.join(self._output)[-2000:]}")
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise ServerError(f"server exited: {''.join(self._output)[-2000:]}")
            try:
                status, payload = get_json(self.port, "/healthz", timeout=5.0)
            except (OSError, http.client.HTTPException, ValueError):
                status, payload = 0, {}
            if status == 200 and payload.get("status") == "ok":
                return
            time.sleep(POLL_SECONDS)
        raise ServerError("server did not become healthy in time")

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> None:
        """SIGTERM (the drain path), then SIGKILL whatever is left; wait
        until every process of the tree has ended."""
        tree = process_tree(self.pid)
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        deadline = time.monotonic() + 10.0
        while alive := [pid for pid in tree if _alive(pid)]:
            if time.monotonic() > deadline + 20.0:
                raise ServerError(f"processes {alive} outlived SIGKILL")
            if time.monotonic() > deadline:
                for pid in alive:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
            time.sleep(0.02)
        self.process.wait()
        self._reader.join(timeout=5.0)


def launch(root: Path, serve_args, network: Path, env: dict) -> Server:
    argv = [
        sys.executable,
        "-m",
        "repro",
        serve_args[0],
        "--network",
        str(network),
        "--host",
        "127.0.0.1",
        "--port",
        "0",
        *serve_args[1:],
    ]
    return Server(argv, env)


def get_json(port: int, path: str, *, timeout: float = 10.0) -> tuple[int, dict]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        connection.close()


# ----------------------------------------------------------------------
# /proc sampling
# ----------------------------------------------------------------------
def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except (FileNotFoundError, ProcessLookupError):
        return None
    # The command name may contain spaces; fields resume after its ')'.
    return text.rsplit(")", 1)[1].split()


def _alive(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] not in ("Z", "X")


def process_tree(root_pid: int) -> list[int]:
    """``root_pid`` and every live descendant."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = [], [root_pid]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def cpu_seconds(pids) -> dict[int, float]:
    """User+system CPU seconds per pid."""
    sample = {}
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            sample[pid] = (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
    return sample


def rss_peak_mb(pids) -> float:
    """Summed ``VmHWM`` (peak resident set) of ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except (FileNotFoundError, ProcessLookupError):
            continue
    return total_kb / 1024.0


def stats_snapshot(server: Server, routed: bool) -> list[dict]:
    """``/stats`` of every replica (through the router's replica list)."""
    status, stats = get_json(server.port, "/stats")
    if status != 200:
        raise ServerError(f"/stats answered {status}")
    if not routed:
        return [stats]
    snapshots = [stats]
    for replica in stats["per_replica"]:
        _host, port = replica["address"].rsplit(":", 1)
        snapshots.append(get_json(int(port), "/stats")[1])
    return snapshots
