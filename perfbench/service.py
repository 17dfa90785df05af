"""A ``repro cache-daemon`` + ``repro serve`` pair run as subprocesses.

Both are started exactly as a deployment would start them (``python -m
repro ...`` with ``--port 0``); the announced ports are read from their
logs, which go to files under the benchmark's work directory so a full
pipe can never stall a server.
"""

from __future__ import annotations

import http.client
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

_PORT_LINE = re.compile(r"listening on http://[^:]+:(\d+)")
_SAMPLE_LINE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")

BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0


def parse_prometheus(text: str) -> Dict[str, float]:
    """``{"name{labels}": value}`` for every sample line of an exposition."""
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        match = _SAMPLE_LINE.match(line.strip())
        if match and not line.startswith("#"):
            samples[match.group(1) + (match.group(2) or "")] = float(match.group(3))
    return samples


def http_get(port: int, path: str, timeout: float = 10.0) -> Tuple[int, bytes]:
    """One ``GET`` against a loopback server."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class _Process:
    def __init__(self, argv: List[str], log_path: Path, root: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.log_path = log_path
        self._log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )

    def port(self) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            match = _PORT_LINE.search(self.log_path.read_text(encoding="utf-8", errors="replace"))
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"{self.log_path.name}: server did not announce a port")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=STOP_TIMEOUT_S)
        self._log.close()


class ServicePair:
    """One cache daemon and one service replica on the ``shared`` backend."""

    def __init__(self, root: Path, workdir: Path, workers: int = 2) -> None:
        self.root = root
        self.workdir = workdir
        self.workers = workers
        self.daemon: Optional[_Process] = None
        self.server: Optional[_Process] = None
        self.daemon_port = 0
        self.server_port = 0

    def start(self) -> None:
        """Boot the daemon, then the replica pointed at it; wait for both."""
        quiet = ["--log-level", "error"]
        self.daemon = _Process(
            ["cache-daemon", "--port", "0", *quiet], self.workdir / "daemon.log", self.root
        )
        self.daemon_port = self.daemon.port()
        self.server = _Process(
            [
                "serve", "--port", "0", "--workers", str(self.workers),
                "--cache-backend", "shared", "--cache-addr", f"127.0.0.1:{self.daemon_port}",
                *quiet,
            ],
            self.workdir / "server.log",
            self.root,
        )
        self.server_port = self.server.port()

    def metrics(self, which: str) -> Dict[str, float]:
        """Scrape ``GET /metrics`` of the ``"server"`` or the ``"daemon"``."""
        port = self.server_port if which == "server" else self.daemon_port
        status, body = http_get(port, "/metrics")
        if status != 200:
            raise RuntimeError(f"{which} /metrics answered HTTP {status}")
        return parse_prometheus(body.decode("utf-8"))

    @property
    def server_pid(self) -> int:
        return self.server.proc.pid

    def stop(self) -> None:
        """Stop the replica, then the daemon, and wait for both to exit."""
        for process in (self.server, self.daemon):
            if process is not None:
                process.stop()
        self.server = self.daemon = None
