"""Server processes for the benchmark: start, wait, measure, stop.

Every server runs through ``perfbench/launch.py`` (the real ``repro serve``
or ``repro route`` CLI, plus the switchable span recorder).  Output goes to a
log file in the run's work directory; the announced port is read from it.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time

from common import ROOT, BenchError

LAUNCH = os.path.join(ROOT, "perfbench", "launch.py")
LISTEN = re.compile(r"listening on [\d.]+:(\d+)")
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0


class Server:
    """One launched server process."""

    def __init__(self, name, args, workdir):
        self.name = name
        self.log_path = os.path.join(workdir, f"{name}.log")
        self.span_path = os.path.join(workdir, f"spans-{name}.jsonl")
        env = dict(
            os.environ,
            PYTHONPATH=os.path.join(ROOT, "src"),
            PYTHONUNBUFFERED="1",
            PERFBENCH_SPANS=self.span_path,
        )
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, LAUNCH, "--log-level", "warning", *args],
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        self.port = None

    @property
    def address(self):
        return f"127.0.0.1:{self.port}"

    def wait_listening(self):
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            with open(self.log_path) as handle:
                match = LISTEN.search(handle.read())
            if match:
                self.port = int(match.group(1))
                return self
            if self.proc.poll() is not None:
                raise BenchError(f"{self.name} exited with {self.proc.returncode}: {self.log_tail()}")
            time.sleep(0.005)
        raise BenchError(f"{self.name} did not announce its port: {self.log_tail()}")

    def log_tail(self):
        with open(self.log_path) as handle:
            return handle.read()[-2000:]

    def peak_rss_mb(self):
        """Peak resident set size (VmHWM) of the process, in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError(f"no VmHWM for {self.name}")

    def cpu_seconds(self):
        """User plus system CPU time the process has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def set_tracing(self, on):
        """Switch the span recorder and wait until the process confirms."""
        state = self.span_path + ".state"
        want = "1" if on else "0"
        self.proc.send_signal(signal.SIGUSR1 if on else signal.SIGUSR2)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                with open(state) as handle:
                    if handle.read() == want:
                        return
            except FileNotFoundError:
                pass
            time.sleep(0.005)
        raise BenchError(f"{self.name} did not switch tracing {'on' if on else 'off'}")

    def stop(self):
        """SIGINT (the CLI's clean shutdown), then SIGKILL if it hangs."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        finally:
            self._log.close()


class Cluster:
    """The servers of one workload set-up, stopped in reverse start order."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.servers = []

    def start(self, name, *args):
        server = Server(name, list(args), self.workdir)
        self.servers.append(server)
        return server.wait_listening()

    def peak_rss_mb(self):
        return sum(server.peak_rss_mb() for server in self.servers)

    def cpu_seconds(self):
        return sum(server.cpu_seconds() for server in self.servers)

    def set_tracing(self, on):
        for server in self.servers:
            server.set_tracing(on)

    def stop(self):
        while self.servers:
            self.servers.pop().stop()


def dir_bytes(path):
    """Total size of the regular files under *path*."""
    total = 0
    for parent, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(parent, name))
            except FileNotFoundError:
                pass  # a WAL segment or checkpoint removed mid-walk
    return total
