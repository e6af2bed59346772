"""The server under test as a child process.

:class:`ServerProcess` starts ``python -m repro.server`` (or the traced
launcher next to this file) with ``--port 0 --port-file``, waits for the
port file, and reads the child's CPU time and peak RSS from ``/proc``.
Every process it starts is stopped and reaped by :meth:`ServerProcess.stop`
or :meth:`ServerProcess.kill`.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

#: The repository checkout this benchmark lives in.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED_LAUNCHER = Path(__file__).resolve().parent / "traced_server.py"

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

_CPUS = sorted(os.sched_getaffinity(0))
#: With two or more CPUs the client runs on the first and the server on
#: the second, so neither migrates or steals the other's core; with one
#: CPU nothing is pinned.
CLIENT_CPU, SERVER_CPU = (_CPUS[0], _CPUS[1]) if len(_CPUS) > 1 else (None,
                                                                      None)


#: Spins at SCHED_IDLE on one CPU until its parent exits (argv: cpu).
_KEEPER = """
import os, sys
parent = os.getppid()
os.sched_setaffinity(0, {int(sys.argv[1])})
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
while os.getppid() == parent:
    for _ in range(200000):
        pass
"""


class CpuKeeper:
    """Keeps the server's CPU busy with work of the lowest priority.

    On a virtual machine a halted vCPU waits for the host to reschedule
    it on every wake-up, and that delay swings with the host's other
    load; a spinner under ``SCHED_IDLE`` keeps the vCPU running yet
    yields to the server the moment it becomes runnable.  The server's
    own CPU time (read per process) does not include the spinner.
    """

    def __init__(self, cpu):
        self.proc = subprocess.Popen([sys.executable, "-c", _KEEPER,
                                      str(cpu)])

    def stop(self):
        self.proc.kill()
        self.proc.wait()


def steal_seconds():
    """Time the host ran something else on the pinned CPUs, so far."""
    total = 0
    for line in Path("/proc/stat").read_text().splitlines():
        fields = line.split()
        if fields[0] in (f"cpu{CLIENT_CPU}", f"cpu{SERVER_CPU}"):
            total += int(fields[8])
    return total / _CLOCK_TICKS


class ServerError(RuntimeError):
    """The server child failed to start or died."""


class ServerProcess:
    """One server child process.

    *extra* is appended to the stock argv (``--data-dir DIR``).  With
    *spans* set, the benchmark's traced launcher runs instead of
    ``-m repro.server`` and writes its spans to that path on SIGTERM.
    """

    def __init__(self, workdir, extra=(), spans=None):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.port_file = self.workdir / f"port-{time.monotonic_ns()}"
        self.spans = spans
        server_args = ["--port", "0", "--port-file", str(self.port_file),
                       *extra]
        if spans is None:
            self.argv = [sys.executable, "-m", "repro.server", *server_args]
        else:
            self.argv = [sys.executable, str(TRACED_LAUNCHER),
                         "--spans", str(spans), "--", *server_args]
        #: The server flags alone, as recorded in the result metadata.
        self.server_args = server_args
        self.proc = None
        self.port = None
        self._log = None

    def start(self, timeout=60.0):
        """Spawn the child and block until its port file appears."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self._log = open(self.workdir / "server.log", "ab")  # noqa: SIM115
        self.proc = subprocess.Popen(
            self.argv, cwd=ROOT, env=env, stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        if SERVER_CPU is not None:
            os.sched_setaffinity(self.proc.pid, {SERVER_CPU})
        deadline = time.monotonic() + timeout
        while True:
            if self.port_file.exists():
                text = self.port_file.read_text().strip()
                if text:
                    self.port = int(text)
                    return self
            if self.proc.poll() is not None:
                self._close_log()
                raise ServerError(
                    f"server exited with {self.proc.returncode} before "
                    f"listening; see {self.workdir / 'server.log'}"
                )
            if time.monotonic() > deadline:
                self.kill()
                raise ServerError("server did not write its port file")
            time.sleep(0.005)

    @property
    def pid(self):
        return self.proc.pid

    def cpu_seconds(self):
        """User + system CPU the child has used so far."""
        fields = Path(f"/proc/{self.pid}/stat").read_text()
        # The command name may hold spaces; fields resume after ')'.
        rest = fields[fields.rindex(")") + 2:].split()
        return (int(rest[11]) + int(rest[12])) / _CLOCK_TICKS

    def peak_rss_mb(self):
        """The child's peak resident set (``VmHWM``) in MiB."""
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise ServerError("VmHWM missing from /proc status")

    def stop(self, timeout=30.0):
        """SIGTERM the child and wait for it (SIGKILL if it hangs)."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._close_log()

    def kill(self):
        """``kill -9`` the child and reap it."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._close_log()

    def _close_log(self):
        if self._log is not None:
            self._log.close()
            self._log = None
