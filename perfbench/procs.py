"""Child processes of a run: spawned, timed, reaped, never left behind."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time

from .pace import pinned_to_program_cpu

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("REPRO_EAGER", None)
    return env


class Child:
    """One spawned process with its output in a log file.

    ``spawned`` is the ``perf_counter`` reading taken just before the spawn,
    the origin of every set-up time.  The process runs on the program's CPU
    (``pace.PROGRAM_CPU``).
    """

    def __init__(self, argv, log_path):
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.spawned = time.perf_counter()
        try:
            self.proc = pinned_to_program_cpu(lambda: subprocess.Popen(
                [sys.executable, *argv], stdin=subprocess.DEVNULL,
                stdout=self._log, stderr=subprocess.STDOUT, env=child_env(),
                cwd=ROOT))
        except BaseException:
            self._log.close()
            raise
        self.exit_code = None
        self.peak_rss_mb = None

    def log(self):
        with open(self.log_path, "rb") as handle:
            return handle.read().decode("utf-8", "replace")

    def wait_for(self, pattern, timeout):
        """Poll the log for ``pattern``; returns the match."""
        regex = re.compile(pattern, re.M)
        deadline = time.monotonic() + timeout
        while True:
            match = regex.search(self.log())
            if match:
                return match
            if self.proc.poll() is not None:
                raise RuntimeError("child exited (%s) before printing %r:\n%s"
                                   % (self.proc.returncode, pattern,
                                      self.log()[-2000:]))
            if time.monotonic() > deadline:
                raise RuntimeError("child printed no %r within %.0f s:\n%s"
                                   % (pattern, timeout, self.log()[-2000:]))
            time.sleep(0.002)

    def _reap(self, timeout):
        """Wait for exit; records exit code and peak RSS.  False on timeout."""
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.exit_code = os.waitstatus_to_exitcode(status)
                self.proc.returncode = self.exit_code
                self.peak_rss_mb = usage.ru_maxrss / 1024.0  # KiB on Linux
                return True
            if time.monotonic() > deadline:
                return False
            time.sleep(0.0005)

    def terminate(self, timeout=60.0):
        """SIGTERM, then wait; returns the seconds from signal to exit."""
        started = time.perf_counter()
        self.proc.send_signal(signal.SIGTERM)
        if not self._reap(timeout):
            self.kill()
            raise RuntimeError("child ignored SIGTERM for %.0f s" % timeout)
        return time.perf_counter() - started

    def kill(self):
        """Make sure the child is gone (idempotent)."""
        if self.exit_code is None and self.proc.returncode is None:
            try:
                self.proc.kill()
            except OSError:
                pass
            self._reap(30.0)
        self._log.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.kill()
