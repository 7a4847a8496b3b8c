"""Run the dialogforge CLI as a child process and measure it."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

TIMEOUT_S = 150.0
HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Result:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    rss_mb: float  # the child's own max RSS, from its rusage


class Launcher:
    """Starts CLI commands from the checkout at ``root`` against its ``src``.

    A traced command runs under ``tracecli.py``, which writes its spans to
    the path given; an untraced one is ``python -m dialogforge.cli``.
    """

    def __init__(self, root: Path, scratch: Path):
        self.root = root
        self.scratch = scratch
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("DIALOGFORGE_")}
        self.env["PYTHONPATH"] = str(root / "src")

    def cli(self, args: list[str], spans: Path | None = None) -> Result:
        if spans is None:
            argv = [sys.executable, "-m", "dialogforge.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "tracecli.py"), str(spans), *args]
        return self.run(argv)

    def python(self, code: str) -> Result:
        return self.run([sys.executable, "-c", code])

    def run(self, argv: list[str]) -> Result:
        out_path, err_path = self.scratch / "stdout", self.scratch / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(argv, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            killer = threading.Timer(TIMEOUT_S, child.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
                child.returncode = os.waitstatus_to_exitcode(status)
            finally:
                killer.cancel()
                killer.join()
            wall = time.perf_counter() - start
        return Result(child.returncode, out_path.read_bytes(), err_path.read_bytes(), wall, usage.ru_maxrss / 1024)
