"""Run one command in a forked child and time it from the parent.

The parent has imported gentlegp but never runs a command, so every child
starts with the empty caches a CLI user starts with.  Only one child runs
at a time.
"""

from __future__ import annotations

import contextlib
import io
import os
import pickle
import select
import signal
import sys
import time
import traceback
from dataclasses import dataclass

from gentlegp import cli


@dataclass
class Outcome:
    code: int | None           # the command's exit code; None if it raised
    stdout: str
    error: str | None          # traceback, or why the child gave no result
    wall_s: float              # fork to reaped exit, measured by the parent
    maxrss_mb: float           # the child's peak resident set size
    trace: object = None       # what the child's tracer collected


def _child(wfd, fn, args, tracer):
    status = 1
    try:
        out, err = io.StringIO(), io.StringIO()
        code, tb = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is not None:
                tracer.install()
            try:
                code = fn(*args)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                tb = traceback.format_exc(limit=-8)
        collected = tracer.collect() if tracer is not None else None
        data = pickle.dumps((code, out.getvalue(), tb or err.getvalue() or None,
                             collected),
                            protocol=pickle.HIGHEST_PROTOCOL)
        with os.fdopen(wfd, "wb") as fh:
            fh.write(data)
        status = 0
    finally:
        os._exit(status)


def _cli_run(argv):
    # looked up at call time, so that a tracer installed in the child
    # wraps cli.run as well
    return cli.run(argv)


def run_cli(argv, tracer=None, timeout_s=None) -> Outcome:
    """Run ``gentlegp.cli.run(argv)`` in a forked child."""
    return run_forked(_cli_run, (list(argv),), tracer, timeout_s)


def run_forked(fn, args=(), tracer=None, timeout_s=None) -> Outcome:
    """Run ``fn(*args)`` in a child with stdout captured; its return value
    is the exit code.

    ``timeout_s`` bounds the wait; a child still running then is killed
    and reported without a result."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        _child(wfd, fn, args, tracer)
    os.close(wfd)
    chunks, reaped, timed_out = [], False, False
    try:
        deadline = None if timeout_s is None else t0 + timeout_s
        while True:
            wait = None if deadline is None else deadline - time.perf_counter()
            if wait is not None and wait <= 0:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            ready, _, _ = select.select([rfd], [], [], wait)
            if ready:
                chunk = os.read(rfd, 1 << 20)
                if not chunk:
                    break
                chunks.append(chunk)
        _, status, usage = os.wait4(pid, 0)
        reaped = True
        wall = time.perf_counter() - t0
    finally:
        os.close(rfd)
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    rss = usage.ru_maxrss / 1024.0
    if timed_out:
        return Outcome(None, "", f"killed after {timeout_s:.0f} s", wall, rss)
    if status != 0 or not chunks:
        return Outcome(None, "", f"child died with wait status {status}",
                       wall, rss)
    code, stdout, tb, collected = pickle.loads(b"".join(chunks))
    return Outcome(code, stdout, tb, wall, rss, collected)
