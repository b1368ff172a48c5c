"""Shared helpers: statistics, metric names, digests, processes, metadata."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import re
import statistics
import subprocess
import time
from pathlib import Path

#: Root of the checkout the benchmark runs from (holds ``src/repro``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for one run's inputs, child results and logs.  Listed
#: in ``.gitignore``; every run removes its own subdirectory.
WORK = ROOT / ".perfbench"
#: Byte-code cache for every interpreter the benchmark starts, kept out
#: of ``src/`` so runs never rewrite files under version control.
PYCACHE = WORK / "pycache"

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Samples a reported tail percentile must leave beyond it.
TAIL_SAMPLES = 10


def valid_metric_name(name: str) -> bool:
    return METRIC_NAME.fullmatch(name) is not None


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    closest ranks (NumPy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def samples_beyond(values, q: float) -> int:
    """How many samples lie strictly above the ``q``-th percentile."""
    cut = percentile(values, q)
    return sum(1 for value in values if value > cut)


#: Percentiles a tail may be reported at, highest first.
TAIL_CANDIDATES = (99.9, 99.5) + tuple(range(99, 49, -1))


def tail_percentile(values, candidates=TAIL_CANDIDATES):
    """The highest of ``candidates`` that keeps at least
    :data:`TAIL_SAMPLES` samples beyond it, or ``None`` when even the
    median does not."""
    for q in candidates:
        if samples_beyond(values, q) >= TAIL_SAMPLES:
            return q
    return None


def geomean(values) -> float:
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geometric mean needs positive samples")
    return math.exp(sum(math.log(value) for value in values) / len(values))


def median(values) -> float:
    return statistics.median(values)


def digest_bytes(*chunks: bytes) -> str:
    hasher = hashlib.sha256()
    for chunk in chunks:
        hasher.update(chunk)
    return hasher.hexdigest()


def instruction_budget(baseline_instructions: int) -> int:
    """Instruction cap for simulating an allocated program: room for its
    spill code, but a wrong allocation that loops ends as a failure
    instead of running for minutes."""
    return 4 * baseline_instructions + 100_000


def same_outputs(first, second) -> bool:
    """Equal printed-output streams, where a NaN printed by both sides
    counts as the same value (``nan != nan`` in Python)."""
    if len(first) != len(second):
        return False
    for a, b in zip(first, second):
        if a != b and not (isinstance(a, float) and isinstance(b, float)
                           and math.isnan(a) and math.isnan(b)):
            return False
    return True


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------


def child_env() -> dict:
    """Environment for every interpreter the benchmark starts."""
    env = dict(os.environ)
    paths = [str(SRC), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def proc_state(pid: int):
    """The ``/proc`` state letter of ``pid``, or ``None`` if it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except OSError:
        return None
    return stat.rsplit(")", 1)[1].split()[0]


def alive(pid: int) -> bool:
    return proc_state(pid) not in (None, "Z", "X")


def children_of(pid: int) -> list:
    """Pids whose parent is ``pid`` (one scan of ``/proc``)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return sorted(found)


def peak_rss_mb(pid="self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current resident set."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def wait_gone(pids, timeout: float = 10.0) -> list:
    """Wait until every pid has exited; return the ones still running."""
    deadline = time.monotonic() + timeout
    left = [pid for pid in pids if alive(pid)]
    while left and time.monotonic() < deadline:
        time.sleep(0.05)
        left = [pid for pid in left if alive(pid)]
    return left


def kill_all(pids) -> None:
    import signal

    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass


#: ``prctl`` option: orphaned descendants re-parent to the caller.
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    """Adopt this process's orphaned descendants (Linux).  A grandchild
    whose parent died then re-parents here, where
    :func:`reap_descendants` finds it, instead of to init, which may
    leave it unreaped."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def reap_descendants(grace: float = 10.0) -> list:
    """Stop and reap every process still parented to this one: children
    nobody waited for and, after :func:`become_subreaper`, orphaned
    grandchildren.  A running one has ``grace`` seconds to exit on its
    own before SIGKILL.  Returns the pids that were still running."""
    running: list = []
    while True:
        found = children_of(os.getpid())
        if not found:
            return running
        live = [pid for pid in found if alive(pid)]
        running += live
        kill_all(wait_gone(live, grace))
        for pid in found:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass


# ----------------------------------------------------------------------
# Run metadata (triage)
# ----------------------------------------------------------------------


def load1() -> float:
    return round(os.getloadavg()[0], 2)


def git_commit():
    """The checked-out commit, or ``None`` outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """sha256 over every ``src/**/*.py`` path and body: identifies the
    code under test even where there is no git history."""
    hasher = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        hasher.update(str(path.relative_to(SRC)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def run_metadata() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "source_digest": source_digest()[:16],
        "load1_start": load1(),
        "wall_start": time.time(),
    }


def finish_metadata(meta: dict) -> dict:
    meta["load1_end"] = load1()
    meta["wall_span_s"] = round(time.time() - meta["wall_start"], 3)
    return meta

