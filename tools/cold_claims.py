"""Cold claim runs, one after another, written to a BENCH_*.json file.

    python3 tools/cold_claims.py --out BENCH_26.json --label change \\
        [--root CHECKOUT] CLAIM/N [CLAIM/N ...]

Each CLAIM/N runs as one fresh ``spcthecke verify CLAIM --max-n N``
process from the source tree of CHECKOUT (default: the checkout holding
this script), one at a time, so no two runs share the machine.  Each row
records the run's wall time (spawn to exit), its peak resident set in MB
(``os.wait4``, the process's own), its exit code and the ``cases`` its
report gives.  The checkout's Tier-1 suite is timed once first; when it
does not pass, the script stops with exit code 1 and writes nothing, so a
broken checkout's times are never recorded.

The file holds one entry per label, with the checkout's git sha (and
whether its working tree holds uncommitted edits), the Python version
and ``nproc``; running a label again replaces its entry,
so one file can hold a parent and a change measured on one machine.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

CLI = "import sys; from spcthecke.cli import main; sys.exit(main())"


def _env(root: Path) -> dict[str, str]:
    src = str(root / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    # runs import from cached bytecode, as an installed package does
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _timed(argv: list[str], root: Path) -> tuple[float, float, int, bytes]:
    """Wall time, peak RSS in MB, exit code and stdout of one process."""
    out_r, out_w = os.pipe()
    t0 = time.perf_counter()
    pid = os.posix_spawn(
        argv[0],
        argv,
        _env(root),
        file_actions=[
            (os.POSIX_SPAWN_DUP2, out_w, 1),
            (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
        ],
    )
    os.close(out_w)
    with open(out_r, "rb") as fh:
        stdout = fh.read()
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    # ru_maxrss is in KB on Linux
    return wall, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status), stdout


def run_claim(root: Path, claim: str, max_n: int) -> dict:
    argv = [sys.executable, "-c", CLI, "verify", claim, "--max-n", str(max_n)]
    wall, rss, code, stdout = _timed(argv, root)
    try:
        cases = json.loads(stdout)["cases"]
    except (ValueError, KeyError, TypeError):
        cases = None
    return {
        "claim": claim,
        "max_n": max_n,
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(rss, 1),
        "exit_code": code,
        "cases": cases,
    }


def tier1_wall_s(root: Path) -> float | None:
    """Wall time of the checkout's Tier-1 suite, or None when it does not pass."""
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    t0 = time.perf_counter()
    res = subprocess.run(argv, cwd=root, env=_env(root), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return round(time.perf_counter() - t0, 1) if res.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs", nargs="+", metavar="CLAIM/N")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--label", required=True)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    runs = []
    for spec in args.runs:
        claim, _, n = spec.rpartition("/")
        if not claim or not n.isdigit():
            parser.error(f"expected CLAIM/N, got {spec!r}")
        runs.append((claim, int(n)))
    tier1 = tier1_wall_s(root)
    if tier1 is None:
        print(f"Tier-1 tests do not pass in {root}; nothing written", file=sys.stderr)
        return 1
    git = ["git", "-C", str(root)]
    sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    status = subprocess.run(git + ["status", "--porcelain"], capture_output=True, text=True).stdout
    entry = {
        "git_sha": sha or None,
        # the runs measure the working tree: uncommitted edits on top of git_sha
        "uncommitted_changes": bool(sha) and bool(status.strip()),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "tier1_wall_s": tier1,
        "runs": [],
    }
    for claim, n in runs:
        row = run_claim(root, claim, n)
        entry["runs"].append(row)
        print(json.dumps(row), flush=True)
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data[args.label] = entry
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
