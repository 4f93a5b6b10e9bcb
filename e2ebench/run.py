"""End-to-end benchmark of the serving stack.

Run from the repository root:

    python3 e2ebench/run.py --workload zipf-hot --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --workload all            # every workload, untraced

Each workload runs in its own process with BLAS/OpenMP threads pinned to 1.
The last line of standard output is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``); ``--trace 1`` reports the per-layer
metrics instead of the end-to-end ones.  The exit code is non-zero when an
output differs from its reference, a reconciliation fails, or a run
crashes.  Result files and span files go to ``.bench_out/``.  See
``e2ebench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("zipf-hot", "compose-cold", "gnn-epochs", "cluster-batched")
#: Wall limit of one workload process.
TIMEOUT_S = 170
#: Thread pools pinned to one thread, before NumPy is imported.
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def run_workload(name: str, args, root: Path) -> tuple[int, dict | None]:
    """Run one workload process, echo its output, return (code, result)."""
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    env.update(dict.fromkeys(PINNED, "1"))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(root / ".bench_out"),
           "--spawned-at", repr(time.time())]
    proc = subprocess.Popen(cmd, env=env, cwd=root, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"e2ebench: {name} did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        print(lines[-1])
        result = None
    return proc.returncode if result is not None else (proc.returncode or 1), result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("e2ebench: run from the repository root; src/repro is missing here",
              file=sys.stderr)
        return 2

    if args.workload != "all":
        code, result = run_workload(args.workload, args, root)
        if result is not None:
            print(json.dumps(result))
        return code

    worst, table = 0, []
    for name in WORKLOADS:
        print(f"== {name}")
        code, result = run_workload(name, args, root)
        worst = worst or code
        if result is not None:
            for metric, m in result["metrics"].items():
                table.append(f"{name:16s} {metric:44s} {m['value']:>16.6g} {m['unit']}")
            table.append(f"{name:16s} {'correct':44s} {str(result['correct']):>16s} "
                         f"({result['attempted']} attempted, {result['failed']} failed)")
    print("== summary")
    print("\n".join(table))
    return worst


if __name__ == "__main__":
    sys.exit(main())
