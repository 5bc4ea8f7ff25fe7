"""Benchmark of record: closed-loop sweep workloads measured from outside.

Run from the repository root::

    python bench/run.py [--workload NAME ...] [--seed S] [--reps N]
                        [--seconds S] [--trace 0|1] [--out DIR] [--smoke]

One process (this one) drives; each workload runs in its own child
process (``bench/harness.py``), one at a time.  The end-to-end metrics
are measured on reps with tracing off; unless ``--trace 0`` is given,
each of those reps is followed by a traced rep, which gives the
per-layer metrics.  ``--trace 0`` and ``--trace 1`` print only the
end-to-end or only the per-layer metrics on the last line.

Prints one row per (workload, metric) — name, unit, median, q1, q3,
n — writes ``DIR/results.json`` and ``DIR/<workload>.trace.json``, and
ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits 1 if any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: Everything the bench builds or leaves behind (ignored by git).
BUILD = BENCH / ".build"

#: Children that run longer than this are killed and failed, so one
#: workload's run ends within three minutes even when something hangs.
PROBE_TIMEOUT_S = 25.0
CHILD_TIMEOUT_S = 150.0

_PROBE = """
import json, warnings
warnings.filterwarnings("ignore", message="kernel engine:")
import numpy
from repro.analysis.result_cache import MODEL_VERSION
from repro.core.kernel import select_mode
print(json.dumps({"kernel_mode": select_mode(), "model_version": MODEL_VERSION,
                  "numpy": numpy.__version__}))
"""


def load_declarations() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summarize(values: List[float]) -> Dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def child_env(tmp: Path) -> Dict[str, str]:
    """The children's environment: hermetic and pinned.

    Every ``REPRO_*`` variable is dropped (backend, workers, faults,
    sanitizer, kernel mode, queue and cache settings each change what
    is measured); the program's cache dir, which holds the compiled C
    kernel, and the temp dir live under :data:`BUILD`; string hashing
    is seeded the same in every child, so dict layouts, and the time
    they cost, do not change from run to run; BLAS runs one thread so
    no workload uses more threads than it asks for.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(SRC),
        REPRO_CACHE_DIR=str(BUILD / "repro-cache"),
        TMPDIR=str(tmp),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def git_sha() -> Optional[str]:
    """HEAD's commit from ``.git`` directly (a checkout may not be a repo)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = git / ref
        if ref_path.is_file():
            return ref_path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def loadavg() -> Optional[str]:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def _end_group(pgid: int, grace: float) -> None:
    """Wait for the rest of a child's process group to exit, then kill it.

    A child can leave helpers behind for a moment (multiprocessing's
    resource tracker exits only after the child does); after ``grace``
    seconds whatever is left is killed.
    """
    deadline = time.monotonic() + grace
    try:
        while time.monotonic() < deadline:
            os.killpg(pgid, 0)
            time.sleep(0.02)
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(cmd: List[str], env: Dict[str, str], timeout: float) -> Optional[dict]:
    """Run one child to completion; its last stdout line is a JSON object."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True, cwd=ROOT)
    stdout = ""
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"bench: {cmd[1]} timed out after {timeout:.0f}s", file=sys.stderr)
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        _end_group(proc.pid, grace=5.0)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"bench: {' '.join(cmd[1:4])} exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def verify_digest(name: str, digest: str, probe: dict, seed: int, smoke: bool) -> str:
    """``ok``, ``mismatch`` or why the seed-0 digest could not be checked."""
    if smoke or seed != 0:
        return "unverified: only seed 0 of the full grids has a recorded digest"
    expected = json.loads((BENCH / "expected.json").read_text())
    if expected["model_version"] != probe["model_version"]:
        return "unverified: model changed"
    want = expected["digests"].get(name)
    if want is None:
        return "unverified: no recorded digest"
    return "ok" if want == digest else "mismatch"


def assess(result: Optional[dict], digest_status: str) -> Dict[str, object]:
    """Whether one workload's outputs are correct, and its failure count."""
    if result is None:
        return {"correct": False, "attempted": 0, "failed": 0}
    failed = result["failed"] + result["mismatched"]
    return {
        "correct": failed == 0 and digest_status != "mismatch",
        "attempted": result["attempted"],
        "failed": failed,
    }


def main(argv=None) -> int:
    declared = load_declarations()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", dest="workloads", metavar="NAME",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0, help="offsets every trace seed")
    parser.add_argument("--reps", type=int, default=None,
                        help="minimum timed reps (default 5, or 3 with --seconds)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="keep running timed reps until this many seconds have passed")
    parser.add_argument("--trace", choices=("0", "1"), default=None,
                        help="0: end-to-end metrics only; 1: per-layer metrics only")
    parser.add_argument("--out", type=Path, default=BUILD / "out")
    parser.add_argument("--smoke", action="store_true",
                        help="one trace at 4k instructions, one rep, one set-up")
    args = parser.parse_args(argv)
    names = args.workloads or [w["name"] for w in declared["workloads"]]
    known = {w["name"] for w in declared["workloads"]}
    unknown = [n for n in names if n not in known]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: {sorted(known)}")
    if not (SRC / "repro").is_dir():
        print(f"bench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    reps = args.reps or (1 if args.smoke else 3 if args.seconds else 5)

    run_dir = BUILD / f"run-{os.getpid()}"
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    args.out.mkdir(parents=True, exist_ok=True)
    env = child_env(tmp)
    env_block = {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_before": loadavg(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": args.seed,
        "smoke": args.smoke,
        "reps": reps,
        "seconds": args.seconds,
    }

    # The one-off C kernel compile (cached under BUILD) happens here, so
    # no workload's set-up pays for it.
    started = time.perf_counter()
    probe = run_child([sys.executable, "-c", _PROBE], env, PROBE_TIMEOUT_S)
    compile_s = time.perf_counter() - started
    if probe is None:
        print("bench: the program failed to import", file=sys.stderr)
        return 2
    env_block.update(probe)

    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    results: Dict[str, dict] = {}
    verdicts = []
    for name in names:
        cmd = [
            sys.executable, str(BENCH / "harness.py"), "--workload", name,
            "--seed", str(args.seed), "--reps", str(reps),
            "--trace", args.trace or "1",
            "--work-dir", str(run_dir / name), "--out-dir", str(args.out),
        ]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        if args.smoke:
            cmd.append("--smoke")
        cmd += ["--spawned-at", repr(time.time())]
        result = run_child(cmd, env, CHILD_TIMEOUT_S)
        status = "not run"
        if result is not None:
            status = verify_digest(name, result["digest"], probe, args.seed, args.smoke)
            result["digest_status"] = status
            result["e2e_summary"] = {k: summarize(v) for k, v in result["e2e"].items()}
            undeclared = sorted((set(result["e2e"]) | set(result["layers"])) - set(units))
            if undeclared:
                raise SystemExit(f"bench: metrics missing from BENCHMARK.json: {undeclared}")
        results[name] = result
        verdict = assess(result, status)
        verdicts.append(verdict)
        print(f"bench: {name}: digest {status}; failed {verdict['failed']} "
              f"of {verdict['attempted']}", file=sys.stderr)

    env_block["loadavg_after"] = loadavg()
    report = {"env": env_block, "compile_s": compile_s, "workloads": results}
    (args.out / "results.json").write_text(json.dumps(report, indent=1))

    print(f"{'workload':16} {'metric':16} {'unit':7} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}")
    for name, result in results.items():
        if result is None:
            continue
        for metric, s in result["e2e_summary"].items():
            print(f"{name:16} {metric:16} {units[metric]:7} {s['median']:12.4f} "
                  f"{s['q1']:12.4f} {s['q3']:12.4f} {s['n']:3d}")
        layers = result["layers"]
        if layers:
            print(f"{name:16} traced: unattributed.share {layers['unattributed.share']:.4f}, "
                  f"tracing.overhead {layers['tracing.overhead']:+.4f}")

    wanted = []
    if args.trace != "1":
        wanted += [m["name"] for m in declared["end_to_end"]]
    if args.trace != "0":
        wanted += [m["name"] for m in declared["per_layer"]]
    metrics = {}
    for name, result in results.items():
        if result is None:
            continue
        prefix = "" if len(names) == 1 else name + "."
        for metric in wanted:
            if metric in result["e2e_summary"]:
                value = result["e2e_summary"][metric]["median"]
            else:
                value = result["layers"][metric]
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}

    correct = all(v["correct"] for v in verdicts)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(v["attempted"] for v in verdicts),
        "failed": sum(v["failed"] for v in verdicts),
        "metrics": metrics,
    }))
    shutil.rmtree(run_dir, ignore_errors=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
