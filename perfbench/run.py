"""Run one qjt benchmark workload and print its metrics.

    python3 perfbench/run.py --workload det --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; qjt is imported from ``src/`` of that
checkout.  Each workload is a closed loop with one client: the next case
starts when the previous one has finished.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` first repeats the untraced window in a
child process, then runs the same cases with every public qjt function
wrapped, reports the per-layer metrics, the slowest cases and the baseline
probes, and writes the spans to ``.perfbench_out/``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import compileall
import json
import os
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import cases  # noqa: E402

SETUP_SAMPLES = 5
CHILD_TIMEOUT = 150
# Cases per second of a run, checking included, on a 2-vCPU x86_64 virtual
# machine.  A run does a fixed amount of work, --seconds times this rate, so
# it lasts about --seconds there.  Stopping on the clock instead would let a
# faster machine run more warm cases after the cold prefix and first round
# (caches fill in the window), which exaggerates every difference in speed.
CASES_PER_SECOND = {"det": 66, "paths": 50, "tableaux": 90, "cli-cold": 7.0}
# The series each library workload fills during set-up.
SERIES_FAMILIES = {"det": "ABCD", "paths": "ABC", "tableaux": "ABC"}


class SetupError(Exception):
    """The checkout holds no usable qjt source."""


def import_qjt():
    if not (SRC / "qjt" / "__init__.py").is_file():
        raise SetupError(f"no qjt package under {SRC}")
    # Byte-compile first, so that import time (paid by every cli-cold case)
    # does not depend on whether the environment lets Python write bytecode.
    compileall.compile_dir(str(SRC / "qjt"), quiet=1)
    sys.path.insert(0, str(SRC))
    import qjt

    if Path(qjt.__file__).resolve().parent != SRC / "qjt":
        raise SetupError(f"imported qjt from {qjt.__file__}, not from {SRC}")


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def cli_command(argv) -> list:
    return [sys.executable, "-m", "qjt.cli", *argv]


class Workload:
    """Set-up of one workload: qjt imported, inputs generated, series filled."""

    def __init__(self, name: str, seed: int):
        import_qjt()
        prefix, strata = cases.universe(name)
        self.stream = cases.rounds(prefix, strata, seed)
        self.lib = None
        if name != "cli-cold":
            self.lib = cases.Library()
            self.lib.fill_series(SERIES_FAMILIES[name])

    def run(self, case, span=nullcontext, trace_out=None):
        """Run one case inside `span`: (seconds, identity holds, fingerprint, extra).

        Only the calls into qjt (or the CLI process) are timed; the
        fingerprint is taken after the clock stops.
        """
        extra = {}
        if case.kind != "cli":
            with span() as root:
                t0 = perf_counter()
                ok, fp = self.lib.run(case)
                dt = perf_counter() - t0
            fp = fp()
        else:
            cmd = cli_command(case.argv)
            if trace_out is not None:
                cmd = [sys.executable, str(HERE / "cli_child.py"), str(trace_out), *case.argv]
            with span() as root:
                t0 = perf_counter()
                proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, timeout=CHILD_TIMEOUT)
                dt = perf_counter() - t0
            ok = cases.check_cli(proc.stdout, proc.returncode)
            fp = f"{len(proc.stdout)}:{cases.digest(proc.stdout)}"
            extra["out_bytes"] = len(proc.stdout)
        if root is not None:
            extra["root"] = root
        return dt, ok, fp, extra


def run_case(wl, case, pins, span=nullcontext, trace_out=None) -> dict:
    """One case, checked; an exception is a failed case, never an abort."""
    rec = {"key": case.key(), "offset": case.offset}
    t0 = perf_counter()
    try:
        dt, ok, fp, extra = wl.run(case, span, trace_out)
    except Exception as exc:  # the run goes on; the case counts as failed
        rec.update(s=perf_counter() - t0, ok=False, fp=None, error=f"{type(exc).__name__}: {exc}")
        return rec
    rec.update(s=dt, ok=ok, fp=fp, **extra)
    if pins.get(rec["key"]) != fp:
        rec["ok"] = False
        rec["error"] = f"fingerprint {fp} != pinned {pins.get(rec['key'])}"
    return rec


def timed_window(wl, pins, count: int):
    """The first `count` cases of the stream (the prefix, then the rounds)."""
    start = perf_counter()
    records = [run_case(wl, case, pins) for case in cases.first_cases(wl.stream, count)]
    return records, perf_counter() - start


def case_count(name: str, seconds: float) -> int:
    return max(1, round(seconds * CASES_PER_SECOND[name]))


def quantile_ms(values, q: int) -> float:
    """q-th decile of values (seconds) in ms; q = 5 is the median."""
    if len(values) < 2:
        return 1000 * values[0]
    return 1000 * statistics.quantiles(values, n=10)[q - 1]


def setup_seconds(name: str, seed: int) -> float:
    """Median time from process start to ready, over fresh set-up processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-only"],
            # a pipe makes the wait end at the child's exit; with no pipe and a
            # timeout, subprocess polls the child at up to 50 ms steps
            cwd=ROOT, check=True, timeout=CHILD_TIMEOUT, capture_output=True,
        )
        samples.append(perf_counter() - t0)
    return statistics.median(samples)


def load_pins() -> dict:
    return json.loads((HERE / "pins.json").read_text())


def details_path(name, seed, trace) -> Path:
    return OUT / f"{name}-seed{seed}-trace{trace}.json"


def result_line(records, metrics) -> str:
    failed = sum(1 for r in records if not r["ok"])
    return json.dumps({
        "correct": failed == 0 and bool(records),
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def report_failures(records):
    for r in records:
        if not r["ok"]:
            print(f"FAILED {r['key']} offset {r['offset']}: {r.get('error', 'identity does not hold')}")


def untraced(args) -> int:
    wl = Workload(args.workload, args.seed)
    pins = load_pins()
    records, wall = timed_window(wl, pins, case_count(args.workload, args.seconds))
    times = [r["s"] for r in records]
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024
    OUT.mkdir(exist_ok=True)
    details_path(args.workload, args.seed, 0).write_text(json.dumps({"wall_s": wall, "cases": records}))
    report_failures(records)
    if args.window_only:
        print(result_line(records, {}))
        return 0
    n = len(records)
    metrics = {
        # checking and fingerprinting are the benchmark's work, not qjt's
        "cases_per_s": (n / sum(times), "1/s"),
        "case_ms.p50": (quantile_ms(times, 5), "ms"),
        "case_ms.p90": (quantile_ms(times, 9), "ms"),
        "pass_frac": (1 - sum(1 for r in records if not r["ok"]) / n, "ratio"),
        "setup_s": (setup_seconds(args.workload, args.seed), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    print(f"{args.workload} seed {args.seed}: {n} cases, {sum(times):.2f} s in qjt, {wall:.2f} s window; "
          f"case_ms.p50 and case_ms.p90 over n={n} samples ({n // 10} beyond p90)")
    print(result_line(records, metrics))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one qjt benchmark workload.")
    ap.add_argument("--workload", choices=sorted(cases.UNIVERSES))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--window-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--probe", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.probe:
            import probes

            print(json.dumps(probes.run(args.probe)))
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        if args.setup_only:
            Workload(args.workload, args.seed)
            return 0
        if args.trace:
            import traced

            return traced.main(args)
        return untraced(args)
    except (SetupError, FileNotFoundError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    # Run as the module `run` that traced.py, probes.py and pin.py import, so
    # that there is one copy of its classes (SetupError) and state.
    import run

    sys.exit(run.main())
