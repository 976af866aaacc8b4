"""The traced run of one workload (``run.py --trace 1``).

1. A child process runs the untraced window for half the run time and
   writes its cases (K of them) with their times and fingerprints.
2. This process installs the tracer, sets up the workload inside a
   ``bench.setup`` span and runs the same first K cases, each inside a
   ``bench.case`` span.  Every fingerprint must equal the untraced one.
3. The report gives each module's self time, the shares that show whether
   the workload isolates the layer it was designed for, the ten slowest
   cases with their per-module split, and the baseline probes, each in a
   fresh process.  The full report and the spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from time import perf_counter

import cases
import tracing
from run import (
    CHILD_TIMEOUT,
    HERE,
    OUT,
    ROOT,
    Workload,
    details_path,
    import_qjt,
    load_pins,
    report_failures,
    result_line,
    run_case,
)

SLOWEST = 10
# Baseline probes (the ROADMAP table) run after the traced window of the
# workload whose layer they time.
PROBES_OF = {
    "det": ["h6_x_h5_C3", "chi_h_sweep_C3"],
    "paths": ["path_sum_sweep_C3"],
    "tableaux": ["C4_22211_columns", "bijection_sweep_C3"],
    "cli-cold": [],
}


def untraced_reference(args) -> list:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(max(1.0, args.seconds / 2)), "--trace", "0", "--window-only"]
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT, stdout=subprocess.DEVNULL)
    return json.loads(details_path(args.workload, args.seed, 0).read_text())["cases"]


def traced_pass(args, count: int):
    """Run the first `count` cases traced; returns records and raw sums."""
    for m in tracing.MODULES:
        importlib.import_module(f"qjt.{m}")
    pins = load_pins()
    tracer = tracing.Tracer()
    raw: dict = {}
    records = []
    tracer.install()
    try:
        with tracer.root("bench.setup"):
            wl = Workload(args.workload, args.seed)
        for j, case in enumerate(cases.first_cases(wl.stream, count)):
            child_out = OUT / f"cli-child-{j}.json" if case.kind == "cli" else None
            rec = run_case(wl, case, pins, lambda: tracer.root("bench.case"), child_out)
            if child_out is not None and child_out.exists():
                child = json.loads(child_out.read_text())
                child_out.unlink()
                tracing.add_raw(raw, child["raw"])
                rec["split"] = dict(child["split"])
                # interpreter start and exit, imports and the tracer itself
                rec["split"]["process"] = rec["s"] - sum(child["split"].values())
                raw["cli.out_bytes"] = raw.get("cli.out_bytes", 0) + rec.get("out_bytes", 0)
            records.append(rec)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    tracing.add_raw(raw, {k: v for k, v in summary["raw"].items() if not k.startswith("bench.")})
    for rec in records:
        root = rec.pop("root", None)
        if "split" not in rec:
            rec["split"] = summary["roots"].get(root, {})
    setup_split = next(iter(summary["roots"].values()))
    return records, raw, setup_split, tracer


def isolation(workload: str, raw: dict, total: float) -> dict:
    """The shares that show whether a workload stresses its designed layer."""

    def share(*keys):
        return sum(raw.get(k, 0) for k in keys) / total if total else 0.0

    if workload == "det":
        return {"ring.mul.s": share("ring.mul.s")}
    if workload == "paths":
        return {
            "paths.self_s + ring.self_s": share("paths.self_s", "ring.self_s"),
            "paths.sum.s (inclusive)": share("paths.sum.s"),
            "jacobitrudi.chi.s (inclusive)": share("jacobitrudi.chi.s"),
            "jacobitrudi.self_s": share("jacobitrudi.self_s"),
        }
    if workload == "tableaux":
        return {"tableaux.enum.s": share("tableaux.enum.s")}
    imports = raw.get("cli.import_ms.sum", 0) / 1000
    return {
        "import": imports / total if total else 0.0,
        "series.build.s": share("series.build.s"),
        "import + series.build.s": share("series.build.s") + (imports / total if total else 0.0),
    }


def run_probes(workload: str) -> list:
    if cases.tiny():
        return []
    baseline = json.loads((HERE / "baseline.json").read_text())["probes"]
    out = []
    for name in PROBES_OF[workload]:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--probe", name], cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["baseline"] = baseline.get(name)
        out.append(res)
    return out


def main(args) -> int:
    import_qjt()
    OUT.mkdir(exist_ok=True)
    reference = untraced_reference(args)
    t0 = perf_counter()
    records, raw, setup_split, tracer = traced_pass(args, len(reference))
    traced_wall = perf_counter() - t0
    for rec, ref in zip(records, reference):
        if (rec["key"], rec["offset"], rec["fp"]) != (ref["key"], ref["offset"], ref["fp"]):
            rec["ok"] = False
            rec["error"] = f"traced fingerprint {rec['fp']} != untraced {ref['fp']}"
    report_failures(records)
    traced_s = sum(r["s"] for r in records)
    untraced_s = sum(r["s"] for r in reference)
    failed = sum(1 for r in records if not r["ok"])
    metrics = tracing.layer_metrics(raw)
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    metrics["fail_frac"] = (failed / len(records), "ratio")

    shares = isolation(args.workload, raw, traced_s)
    modules: dict = {}  # self time within the cases; the layer metrics also count set-up
    for rec in records:
        tracing.add_raw(modules, rec["split"])
    slowest = sorted(records, key=lambda r: r["s"], reverse=True)[:SLOWEST]
    probe_results = run_probes(args.workload)

    print(f"traced {args.workload} seed {args.seed}: {len(records)} cases, "
          f"{traced_s:.2f} s traced vs {untraced_s:.2f} s untraced "
          f"(overhead ratio {traced_s / untraced_s:.2f}); set-up {sum(setup_split.values()):.2f} s")
    print("self time by module within the cases (share of traced case time):")
    for m, s in sorted(modules.items(), key=lambda x: -x[1]):
        print(f"  {m:12s} {s:9.3f} s  {s / traced_s:6.1%}")
    print("isolation shares:", ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    print(f"{SLOWEST} slowest cases:")
    for r in slowest:
        split = ", ".join(f"{m} {s * 1000:.0f}" for m, s in sorted(r["split"].items(), key=lambda x: -x[1]) if s >= 5e-4)
        print(f"  {r['s'] * 1000:9.1f} ms  {r['key']}  [{split} ms]")
    for p in probe_results:
        base = p["baseline"] or {}
        print(f"probe {p['probe']}: {p['s']:.2f} s (seed baseline {base.get('s', float('nan')):.2f} s, "
              f"ROADMAP {base.get('roadmap_s', float('nan'))} s)")

    stem = OUT / f"trace-{args.workload}-seed{args.seed}"
    tracer.write_spans(stem.with_suffix(".spans"))
    stem.with_suffix(".json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "traced_wall_s": traced_wall,
        "metrics": {k: v for k, (v, _u) in metrics.items()}, "raw": raw, "module_self_s": modules,
        "isolation": shares, "setup_split": setup_split, "slowest": slowest, "probes": probe_results,
        "span_names": tracer.name_table, "cases": records,
    }, indent=1))
    print(result_line(records, metrics))
    return 0
