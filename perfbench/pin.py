"""Regenerate the pinned fingerprints of every case in every universe.

    python3 perfbench/pin.py

Each library case is run once at offset 0 and must satisfy its identity
before it is pinned.  Each CLI command is run in a fresh interpreter; its
output is checked against the library (the character, tableau sum or path
sum it prints must equal chi_e) before its stdout digest is pinned.  Pins
describe this commit's answers: regenerate them only when an answer is meant
to change, and say so.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import cases
from run import ROOT, child_env, cli_command, import_qjt

PINS = Path(__file__).resolve().parent / "pins.json"


def cli_identity(lib, argv, obj) -> bool:
    """Cross-check one CLI JSON object against chi_e from the library."""
    verb = argv[0]
    if verb not in ("qchar", "tableaux", "paths"):
        return True
    opts = {a: v for a, v in zip(argv, argv[1:]) if a.startswith("--") and not v.startswith("--")}
    t = lib.ring.make_type(opts["--type"], int(opts["--rank"]))
    lam = tuple(map(int, opts["--lambda"].split(",")))
    mu = tuple(map(int, opts["--mu"].split(","))) if "--mu" in opts else ()
    chi = lib.jt.chi_e(t, lib.shapes.shape(lam, mu), int(opts.get("--offset", 0)))
    if verb == "qchar":
        return all(obj[k] == chi.to_json_obj() for k in ("h", "e") if k in obj)
    if verb == "tableaux":
        return obj["weight_sum"] == chi.to_json_obj()
    return obj["signed_sum"] == chi.to_text()


def main() -> int:
    import_qjt()
    lib = cases.Library()
    pins = {}
    bad = []
    for name in sorted(cases.UNIVERSES):
        prefix, strata = cases.UNIVERSES[name]()
        for case in prefix + [c for group in strata for c in group]:
            if case.kind == "cli":
                proc = subprocess.run(cli_command(case.argv), cwd=ROOT, env=child_env(), capture_output=True)
                ok = cases.check_cli(proc.stdout, proc.returncode) and cli_identity(
                    lib, case.argv, json.loads(proc.stdout)
                )
                fp = f"{len(proc.stdout)}:{cases.digest(proc.stdout)}"
            else:
                ok, fp = lib.run(case)
                fp = fp()
            if not ok:
                bad.append(case.key())
                continue
            pins[case.key()] = fp
    PINS.write_text(json.dumps(dict(sorted(pins.items())), indent=0) + "\n")
    if bad:
        print("identity failed, not pinned:", *bad, sep="\n  ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
