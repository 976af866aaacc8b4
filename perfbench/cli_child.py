"""Run one qjt CLI command in this fresh interpreter with the tracer on.

    python3 perfbench/cli_child.py SUMMARY.json QJT-ARGV...

The command's stdout and exit code are passed through unchanged; the trace
summary (raw sums and the per-module self-time split) goes to SUMMARY.json.
"""

import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import qjt.cli

    import_ms = 1000 * (perf_counter() - t0)
    import tracing

    # The tracer wraps only loaded modules; cli imports some of them lazily.
    for m in tracing.MODULES:
        importlib.import_module(f"qjt.{m}")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.root("bench.case"):
            code = qjt.cli.main(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    summary = tracer.summary()
    raw = summary["raw"]
    raw["cli.import_ms.sum"] = import_ms
    raw["cli.children"] = 1
    split = next(iter(summary["roots"].values()))
    Path(summary_path).write_text(json.dumps({"raw": raw, "split": split}))
    return code


if __name__ == "__main__":
    sys.exit(main())
