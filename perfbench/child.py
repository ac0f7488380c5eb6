"""One measured run in a fresh interpreter.

    python3 perfbench/child.py setup PLAN RESULT   import the CLI, load the scenarios, exit
    python3 perfbench/child.py run   PLAN RESULT   call anisograph.cli.main once per operation
    python3 perfbench/child.py trace PLAN RESULT   the same under the span tracer

PLAN is a JSON file ``{"ops": [argv, ...], "configs": [...], "workers": k}``,
where ``workers`` is the sweep's thread count, or null outside a sweep.
RESULT receives per-operation exit codes and ``cli.main`` wall seconds, and
for ``trace`` the per-layer metrics, the absent spans and whether every
wrapped function was put back.  ``anisograph`` must come from ``./src``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def _import_cli():
    from anisograph import cli

    src = (Path.cwd() / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"anisograph was imported from {cli.__file__}, not from {src}")
    return cli


def _run_ops(main, ops: list) -> dict:
    codes, seconds = [], []
    for argv in ops:
        t0 = time.perf_counter()
        code = main(list(argv))
        seconds.append(time.perf_counter() - t0)
        codes.append(code)
    return {"exit_codes": codes, "seconds": seconds}


def main(mode: str, plan_path: str, result_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    cli = _import_cli()
    if mode == "setup":
        for config in plan["configs"]:
            cli.load_scenario(config)
        result = {}
    elif mode == "run":
        result = _run_ops(cli.main, plan["ops"])
    elif mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        try:
            tracing.install(tracer)
            result = _run_ops(tracer.wrap("cli.main", cli.main), plan["ops"])
            result["metrics"], result["absent"] = tracing.summarize(tracer.spans, plan["workers"])
        finally:
            tracer.uninstall()
        result["restored"] = tracer.restored()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
