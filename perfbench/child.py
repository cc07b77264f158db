"""Entry point of every measured child process.

    python -m perfbench.child REPORT.json [--trace] <trusskit arguments>

Calls ``trusskit.cli.main`` once with the arguments, as the ``trusskit``
console script does; with ``--trace`` under the per-layer spans of
``perfbench/tracing.py``. At exit it writes REPORT.json with the process's
peak resident set and, when traced, the spans and counts.

The peak is the kernel's VmHWM of this process's own address space. The
``ru_maxrss`` that ``wait4`` returns is no good here: Linux carries the
parent's peak into a child across ``exec``, so it would report the
benchmark's memory instead of the program's whenever that is larger.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    report_path, traced = Path(argv[0]), argv[1:2] == ["--trace"]
    cli_args = argv[2:] if traced else argv[1:]
    report: dict = {}
    tracer = None
    if traced:
        from perfbench.tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        return importlib.import_module("trusskit.cli").main(cli_args)
    finally:
        if tracer is not None:
            tracer.remove()
            report.update(tracer.report())
        report["peak_rss_kb"] = peak_rss_kb()
        report_path.write_text(json.dumps(report, sort_keys=True), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
