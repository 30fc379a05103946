"""One fresh benchmark process: either a set-up or one pass of a workload.

    child.py setup <workload> <seed> <size> <inputs-dir> <result.json>
    child.py pass  <workload> <inputs-dir> <out-dir> <trace 0|1> <result.json>

`setup` times importing routelens plus generating the workload's inputs.
`pass` imports routelens untimed, then calls `routelens.cli.main(argv)`
in-process for every step of the workload, timing each call. The parent
reads this process's peak RSS and checks the outputs.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

ADDRESS_SPACE_LIMIT = 3 * 1024**3  # bytes; a memory regression fails the pass

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _setup(workload: str, seed: str, size: str, inputs: str, result: str) -> None:
    started = time.perf_counter()
    import routelens.cli  # noqa: F401  the import a pass pays for
    import workloads

    workloads.make_inputs(workload, int(seed), Path(inputs), size)
    elapsed = time.perf_counter() - started
    Path(result).write_text(json.dumps({"setup_s": elapsed}))


def _pass(workload: str, inputs: str, out: str, trace: str, result: str) -> None:
    import routelens.cli
    import tracing
    import workloads

    spec = workloads.WORKLOADS[workload]
    recorder = tracing.Recorder() if trace == "1" else None
    main = routelens.cli.main
    if recorder is not None:
        recorder.install()
        main = recorder.wrap(tracing.ROOT_SPAN, main)
    steps = []
    for step in spec.steps:
        argv = spec.argv(step, Path(inputs), Path(out))
        error = None
        started = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed operation, not a dead benchmark
            code, error = None, traceback.format_exc()
        elapsed = time.perf_counter() - started
        steps.append({"name": step.name, "code": code, "seconds": elapsed, "error": error})
        if error:
            print(error, file=sys.stderr, flush=True)
    report = {"steps": steps}
    if recorder is not None:
        report["trace"] = recorder.finish()
        report["trace"]["counts"].update(spec.input_counts(Path(inputs)))
    Path(result).write_text(json.dumps(report))


if __name__ == "__main__":
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    sys.path.insert(0, str(SRC))
    mode, *rest = sys.argv[1:]
    {"setup": _setup, "pass": _pass}[mode](*rest)
