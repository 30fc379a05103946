"""Regenerate `reference.json`: artifact digests of every workload at the
default seed, plus the digests of the generated inputs.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter the artifacts (or the
inputs); the benchmark fails every step whose digests differ from it.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import DEFAULT_SEED, REFERENCE, SRC, WORK


def main() -> int:
    sys.path.insert(0, str(SRC))
    import routelens.cli
    import workloads

    doc = {"seed": DEFAULT_SEED, "workloads": {}}
    work = WORK / "reference"
    for name, spec in workloads.WORKLOADS.items():
        shutil.rmtree(work, ignore_errors=True)
        inputs, out = work / "inputs", work / "out"
        workloads.make_inputs(name, DEFAULT_SEED, inputs)
        entry = {"inputs": workloads.digests(inputs)}
        for step in spec.steps:
            code = routelens.cli.main(spec.argv(step, inputs, out))
            if code != 0:
                print(f"{name} {step.name}: exit code {code}", file=sys.stderr)
                return 1
            entry[step.name] = workloads.digests(out / step.name)
        doc["workloads"][name] = entry
    shutil.rmtree(WORK, ignore_errors=True)
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
