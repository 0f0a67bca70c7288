"""Record digests of the outputs on the benchmark's seed-independent inputs.

    python3 bench/record_digests.py

Writes bench/digests.json: for every anchor item of every workload, the
SHA-256 of each step's canonical record, and for every CLI subprocess
command, the digest of its exit code and stdout.  The benchmark compares
later outputs against these, so re-record only at a commit that changes
a byte-stable output on purpose, and say so in the change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from run import OUT, ROOT, SRC, SUBPROCESS_COMMANDS

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402


def main() -> int:
    recorded: dict[str, dict] = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(0, False, OUT)
        for item in workload.setup():
            if not item.anchor:
                continue
            run = workloads.ItemRun()
            try:
                workload.run_item(run, item)
            except workloads._Abort:
                pass
            recorded.setdefault(name, {})[item.id] = {
                step: workloads.digest(record)
                for step, record in run.records().items()
            }
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for label, argv in SUBPROCESS_COMMANDS:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
            text=True, check=True)
        recorded.setdefault("subprocess", {})[label] = workloads.digest(
            f"exit 0\n{proc.stdout}")
    workloads.DIGESTS.write_text(
        json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
