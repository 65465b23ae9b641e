"""Record the reference outputs the benchmark checks against.

Run from the repository root, on the commit whose outputs are the
reference:

    python3 perfbench/record_refs.py

Writes refs/<workload>.json: for cli_default the SHA-256 of every output
file per setting for each of the CLI_SEEDS simulation seeds, for
calibration the two overlaps, for multipair_hv the full HV distribution
at each truncation. Floats are written with repr precision.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import OUT_DIR, import_package, pin_blas_threads
from workloads import CLI_SEEDS, REFS_DIR, WORKLOADS


def main() -> int:
    pin_blas_threads()
    pf = import_package()
    REFS_DIR.mkdir(exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="record-") as tmp:
        refs = {
            "cli_default": {
                str(seed): WORKLOADS["cli_default"](pf, seed, Path(tmp), None).run_pass().outputs
                for seed in range(CLI_SEEDS)
            },
            "calibration": WORKLOADS["calibration"](pf, 0, Path(tmp), None).run_pass().outputs,
            "multipair_hv": WORKLOADS["multipair_hv"](pf, 0, Path(tmp), None).run_pass().outputs,
        }
    for name, data in refs.items():
        path = REFS_DIR / f"{name}.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
