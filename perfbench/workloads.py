"""The benchmark's workloads and the checks on their outputs.

Each workload runs closed loop: one pass after another in one process.
A pass is a list of ops; each op is timed, its output is compared with
the reference recorded for it, and an op that raises, exits non-zero or
fails its check counts as failed. Every pass builds its own apparatus,
so no pass reads another's memoized distributions. run_pass reports the
name of each op through on_op before running it.

Workloads take photonfusion's modules and their recorded references as
arguments instead of importing or reading them, so the caller decides
which source tree is measured; refs=None runs without checks, to record.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

REFS_DIR = Path(__file__).resolve().parent / "refs"
RTOL = 1e-12
# cli_default maps the workload seed onto these recorded simulation seeds
CLI_SEEDS = 16
CALIBRATION_INPUT = {"pair_probability": 0.058, "efficiency": 0.265}
HV_TRUNCATIONS = (4, 5, 6, 7)


@dataclass
class PassResult:
    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    bytes_written: int = 0
    outputs: dict = field(default_factory=dict)


def rel_close(a: float, b: float, rtol: float = RTOL) -> bool:
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


def distributions_match(got: dict, ref: dict, rtol: float = RTOL) -> bool:
    """Same patterns, every probability within rtol relative."""
    return got.keys() == ref.keys() and all(rel_close(got[k], ref[k], rtol) for k in ref)


def _fail(op: str) -> None:
    print(f"op {op} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_refs(name: str) -> dict:
    return json.loads((REFS_DIR / f"{name}.json").read_text())


def write_default_config(pf, workdir: Path) -> Path:
    """The default config as a file, the way a user would pass it."""
    path = workdir / "default_config.json"
    pf.config.save_config(pf.config.default_config(), path)
    return path


class CliDefault:
    """simulate + analyze on the default config file, in process."""

    name = "cli_default"

    def __init__(self, pf, seed: int, workdir: Path, refs):
        self.pf = pf
        self.sim_seed = seed % CLI_SEEDS
        self.workdir = workdir
        self.config_path = write_default_config(pf, workdir)
        self.settings = pf.config.load_config(self.config_path).run.settings
        self.refs = None if refs is None else refs[str(self.sim_seed)]
        self.first = None
        self.passes = 0

    def per_setting(self, files: dict) -> dict:
        """Per setting: its histogram's hash plus the analyze outputs' hashes."""
        histograms = {f"{s}.csv" for s in self.settings}
        shared = {n: h for n, h in files.items() if n not in histograms}
        return {s: {f"{s}.csv": files.get(f"{s}.csv"), **shared} for s in self.settings}

    def run_pass(self, on_op=lambda op: None) -> PassResult:
        cli = self.pf.cli
        out = self.workdir / f"pass{self.passes}"
        self.passes += 1
        config = str(self.config_path)
        sink = io.StringIO()
        codes = None
        on_op("roundtrip")
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                codes = (
                    cli.main(["simulate", "--config", config,
                              "--seed", str(self.sim_seed), "--out", str(out)]),
                    cli.main(["analyze", str(out), "--config", config]),
                )
        except Exception:
            _fail("cli round trip")
        seconds = time.perf_counter() - start
        paths = sorted(p for p in out.glob("*") if p.is_file())
        files = {p.name: _sha256(p) for p in paths}
        written = sum(p.stat().st_size for p in paths)
        shutil.rmtree(out, ignore_errors=True)
        got = self.per_setting(files)
        expected = [self.per_setting(f) for f in (self.refs, self.first) if f is not None]
        failed = 0
        for setting, hashes in got.items():
            ok = codes == (0, 0) and all(hashes.values())
            failed += not (ok and all(hashes == e[setting] for e in expected))
        if self.first is None:
            self.first = files
        return PassResult(seconds, len(got), failed, written, files)


class Calibration:
    """calibrate_overlaps at the paper's running power."""

    name = "calibration"

    def __init__(self, pf, seed: int, workdir: Path, refs):
        self.pf = pf
        self.refs = refs

    def run_pass(self, on_op=lambda op: None) -> PassResult:
        on_op("calibrate")
        start = time.perf_counter()
        try:
            got = self.pf.experiment.calibrate_overlaps(**CALIBRATION_INPUT)
        except Exception:
            _fail("calibrate")
            got = None
        seconds = time.perf_counter() - start
        outputs = {}
        ok = got is not None
        if ok:
            outputs["calibrate"] = got._asdict()
            if self.refs is not None:
                ref = self.refs["calibrate"]
                ok = all(rel_close(outputs["calibrate"][k], ref[k]) for k in ref)
        return PassResult(seconds, 1, int(not ok), 0, outputs)


class MultipairHV:
    """HV distribution of the default four-source star at truncation 4..7."""

    name = "multipair_hv"

    def __init__(self, pf, seed: int, workdir: Path, refs):
        self.pf = pf
        self.config = pf.config.load_config(write_default_config(pf, workdir))
        self.refs = refs

    def run_pass(self, on_op=lambda op: None) -> PassResult:
        ex = self.pf.experiment
        src = self.config.sources
        result = PassResult()
        for trunc in HV_TRUNCATIONS:
            op = f"trunc{trunc}"
            result.attempted += 1
            on_op(op)
            start = time.perf_counter()
            try:
                app = ex.assemble_apparatus(
                    self.pf.topology.star_topology(src.count),
                    pair_probability=src.pair_probability,
                    synthesizer_overlap=src.synthesizer_overlap,
                    fusion_overlap=src.fusion_overlap,
                    detector_efficiency=self.config.detection.efficiency,
                    truncation_pairs=trunc,
                )
                dist = ex.absolute_outcome_distribution(app, ex.hv_setting())
            except Exception:
                _fail(op)
                dist = None
            result.seconds += time.perf_counter() - start
            if dist is None:
                result.failed += 1
                continue
            got = {p.bits: v for p, v in dist.items()}
            result.outputs[op] = got
            if self.refs is not None and not distributions_match(got, self.refs[op]):
                result.failed += 1
        return result


WORKLOADS = {w.name: w for w in (CliDefault, Calibration, MultipairHV)}
