"""Command-line front end.

Four subcommands cover the workflow: simulate a run plan into histogram
files, analyze a directory of histograms into a witness report plus
plot-data CSVs, enumerate topology noise terms, and estimate coincidence
rates. All files are written atomically so an interrupted run never
leaves a half-written artifact, and every output is a pure function of
(config, seed).

Exit codes: 0 success, 2 bad config or parameters, 3 missing input
files, 4 internal consistency failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
from pathlib import Path

from .analysis import witness_from_histograms
from .config import ConfigError, config_topology, default_config, load_config
from .experiment import (
    CoincidenceHistogram,
    absolute_outcome_distributions,
    all_detection_patterns,
    build_apparatus,
    histogram_from_lines,
    histogram_to_lines,
    monte_carlo_counts,
    outcome_distribution,
    setting_from_label,
)
from .topology import (
    chain_topology,
    enumerate_error_terms,
    error_terms_csv_lines,
    n_fold_rate,
    star_topology,
)

__all__ = ["main"]


class MissingInputError(RuntimeError):
    pass


class InternalCheckError(RuntimeError):
    pass


# ---- Shared plumbing ----


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _load_config(args):
    if args.config is None:
        return default_config()
    return load_config(args.config)


# ---- Subcommands ----


def cmd_simulate(args) -> int:
    config = _load_config(args)
    apparatus = build_apparatus(config)
    out_dir = Path(args.out or config.output.directory)
    seed = config.run.seed if args.seed is None else args.seed
    settings = [setting_from_label(label, apparatus.n_arms) for label in config.run.settings]
    # one pass over the emission ensemble fills the apparatus's cache with
    # every setting of the plan; each setting below reads its distribution
    absolute_outcome_distributions(apparatus, settings)
    for label, setting in zip(config.run.settings, settings):
        duration_s = config.run.duration_hours[label] * 3600.0
        if args.exact:
            dist = outcome_distribution(apparatus, setting)
            if abs(sum(dist.values()) - 1.0) > 1e-9:
                raise InternalCheckError(
                    f"exact distribution for {label} does not close"
                )
            hist = CoincidenceHistogram(setting, dist, duration_s, seed, exact=True)
        else:
            hist = monte_carlo_counts(apparatus, setting, duration_s, seed)
        path = out_dir / f"{label}.csv"
        _atomic_write(path, "\n".join(histogram_to_lines(hist)) + "\n")
        print(f"{label}: {hist.total:g} events -> {path}")
    return 0


def cmd_analyze(args) -> int:
    config = _load_config(args)
    directory = Path(args.directory or config.output.directory)
    labels = config.run.settings
    paths = {label: directory / f"{label}.csv" for label in labels}
    missing = [str(p) for p in paths.values() if not p.exists()]
    if missing:
        raise MissingInputError("missing histogram files: " + ", ".join(missing))
    histograms = []
    for label in labels:
        try:
            lines = paths[label].read_text().splitlines()
            histograms.append(histogram_from_lines(lines))
        except ValueError as exc:
            raise MissingInputError(f"{paths[label]}: {exc}") from exc
    try:
        report = witness_from_histograms(histograms)
    except ValueError as exc:
        raise MissingInputError(f"{directory}: {exc}") from exc
    if not -1.0 <= report.fidelity.value <= 1.0:
        raise InternalCheckError(f"fidelity {report.fidelity.value} out of range")

    formats = set(config.output.formats)
    written = []
    if "json" in formats:
        path = directory / "witness.json"
        _atomic_write(path, json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
        written.append(path)
    if "csv" in formats:
        hv = next(h for h in histograms if h.setting.angles is None)
        width = len(next(iter(hv.counts)).bits)
        lines = ["pattern,count"]
        for pat in all_detection_patterns(width):
            lines.append(f"{pat.bits},{hv.counts.get(pat, 0)}")
        path = directory / "fig3a.csv"
        _atomic_write(path, "\n".join(lines) + "\n")
        written.append(path)

        lines = ["k,signed_expectation,sigma"]
        for k, res in report.correlation_terms:
            signed = (-1) ** k * res.value
            lines.append(f"{k},{signed!r},{res.sigma!r}")
        path = directory / "fig3b.csv"
        _atomic_write(path, "\n".join(lines) + "\n")
        written.append(path)

    sig = report.significance_sigmas
    sig_text = "unbounded" if sig is None else f"{sig:.2f} sigma above 0.5"
    print(f"fidelity: {report.fidelity.value:.6f} +/- {report.fidelity.sigma:.6f}")
    print(f"entangled: {'yes' if report.entangled else 'no'} ({sig_text})")
    for path in written:
        print(f"wrote {path}")
    return 0


def _topology_for(args):
    if args.shape == "custom":
        if args.config is None:
            raise ConfigError(["custom shape needs --config with the wiring lists"])
        config = load_config(args.config)
        if config.topology.shape != "custom":
            raise ConfigError(
                [f"config topology shape is {config.topology.shape!r}, not custom"]
            )
        return config_topology(config)
    if args.shape == "star":
        return star_topology(args.count)
    return chain_topology(args.count)


def cmd_topology(args) -> int:
    topology = _topology_for(args)
    rows = enumerate_error_terms(topology, args.order)
    lines = error_terms_csv_lines(rows)
    out_dir = Path(args.out) if args.out is not None else Path(".")
    path = out_dir / f"topology_{args.shape}_order{args.order}.csv"
    _atomic_write(path, "\n".join(lines) + "\n")
    total = sum(row.multiplicity for row in rows)
    errors = sum(row.multiplicity for row in rows if row.erroneous)
    print(
        f"{args.shape} order {args.order}: {total} admitted patterns, "
        f"{errors} erroneous"
    )
    print(f"wrote {path}")
    return 0


def cmd_rate(args) -> int:
    estimate = n_fold_rate(
        args.pair_probability,
        args.efficiency,
        args.repetition_rate_hz,
        args.n_pairs,
        args.success_factor,
    )
    print(f"rate_hz: {estimate.rate_hz!r}")
    print(f"events_per_hour: {estimate.events_per_hour!r}")
    if estimate.rate_hz > 0:
        print(f"hours_per_event: {1.0 / estimate.events_per_hour!r}")
    else:
        print("hours_per_event: unbounded")
    return 0


# ---- Parser ----


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonfusion",
        description="Simulate and analyze multi-pair photon fusion runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the configured plan into histogram files")
    p.add_argument("--config", type=Path, help="experiment config file")
    p.add_argument("--seed", type=int, help="override the configured seed")
    p.add_argument("--exact", action="store_true",
                   help="write analytic distributions instead of sampled counts")
    p.add_argument("--out", type=Path, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="assemble the witness report from histograms")
    p.add_argument("directory", nargs="?", help="histogram directory")
    p.add_argument("--config", type=Path, help="experiment config file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("topology", help="enumerate noise terms of a fusion layout")
    p.add_argument("shape", choices=("star", "chain", "custom"))
    p.add_argument("--order", type=int, required=True, help="total pair number")
    p.add_argument("--count", type=int, default=4, help="source count")
    p.add_argument("--config", type=Path, help="config providing custom wiring")
    p.add_argument("--out", type=Path, help="output directory")
    p.set_defaults(func=cmd_topology)

    p = sub.add_parser("rate", help="estimate the accepted coincidence rate")
    p.add_argument("--pair-probability", type=float, default=0.058)
    p.add_argument("--efficiency", type=float, default=0.070225,
                   help="per-source pair detection efficiency")
    p.add_argument("--repetition-rate-hz", type=float, default=76e6)
    p.add_argument("--n-pairs", type=int, default=4)
    p.add_argument("--success-factor", type=float, default=0.125,
                   help="fusion and post-selection acceptance")
    p.set_defaults(func=cmd_rate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MissingInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
