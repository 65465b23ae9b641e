"""Compare the engine's outputs between two source trees, value by value.

    python tests/engine_diff.py dump SRC OUT
    python tests/engine_diff.py compare A B

dump imports photonfusion from SRC (a checkout, or its src directory)
and writes to OUT, as JSON of float.hex strings:

- absolute_outcome_distributions under HV, k0-k15 and the per-arm tuple
  (0.3, 1.1, 2.0, 5.0, 0.7, 2.9, 4.4, 6.0), its first n_arms angles, on
  the apparatus below, once as one plan and once with each setting alone,
  each on a fresh copy of the apparatus;
- calibrate_overlaps at (pair_probability, efficiency) = (0.058, 0.265),
  (0.2, 0.5) and (0.02, 0.9).

The apparatus: star-4 at truncation 4-7, star-2 at 2-6, chain-3 at 3-5,
the single source at 1-4 and a three-source triangle at 3-4, each at five
(p, gamma_s, gamma_f, xi) points (90); then the default star at 4-8, the
ideal star at 4-7, star-2 noisy and ideal at 2-5, chain-3 at 3-5 and the
two-source ring at 4 (21). The default star at 4-7 is in both lists, so
107 apparatus are computed, in about 20 s on one core.

compare reads B against A and prints the number of values compared, how
many differ in any bit, the largest relative change |a - b| / max(|a|,
|b|) at HV and at rotated settings, the values that are an exact zero in
one dump only, the negative values, and in each dump the settings whose
value alone differs in any bit from the same setting in its plan. It
exits 1 when a value moves by more than 1e-12 relative, an exact-zero set
differs, a value is negative, a setting alone differs from its plan or
the dumps hold different entries; otherwise 0.

Only the standard library and numpy are used.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

TOLERANCE = 1e-12
TUPLE = (0.3, 1.1, 2.0, 5.0, 0.7, 2.9, 4.4, 6.0)
POINTS = (
    (0.058, 0.94, 0.76, 0.265),
    (0.2, 1.0, 1.0, 1.0),
    (0.01, 0.5, 0.3, 0.9),
    (0.1, 0.0, 1.0, 0.5),
    (0.3, 0.8, 0.0, 0.05),
)
CALIBRATION = ((0.058, 0.265), (0.2, 0.5), (0.02, 0.9))


def _import(src: Path):
    """photonfusion from src, never another copy."""
    root = src / "src" if (src / "src" / "photonfusion").is_dir() else src
    sys.path.insert(0, str(root))
    import photonfusion.experiment as experiment
    import photonfusion.topology as topology

    loaded = Path(experiment.__file__).resolve().parent
    if loaded != (root / "photonfusion").resolve():
        raise SystemExit(f"error: imported photonfusion from {loaded}, not {root}")
    return experiment, topology


def _apparatus(experiment, topology) -> dict:
    """Name -> apparatus, in a fixed order."""
    triangle = topology.FusionTopology(((1, 2), (3, 4), (5, 6)), ((1, 3), (3, 5), (1, 5)))
    ring = topology.FusionTopology(((1, 2), (3, 4)), ((2, 3), (4, 1)))
    shapes = (
        ("star4", topology.star_topology(4), range(4, 8)),
        ("star2", topology.star_topology(2), range(2, 7)),
        ("chain3", topology.chain_topology(3), range(3, 6)),
        ("single", topology.single_source_topology(), range(1, 5)),
        ("triangle", triangle, range(3, 5)),
    )
    grid = [
        (name, top, t, point)
        for name, top, orders in shapes
        for t in orders
        for point in POINTS
    ]
    grid += [("star4", topology.star_topology(4), t, POINTS[0]) for t in range(4, 9)]
    ideal = (0.058, 1.0, 1.0, 0.265)
    grid += [("star4", topology.star_topology(4), t, ideal) for t in range(4, 8)]
    for point in ((0.05, 0.9, 0.8, 0.7), (0.05, 1.0, 1.0, 1.0)):
        grid += [("star2", topology.star_topology(2), t, point) for t in range(2, 6)]
    chain = (0.058, 0.94, 0.6, 0.265)
    grid += [("chain3", topology.chain_topology(3), t, chain) for t in range(3, 6)]
    grid += [("ring2", ring, 4, POINTS[0])]
    out = {}
    for name, top, t, (p, gs, gf, xi) in grid:
        out[f"{name} t{t} p={p} gs={gs} gf={gf} xi={xi}"] = experiment.assemble_apparatus(
            top, pair_probability=p, synthesizer_overlap=gs, fusion_overlap=gf,
            detector_efficiency=xi, truncation_pairs=t,
        )
    return out


def _hexed(distribution: dict) -> dict:
    return {str(pattern): float(value).hex() for pattern, value in distribution.items()}


def dump(src: Path, out: Path) -> None:
    start = time.perf_counter()
    experiment, topology = _import(src)
    distributions = {}
    for key, app in _apparatus(experiment, topology).items():
        plan = [experiment.hv_setting()]
        plan += [experiment.k_setting(k, app.n_arms) for k in range(16)]
        plan.append(experiment.angle_setting(TUPLE[: app.n_arms], label="tuple"))
        together = experiment.absolute_outcome_distributions(dataclasses.replace(app), plan)
        distributions[key] = {
            "plan": {s.label: _hexed(d) for s, d in zip(plan, together)},
            "alone": {
                s.label: _hexed(
                    experiment.absolute_outcome_distribution(dataclasses.replace(app), s)
                )
                for s in plan
            },
        }
    calibration = {
        f"p={p} xi={xi}": [
            float(v).hex()
            for v in experiment.calibrate_overlaps(pair_probability=p, efficiency=xi)
        ]
        for p, xi in CALIBRATION
    }
    out.write_text(json.dumps({"distributions": distributions, "calibration": calibration}))
    seconds = time.perf_counter() - start
    print(f"{len(distributions)} apparatus written to {out} in {seconds:.1f} s")


def _relative(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0


def compare(first: Path, second: Path) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (first, second))
    problems = []
    if a["distributions"].keys() != b["distributions"].keys():
        problems.append("the dumps hold different apparatus")
    compared = differ = zeros = negative = 0
    worst = {"HV": 0.0, "rotated": 0.0}
    split = {"A": 0, "B": 0}
    for key in a["distributions"].keys() & b["distributions"].keys():
        for name, data in (("A", a), ("B", b)):
            dist = data["distributions"][key]
            split[name] += sum(dist["alone"][s] != dist["plan"][s] for s in dist["plan"])
        plan_a, plan_b = a["distributions"][key]["plan"], b["distributions"][key]["plan"]
        if plan_a.keys() != plan_b.keys():
            problems.append(f"{key}: different settings")
        for label in plan_a.keys() & plan_b.keys():
            if plan_a[label].keys() != plan_b[label].keys():
                problems.append(f"{key} {label}: different patterns")
            for pattern in plan_a[label].keys() & plan_b[label].keys():
                hex_a, hex_b = plan_a[label][pattern], plan_b[label][pattern]
                x, y = float.fromhex(hex_a), float.fromhex(hex_b)
                compared += 1
                differ += hex_a != hex_b
                zeros += (x == 0.0) != (y == 0.0)
                negative += (x < 0.0) + (y < 0.0)
                kind = "HV" if label == "HV" else "rotated"
                worst[kind] = max(worst[kind], _relative(x, y))
    cal_differ, cal_worst = 0, 0.0
    for point in a["calibration"].keys() | b["calibration"].keys():
        pairs = list(zip(a["calibration"].get(point, ()), b["calibration"].get(point, ())))
        if len(pairs) != 2:
            problems.append(f"calibration {point}: missing")
        for x, y in pairs:
            cal_differ += x != y
            cal_worst = max(cal_worst, _relative(float.fromhex(x), float.fromhex(y)))
    print(f"values compared: {compared}")
    print(f"bit-different: {differ}")
    print(f"largest relative change: HV {worst['HV']:.3g}, rotated {worst['rotated']:.3g}")
    print(f"exact-zero set differences: {zeros}")
    print(f"negative values: {negative}")
    for name, count in split.items():
        print(f"settings that differ alone and in their plan in {name}: {count}")
    print(f"calibrate_overlaps: {cal_differ} bit-different, largest relative {cal_worst:.3g}")
    if max(worst.values()) > TOLERANCE or cal_worst > TOLERANCE:
        problems.append(f"a value moved by more than {TOLERANCE} relative")
    if zeros:
        problems.append("exact-zero sets differ")
    if negative:
        problems.append("negative values")
    if any(split.values()):
        problems.append("a setting alone differs from its plan")
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    d = sub.add_parser("dump", help="write one source tree's outputs")
    d.add_argument("src", type=Path)
    d.add_argument("out", type=Path)
    c = sub.add_parser("compare", help="compare two dumps")
    c.add_argument("first", type=Path)
    c.add_argument("second", type=Path)
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.src, args.out)
        return 0
    return compare(args.first, args.second)


if __name__ == "__main__":
    sys.exit(main())
