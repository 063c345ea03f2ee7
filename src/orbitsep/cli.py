"""Command-line surface: declare a group, evaluate invariants of signals or
images, compare pairs against the brute-force orbit metric, run the scale
collision demo and the Lipschitz ratio benchmark.  JSON in, JSON out.

Exit codes: 0 ok, 2 config or input error, 3 dimension or domain error,
4 internal invariant failure or unexpected exception.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, DimensionError, DomainError, OrbitsepError
from .exponents import build_exponent_table, table_as_dict
from .groups import make_group, shift_action_spec, to_fourier
from .hermite import (
    cyclic_fixture_data,
    construct_counterexample,
    eval_rational_invariants,
    eval_scaled_invariants,
    hermite_as_dict,
    hermite_multiplier,
    signed_quadratic,
)
from .io import emit_json, read_image_csv, read_pgm, read_signal_json, write_output
from .metric import _full_support, child_seed, lipschitz_ratio_scan, orbit_distance
from .transforms import (
    default_beta,
    default_reduction,
    eval_lowdim,
    eval_monomial_map,
    eval_norm_scaled,
    eval_phase_map,
    lipschitz_bound,
)

TRANSFORMS = ("f", "theta", "phi", "phif", "rational", "g")
BENCH_TRANSFORMS = ("f", "theta", "phi", "phif")


def _parse_ints(text: str, flag: str):
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{flag} expects comma-separated integers: {exc}") from exc


def _parse_matrix(text: str):
    rows = [row.strip() for row in text.split(";")]
    return [_parse_ints(row, "--matrix") for row in rows if row]


def _parse_shift(text: str):
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ConfigError(f"--shift expects NxM, got {text!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ConfigError(f"--shift expects NxM integers: {exc}") from exc
    return n, m


def _resolve_group(args):
    """Group from --shift NxM, or --orders plus --matrix.  Returns the group
    and, for the shift shorthand, the image shape."""
    if args.shift and (args.orders or args.matrix):
        raise ConfigError("give either --shift or --orders/--matrix, not both")
    if args.shift:
        n, m = _parse_shift(args.shift)
        return shift_action_spec(n, m), (n, m)
    if not args.orders or not args.matrix:
        raise ConfigError(
            "group declaration required: --shift NxM, or --orders and --matrix"
        )
    return make_group(_parse_ints(args.orders, "--orders"), _parse_matrix(args.matrix)), None


def _load_signal(path, group, image_shape):
    suffix = Path(path).suffix.lower()
    if suffix == ".json":
        signal = read_signal_json(path)
    elif suffix in (".csv", ".pgm"):
        if image_shape is None:
            raise ConfigError("image inputs need the --shift NxM group shorthand")
        image = read_pgm(path) if suffix == ".pgm" else read_image_csv(path)
        if image.shape != image_shape:
            raise DimensionError(
                f"image {path} is {image.shape[0]}x{image.shape[1]}, "
                f"--shift declares {image_shape[0]}x{image_shape[1]}"
            )
        signal = to_fourier(image)
    else:
        raise ConfigError(f"unsupported input type {suffix!r} (use .json, .csv, .pgm)")
    if len(signal) != group.dim:
        raise DimensionError(
            f"signal {path} has length {len(signal)}, group acts on dimension {group.dim}"
        )
    return signal


def _envelope(args) -> dict:
    return {
        "seed": args.seed,
        "tolerance": args.tol,
        "mode": args.mode,
        "version": __version__,
    }


def _transform(name, group, seed, mode):
    """Build the named transform's exponent table or Hermite data once.

    Returns (id, evaluate): evaluate(x) gives the payload fields for one
    signal, in output order.  The evaluators are looked up by name when
    called, so wrappers installed on this module's globals see every call.
    """
    if name == "rational":
        data = hermite_multiplier(group)
        hermite = hermite_as_dict(data)

        def evaluate(x):
            result = eval_rational_invariants(data, x)
            return {"dim": data.dim, "values": result.values,
                    "domain_ok": result.domain_ok, "hermite": hermite}

        return "rational", evaluate
    if name == "g":
        data = hermite_multiplier(group)

        def evaluate(x):
            sign, values = eval_scaled_invariants(data, x)
            return {"dim": len(values), "sign": sign, "values": values}

        return "G", evaluate
    if name not in TRANSFORMS:
        raise ConfigError(f"unknown transform {name!r}; expected one of {TRANSFORMS}")
    table = build_exponent_table(group)
    if name == "f":
        tid, vector = "F", lambda x: eval_monomial_map(table, x)
    elif name == "theta":
        beta = default_beta(table)
        tid, vector = "Theta", lambda x: eval_phase_map(table, beta, x)
    elif name == "phif":
        tid, vector = "PhiF", lambda x: eval_norm_scaled(table, x)
    else:
        ell = default_reduction(table, seed)
        tid, vector = "Phi", lambda x: eval_lowdim(table, ell, x, mode)

    def evaluate(x):
        values = vector(x).values
        return {"dim": len(values), "values": values}

    return tid, evaluate


def cmd_exponents(args) -> dict:
    group, _ = _resolve_group(args)
    table = build_exponent_table(group, args.max_tuple_size)
    return {
        **_envelope(args),
        "orders": list(group.orders),
        "matrix": [list(row) for row in group.exponents],
        "table": table_as_dict(table),
    }


def cmd_invariants(args) -> dict:
    group, image_shape = _resolve_group(args)
    x = _load_signal(args.input, group, image_shape)
    tid, evaluate = _transform(args.transform, group, args.seed, args.mode)
    return {**_envelope(args), "transform": tid, **evaluate(x)}


def cmd_compare(args) -> dict:
    group, image_shape = _resolve_group(args)
    first = _load_signal(args.input_a, group, image_shape)
    second = _load_signal(args.input_b, group, image_shape)
    tid, evaluate = _transform(args.transform, group, args.seed, args.mode)
    values_a = evaluate(first)["values"]
    values_b = evaluate(second)["values"]
    gap = float(np.linalg.norm(values_a - values_b))
    payload = {**_envelope(args), "transform": tid, "transform_gap": gap}
    try:
        # Witness maps the first input onto the second under the action.
        oracle = orbit_distance(group, second, first)
    except DomainError:
        scale = max(
            1.0, float(np.linalg.norm(values_a)), float(np.linalg.norm(values_b))
        )
        payload.update(
            {
                "equivalent": gap <= args.tol * scale,
                "distance": None,
                "witness": None,
                "oracle": False,
            }
        )
        return payload
    payload.update(
        {
            "equivalent": oracle.distance < args.tol,
            "distance": oracle.distance,
            "witness": list(oracle.witness),
            "oracle": True,
        }
    )
    return payload


def cmd_counterexample(args) -> dict:
    if args.n < 4:
        raise ConfigError(
            "counterexample needs --n >= 4: at n = 3 the scaling vector is "
            "(0, 1, 1), so it is nonnegative and every scale collision forces "
            "lambda = 1"
        )
    data = cyclic_fixture_data(args.n)
    attempts = 0
    result = None
    while result is None and attempts < 64:
        rng = np.random.default_rng(child_seed(args.seed, attempts))
        attempts += 1
        y = _full_support(rng, args.n)
        y = y / np.linalg.norm(y)
        if signed_quadratic(data, y) <= 0:
            continue
        try:
            result = construct_counterexample(data, y)
        except DomainError:
            continue
    if result is None:
        raise DomainError("no usable seed signal found in 64 attempts; change --seed")
    return {
        **_envelope(args),
        "n": args.n,
        "lambda_y": result.lambda_y,
        "g_gap": result.g_gap,
        "orbit_distance": result.orbit_distance,
        "attempts": attempts,
        "scaled": result.scaled,
        "twisted": result.twisted,
    }


def cmd_bench(args) -> dict:
    group, _ = _resolve_group(args)
    if args.transform == "phi":
        table = build_exponent_table(group)
        ell = default_reduction(table, args.seed)
        orders = group.orders
        if len(orders) == 2 and group.dim == orders[0] * orders[1]:
            kind = "image"
        elif len(orders) == 2:
            kind = "two_factor"
        else:
            kind = "generic"
        bound = lipschitz_bound(table, ell, kind)
        transform = lambda z: eval_lowdim(table, ell, z, args.mode).values
        tid = "Phi"
    elif args.transform in BENCH_TRANSFORMS:
        tid, evaluate = _transform(args.transform, group, args.seed, args.mode)
        transform = lambda z: evaluate(z)["values"]
        bound = None
    else:
        raise ConfigError(f"bench supports transforms {BENCH_TRANSFORMS}")
    ratio, _ = lipschitz_ratio_scan(transform, group, "full_support", args.samples, args.seed)
    return {
        **_envelope(args),
        "transform": tid,
        "kind": "full_support",
        "samples": args.samples,
        "max_ratio": ratio,
        "bound": bound,
    }


def _add_group_flags(parser):
    parser.add_argument("--orders", help="comma-separated generator orders")
    parser.add_argument("--matrix", help="character exponents, rows separated by ';'")
    parser.add_argument("--shift", metavar="NxM", help="circular image shift shorthand")


def _add_run_flags(parser):
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tol", type=float, default=1e-9)
    parser.add_argument("--mode", choices=("as_written", "repaired"), default="repaired")
    parser.add_argument("--out", help="write JSON here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitsep",
        description="Orbit-separating invariant transforms for finite Abelian "
        "group actions on complex signals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exponents", help="minimal invariant exponent table")
    _add_group_flags(p)
    _add_run_flags(p)
    p.add_argument("--max-tuple-size", type=int, default=3, choices=(1, 2, 3))
    p.set_defaults(handler=cmd_exponents)

    p = sub.add_parser("invariants", help="evaluate a transform on one input")
    _add_group_flags(p)
    _add_run_flags(p)
    p.add_argument("--transform", choices=TRANSFORMS, default="f")
    p.add_argument("input", help="signal .json, or image .csv/.pgm with --shift")
    p.set_defaults(handler=cmd_invariants)

    p = sub.add_parser("compare", help="orbit-metric and transform comparison")
    _add_group_flags(p)
    _add_run_flags(p)
    p.add_argument("--transform", choices=TRANSFORMS, default="f")
    p.add_argument("input_a")
    p.add_argument("input_b")
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("counterexample", help="scale collision demo for the unsigned map")
    _add_run_flags(p)
    p.add_argument("--n", type=int, default=4, help="cyclic shift length (>= 4)")
    p.set_defaults(handler=cmd_counterexample)

    p = sub.add_parser("bench", help="empirical Lipschitz ratio scan")
    _add_group_flags(p)
    _add_run_flags(p)
    p.add_argument("--transform", choices=BENCH_TRANSFORMS, default="phi")
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(handler=cmd_bench)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors itself
        return int(exc.code or 0)
    try:
        payload = args.handler(args)
        write_output(emit_json(payload), args.out)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DimensionError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OrbitsepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # noqa: BLE001 -- exit code 4 is the contract
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
