"""Command-line surface: declare a group, evaluate invariants of signals or
images, compare pairs against the exact orbit metric, run the scale
collision demo and the Lipschitz ratio benchmark.  JSON in, JSON out.
A command's words are parsed by its own subparser; what a process keeps
per group lives in the group's plan (orbitsep.plan).

Exit codes: 0 ok, 2 config or input error, 3 dimension or domain error,
4 internal invariant failure or unexpected exception.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, DimensionError, DomainError, OrbitsepError
from .groups import _norm, make_group, shift_action_spec, to_fourier
from .hermite import (
    cyclic_fixture_data,
    construct_counterexample,
    eval_rational_invariants,
    eval_scaled_invariants,
    hermite_as_dict,
)
from .io import KeyedRows, emit_json, read_image_csv, read_pgm, read_signal_json, write_output
from .metric import full_support_pairs, lipschitz_ratio_scan, orbit_distance
from .plan import plan
from .transforms import (
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


def _at_least(low, convert):
    """argparse type for a finite number >= low; anything else exits 2."""

    def parse(text):
        value = convert(text)
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(f"{text} is not a finite {convert.__name__} >= {low}")
        return value

    parse.__name__ = convert.__name__  # argparse names the type in its errors
    return parse


def _resolve_group(args):
    """Group from --shift NxM, or --orders plus --matrix.  Returns the group
    and, for the shift shorthand, the image shape."""
    if args.shift and (args.orders or args.matrix):
        raise ConfigError("give either --shift or --orders/--matrix, not both")
    if args.shift:
        n, m = _parse_shift(args.shift)
        return shift_action_spec(n, m), (n, m)
    if not args.orders or not args.matrix:
        raise ConfigError("group declaration required: --shift NxM, or --orders and --matrix")
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
        if not np.isfinite(signal).all():
            raise DomainError(f"image {path} has a Fourier coefficient beyond the double range")
    else:
        raise ConfigError(f"unsupported input type {suffix!r} (use .json, .csv, .pgm)")
    if len(signal) != group.dim:
        raise DimensionError(
            f"signal {path} has length {len(signal)}, group acts on dimension {group.dim}"
        )
    return signal


def _envelope(args) -> dict:
    return {"seed": args.seed, "tolerance": args.tol, "mode": args.mode, "version": __version__}


def _transform(name, group, seed, mode):
    """Read the named transform's data from the group's plan: the Hermite
    data, the exponent table, Theta's weights or Phi's reduction.

    Returns (id, evaluate, bound): evaluate(x) gives one signal's payload
    fields in output order, and also takes a (B, N) stack, whose "values"
    are the B rows; bound() gives Phi's certified Lipschitz constant and is
    None for the other transforms.  Evaluators are looked up by name when
    called, so wrappers installed on this module's globals see every call.
    """
    if name not in TRANSFORMS:
        raise ConfigError(f"unknown transform {name!r}; expected one of {TRANSFORMS}")
    group_plan = plan(group)
    if name == "rational":
        data = group_plan.hermite
        hermite = hermite_as_dict(data)

        def evaluate(x):
            result = eval_rational_invariants(data, x)
            return {"dim": data.dim, "values": result.values,
                    "domain_ok": result.domain_ok, "hermite": hermite}

        return "rational", evaluate, None
    if name == "g":
        data = group_plan.hermite

        def evaluate(x):
            sign, values = eval_scaled_invariants(data, x)
            return {"dim": values.shape[-1], "sign": sign, "values": values}

        return "G", evaluate, None
    table = group_plan.table()
    bound = None
    if name == "f":
        tid, vector = "F", lambda x: eval_monomial_map(table, x)
    elif name == "theta":
        beta = group_plan.beta
        tid, vector = "Theta", lambda x: eval_phase_map(table, beta, x)
    elif name == "phif":
        tid, vector = "PhiF", lambda x: eval_norm_scaled(table, x)
    else:
        ell = group_plan.reduction(seed)
        tid, vector = "Phi", lambda x: eval_lowdim(table, ell, x, mode)
        bound = lambda: lipschitz_bound(table, ell)

    def evaluate(x):
        values = vector(x).values
        return {"dim": values.shape[-1], "values": values}

    return tid, evaluate, bound


def cmd_exponents(args) -> dict:
    group, _ = _resolve_group(args)
    table = plan(group).table(args.max_tuple_size)
    (_, singles), pairs, triples = table.arrays
    return {
        **_envelope(args),
        "orders": list(group.orders),
        "matrix": [list(row) for row in group.exponents],
        "table": {"singles": singles[:, 0].tolist(), "pairs": KeyedRows(*pairs),
                  "triples": KeyedRows(*triples), "total_dim": table.total_dim},
    }


def cmd_invariants(args) -> dict:
    group, image_shape = _resolve_group(args)
    x = _load_signal(args.input, group, image_shape)
    tid, evaluate, _ = _transform(args.transform, group, args.seed, args.mode)
    return {**_envelope(args), "transform": tid, **evaluate(x)}


def cmd_compare(args) -> dict:
    group, image_shape = _resolve_group(args)
    first = _load_signal(args.input_a, group, image_shape)
    second = _load_signal(args.input_b, group, image_shape)
    tid, evaluate, _ = _transform(args.transform, group, args.seed, args.mode)
    values_a, values_b = evaluate(np.stack([first, second]))["values"]  # each row as its single call
    with np.errstate(all="ignore"):  # non-finite values give a non-finite gap
        gap, *norms = _norm(np.stack([values_a - values_b, values_a, values_b])).tolist()
    scale = max(1.0, *norms)
    payload = {**_envelope(args), "transform": tid, "transform_gap": gap}
    try:
        # Witness maps the first input onto the second under the action.
        oracle = orbit_distance(group, second, first)
    except DomainError:
        # A NaN gap says nothing, an infinite scale makes the tolerance
        # infinite, and a nonzero signal whose values all underflowed to
        # zero has lost them: in each case the values cannot decide.
        lost = any(x.any() and not values.any() for x, values in ((first, values_a), (second, values_b)))
        undecided = lost or math.isnan(gap) or (scale == math.inf and gap > 0)
        return {**payload, "equivalent": None if undecided else gap <= args.tol * scale,
                "distance": None, "witness": None, "oracle": False}
    return {**payload, "equivalent": oracle.distance < args.tol, "distance": oracle.distance,
            "witness": list(oracle.witness), "oracle": True}


def cmd_counterexample(args) -> dict:
    if args.n < 4:
        raise ConfigError(
            "counterexample needs --n >= 4: at n = 3 the scaling vector is "
            "(0, 1, 1), so it is nonnegative and every scale collision forces "
            "lambda = 1"
        )
    data = cyclic_fixture_data(args.n)
    # The seed signal of attempt i is the first signal of bench's pair i.
    for attempts, (y, _) in enumerate(full_support_pairs(data.group, 64, args.seed), 1):
        try:
            result = construct_counterexample(data, y / _norm(y))
        except DomainError:
            continue
        break
    else:
        raise DomainError("no usable seed signal found in 64 attempts; change --seed")
    return {**_envelope(args), "n": args.n, "lambda_y": result.lambda_y, "g_gap": result.g_gap,
            "orbit_distance": result.orbit_distance, "attempts": attempts,
            "scaled": result.scaled, "twisted": result.twisted}


def cmd_bench(args) -> dict:
    group, _ = _resolve_group(args)
    tid, evaluate, bound = _transform(args.transform, group, args.seed, args.mode)
    pairs = full_support_pairs(group, args.samples, args.seed)
    # The monomial kernel gathers two signals' three complex factors per
    # component: 12 doubles a pair for each entry of the exponent table.
    width = 12 * plan(group).table().total_dim
    ratio, _ = lipschitz_ratio_scan(lambda z: evaluate(z)["values"], group, pairs, width)
    return {
        **_envelope(args),
        "transform": tid,
        "kind": "full_support",
        "samples": args.samples,
        "max_ratio": ratio,
        "bound": bound and bound(),
    }


def _add_command(sub, name, handler, summary, group=True):
    """The command's subparser: its group flags unless group is false, then its run flags."""
    parser = sub.add_parser(name, help=summary)
    parser.set_defaults(handler=handler)
    if group:
        parser.add_argument("--orders", help="comma-separated generator orders")
        parser.add_argument("--matrix", help="character exponents, rows separated by ';'")
        parser.add_argument("--shift", metavar="NxM", help="circular image shift shorthand")
    parser.add_argument("--seed", type=_at_least(0, int), default=0)
    parser.add_argument("--tol", type=_at_least(0, float), default=1e-9)
    parser.add_argument("--mode", choices=("as_written", "repaired"), default="repaired")
    parser.add_argument("--out", help="write JSON here instead of stdout")
    return parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once; its commands map names to subparsers."""
    parser = argparse.ArgumentParser(
        prog="orbitsep",
        description="Orbit-separating invariant transforms for finite Abelian "
        "group actions on complex signals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = _add_command(sub, "exponents", cmd_exponents, "minimal invariant exponent table")
    p.add_argument("--max-tuple-size", type=int, default=3, choices=(1, 2, 3))
    p = _add_command(sub, "invariants", cmd_invariants, "evaluate a transform on one input")
    p.add_argument("--transform", choices=TRANSFORMS, default="f")
    p.add_argument("input", help="signal .json, or image .csv/.pgm with --shift")
    p = _add_command(sub, "compare", cmd_compare, "orbit-metric and transform comparison")
    p.add_argument("--transform", choices=TRANSFORMS, default="f")
    p.add_argument("input_a")
    p.add_argument("input_b")
    p = _add_command(sub, "counterexample", cmd_counterexample,
                     "scale collision demo for the unsigned map", group=False)
    p.add_argument("--n", type=int, default=4, help="cyclic shift length (>= 4)")
    p = _add_command(sub, "bench", cmd_bench, "empirical Lipschitz ratio scan")
    p.add_argument("--transform", choices=BENCH_TRANSFORMS, default="phi")
    p.add_argument("--samples", type=_at_least(1, int), default=200)
    parser.commands = sub.choices
    return parser


def _attach_matrix(argv):
    """argparse takes a word that starts with '-' for a flag unless the whole
    word is one negative number, so join a matrix such as -1,2;3,-4 to its
    --matrix flag with '='."""
    words = []
    for word in argv:
        if words and words[-1] == "--matrix" and word.startswith("-") and word[1:2].isdigit():
            words[-1] = f"--matrix={word}"
        else:
            words.append(word)
    return words


def main(argv=None) -> int:
    try:
        argv = _attach_matrix(sys.argv[1:] if argv is None else argv)
        parser = build_parser()
        command = parser.commands.get(argv[0]) if argv else None
        # A command's own parser takes its words in about half the top parser's time.
        args, extra = command.parse_known_args(argv[1:]) if command else parser.parse_known_args(argv)
        if extra:  # the top parser's error, as its parse_args reports them
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
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
