"""Seeded op lists for the three benchmark workloads.

A run is a list of whole rounds.  Every round holds the same fixed mix of op
kinds, sizes and group classes, so the median and the tail rank fall inside
one size class.  The seed chooses pixel values, shifts, file formats,
signals, group matrices and the order of ops; it never changes the mix.

Inputs are written with writers of this module (PGM, CSV, signal JSON), not
with orbitsep's own readers or emitters.  orbitsep receives only the written
files and the flags in each op's argv.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TRANSFORMS = ("f", "theta", "phif", "phi")

# shift-images: (image shape, transforms, twin pairs per transform per round).
# One 8x8 pair costs about as much as the rest of the round, so it runs with
# one transform only; 32 of the 90 ops per round are 6x6 or larger, so the
# tail rank lands among the 6x6 ops and the median among the 2x3 ops.
SHIFT_ROUND = (
    ((2, 3), TRANSFORMS, 8),
    ((4, 4), TRANSFORMS, 2),
    ((6, 6), TRANSFORMS, 1),
    ((8, 8), ("f",), 1),
)
IMAGE_FORMATS = ("p2", "p5", "csv")

# orbit-pairs: declared groups (label, orders, character matrix), chosen so
# that the exponent tables are small and the orbit metric dominates.
ORBIT_GROUPS = (
    ("1e6", (100, 100, 100), ((11, 45, 94, 65), (48, 68, 72, 52), (92, 88, 18, 76))),
    ("1e5", (10, 100, 100), ((7, 1, 7, 5, 2, 6), (55, 46, 30, 2, 64, 62), (3, 30, 13, 80, 51, 10))),
    (
        "1e4a",
        (10, 10, 10, 10),
        (
            (7, 0, 2, 2, 2, 9, 5, 9),
            (6, 2, 6, 1, 0, 6, 7, 6),
            (0, 1, 8, 7, 2, 8, 7, 1),
            (8, 8, 2, 1, 0, 1, 1, 1),
        ),
    ),
    ("1e4b", (10, 1000), ((7, 2, 5, 2, 6), (641, 687, 597, 740, 609))),
)
# Same-orbit plus independent pairs per transform per round, by group label.
# The 10^4 groups get two of each so the median falls inside their class.
ORBIT_PAIRS_PER_KIND = {"1e6": 1, "1e5": 1, "1e4a": 2, "1e4b": 2}
ORBIT_TRANSFORMS = ("theta", "phi", "phif")
BENCH_GROUPS = ("1e4a", "1e4b")
BENCH_SAMPLES = 20

# fresh-groups: every round has one op per (kind, group class).
FRESH_KINDS = ("exponents", "rational", "g", "compare")
FRESH_CLASSES = ("gen1", "gen2", "gen3", "cyclic")
FRESH_ORDER_RANGE = (2, 60)
FRESH_DIM_RANGE = (3, 10)
CYCLIC_RANGE = (3, 64)

# Seconds one round takes with orbitsep 0.1.0 on a 2-core machine.  A run
# makes round(seconds / this) rounds: a fixed op list per (seed, seconds), so
# two versions of orbitsep are compared op for op and counts repeat exactly.
NOMINAL_ROUND_S = {"shift-images": 7.0, "orbit-pairs": 6.5, "fresh-groups": 0.5}

WORKLOADS = tuple(NOMINAL_ROUND_S)


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


@dataclass
class Op:
    """One orbitsep invocation and what its output is checked against."""

    op_id: int
    kind: str
    cls: str
    argv: list
    expect: dict
    files: dict = field(default_factory=dict)


def _rng(seed: int, workload: str, round_index: int):
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    return np.random.default_rng((int(seed), tag, int(round_index)))


def _matrix_text(matrix) -> str:
    return ";".join(",".join(str(int(v)) for v in row) for row in matrix)


def _group_flags(orders, matrix) -> list:
    return ["--orders", ",".join(str(p) for p in orders), "--matrix", _matrix_text(matrix)]


def signal_bytes(z) -> bytes:
    return json.dumps([[float(v.real), float(v.imag)] for v in z]).encode()


def image_bytes(image, fmt: str) -> bytes:
    h, w = image.shape
    if fmt == "p5":
        return f"P5\n{w} {h}\n255\n".encode() + image.astype(np.uint8).tobytes()
    if fmt == "p2":
        rows = "\n".join(" ".join(str(int(v)) for v in row) for row in image)
        return f"P2\n# benchmark image\n{w} {h}\n255\n{rows}\n".encode()
    return ("\n".join(",".join(str(int(v)) for v in row) for row in image) + "\n").encode()


def full_support(rng, n: int, floor: float = 0.05) -> np.ndarray:
    z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)
    small = np.abs(z) < floor
    while small.any():
        z[small] = (rng.standard_normal(small.sum()) + 1j * rng.standard_normal(small.sum())) / math.sqrt(2.0)
        small = np.abs(z) < floor
    return z


def phases(orders, matrix, element) -> np.ndarray:
    """Unit multipliers of one group element on each coordinate."""
    turns = sum(
        (int(g) * np.asarray(row, dtype=np.int64) % p) / p
        for g, row, p in zip(element, matrix, orders)
    )
    return np.exp(2j * np.pi * np.asarray(turns, dtype=float))


def _shift_round(seed: int, r: int, next_id) -> list:
    rng = _rng(seed, "shift-images", r)
    ops = []
    for (n, m), transforms, pairs in SHIFT_ROUND:
        for transform in transforms:
            for _ in range(pairs):
                image = rng.integers(0, 256, size=(n, m))
                shift = (0, 0)
                while shift == (0, 0):
                    shift = (int(rng.integers(0, n)), int(rng.integers(0, m)))
                twin = np.roll(image, (-shift[0], -shift[1]), axis=(0, 1))
                # Integer images can have a DFT coefficient that is exactly 0.
                spectrum = np.abs(np.fft.fft2(image))
                degenerate = bool(spectrum.min() <= 1e-9 * spectrum.max())
                op_seed = str(int(rng.integers(0, 2**31)))
                pair = None
                for img in (image, twin):
                    fmt = IMAGE_FORMATS[int(rng.integers(0, len(IMAGE_FORMATS)))]
                    op_id = next_id()
                    pair = op_id if pair is None else pair
                    path = f"in/{op_id}.{'pgm' if fmt != 'csv' else 'csv'}"
                    argv = ["invariants", "--shift", f"{n}x{m}", "--transform", transform,
                            "--seed", op_seed, path]
                    ops.append(Op(op_id, "shift", f"{n}x{m}", argv,
                                  {"pair": pair, "dim_n": n * m, "transform": transform,
                                   "degenerate": degenerate},
                                  {path: image_bytes(img, fmt)}))
    return [ops[i] for i in rng.permutation(len(ops))]


def _orbit_round(seed: int, r: int, next_id) -> list:
    rng = _rng(seed, "orbit-pairs", r)
    ops = []
    for label, orders, matrix in ORBIT_GROUPS:
        n = len(matrix[0])
        for transform in ORBIT_TRANSFORMS:
            for _ in range(ORBIT_PAIRS_PER_KIND[label]):
                for same in (True, False):
                    a = full_support(rng, n)
                    if same:
                        element = [int(rng.integers(0, p)) for p in orders]
                        b = phases(orders, matrix, element) * a
                    else:
                        b = full_support(rng, n)
                    op_id = next_id()
                    pa, pb = f"in/{op_id}a.json", f"in/{op_id}b.json"
                    argv = ["compare", *_group_flags(orders, matrix), "--transform", transform, pa, pb]
                    expect = {"orders": orders, "matrix": matrix, "a": a, "b": b, "transform": transform,
                              "same_orbit": same, "sample_seed": int(rng.integers(0, 2**31))}
                    ops.append(Op(op_id, "compare", label, argv, expect,
                                  {pa: signal_bytes(a), pb: signal_bytes(b)}))
        if label in BENCH_GROUPS:
            op_id = next_id()
            argv = ["bench", *_group_flags(orders, matrix), "--transform", "phi",
                    "--samples", str(BENCH_SAMPLES), "--seed", str(int(rng.integers(0, 2**31)))]
            ops.append(Op(op_id, "bench", label, argv, {"samples": BENCH_SAMPLES}))
    return [ops[i] for i in rng.permutation(len(ops))]


def _log_uniform(u: float, lo: int, hi: int) -> int:
    return min(hi, max(lo, int(round(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))))))


def _fresh_group(rng, cls: str, u, seen: set):
    """A group not in `seen`.  u holds the slot's stratified draws in [0, 1)
    for the dimension and orders, or for the cyclic length; matrices are
    random."""
    if cls == "cyclic":
        n = _log_uniform(u[0], *CYCLIC_RANGE)
        while True:
            # The first unused unit: table cost depends on the generator, so
            # the cyclic ops cost the same for every seed.
            g = next((g for g in range(1, n) if math.gcd(g, n) == 1 and (n, g) not in seen), None)
            if g is not None:
                seen.add((n, g))
                return (n,), ((*(g * k % n for k in range(1, n)), 0),)
            n = n + 1 if n < CYCLIC_RANGE[1] else CYCLIC_RANGE[0]
    lo, hi = FRESH_DIM_RANGE
    dim = lo + int(u[0] * (hi - lo + 1))
    orders = tuple(_log_uniform(u[1 + i], *FRESH_ORDER_RANGE) for i in range(int(cls[-1])))
    while True:
        matrix = tuple(tuple(int(v) for v in rng.integers(0, p, size=dim)) for p in orders)
        if (orders, matrix) not in seen:
            seen.add((orders, matrix))
            return orders, matrix


def _fresh_rounds(seed: int, rounds: int, next_id) -> list:
    """Each (kind, class) slot takes its parameters from a Latin hypercube
    over the rounds that does not depend on the seed: every run of a given
    length holds the same parameter tuples, and the seed only shuffles them
    across rounds and draws the matrices and signals."""
    rng = _rng(seed, "fresh-groups", rounds)
    slots = [(k, c) for k in FRESH_KINDS for c in FRESH_CLASSES]
    fixed = np.random.default_rng((rounds, 2019))
    grid = {slot: (np.argsort(fixed.random((4, rounds)), axis=1) + 0.5)[:, rng.permutation(rounds)] / rounds
            for slot in slots}
    seen: set = set()
    pool = []
    for r in range(rounds):
        rng = _rng(seed, "fresh-groups", r)
        ops = []
        for kind, cls in slots:
            orders, matrix = _fresh_group(rng, cls, grid[kind, cls][:, r], seen)
            n = len(matrix[0])
            op_id = next_id()
            flags = _group_flags(orders, matrix)
            expect = {"orders": orders, "matrix": matrix}
            files = {}
            if kind == "exponents":
                argv = ["exponents", *flags]
            else:
                a = full_support(rng, n)
                pa = f"in/{op_id}a.json"
                files[pa] = signal_bytes(a)
                expect["a"] = a
                if kind == "compare":
                    b = full_support(rng, n)
                    pb = f"in/{op_id}b.json"
                    files[pb] = signal_bytes(b)
                    expect.update(b=b, transform="f", same_orbit=False, sample_seed=int(rng.integers(0, 2**31)))
                    argv = ["compare", *flags, "--transform", "f", pa, pb]
                else:
                    argv = ["invariants", *flags, "--transform", kind, pa]
            ops.append(Op(op_id, kind, cls, argv, expect, files))
        pool.append([ops[i] for i in rng.permutation(len(ops))])
    return pool


def build_pool(workload: str, seed: int, rounds: int) -> list:
    """The workload's rounds, each a list of Op, in run order."""
    next_id = iter(range(1 << 62)).__next__
    if workload == "shift-images":
        return [_shift_round(seed, r, next_id) for r in range(rounds)]
    if workload == "orbit-pairs":
        return [_orbit_round(seed, r, next_id) for r in range(rounds)]
    if workload == "fresh-groups":
        return _fresh_rounds(seed, rounds, next_id)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def write_inputs(pool, workdir: Path) -> str:
    """Write every op's input files under workdir; return the sha256 of the
    op list (argv and input bytes, in run order).  Frees the bytes."""
    digest = hashlib.sha256()
    (workdir / "in").mkdir(parents=True, exist_ok=True)
    for ops in pool:
        for op in ops:
            digest.update(json.dumps([op.op_id, op.kind, op.argv]).encode())
            for rel, data in op.files.items():
                (workdir / rel).write_bytes(data)
                digest.update(rel.encode() + b"\0" + data)
            op.files = {}
    return digest.hexdigest()
