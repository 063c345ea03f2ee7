"""Mutation gate: each entry breaks one fast path or check of orbitsep in a
temporary copy of src/, and the test it names must then fail.

    python3 tools/mutants.py

Run from the repository root.  An entry is (file under src/, old text, new
text, pytest node id).  For each one the tool copies ./src into a temporary
directory, replaces the one occurrence of the old text, and runs the named
test of ./tests with PYTHONPATH at that copy, never touching the checkout.
It prints one line per entry:

- killed: the test failed, as it must;
- survived: the test passed on the mutant;
- stale: the old text does not occur exactly once in the file;
- error: pytest ended otherwise (no such test, a collection error).

and exits 1 unless every entry is killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900  # per entry; the slowest named test runs in under a minute

MUTANTS = [
    # The int64 KeyedRows byte pass: the sign word, the inner zero padding
    # and the offset into the padded spellings.
    ("orbitsep/io.py",
     "np.where(columns[signed] < 0, _MINUS_WORD, 0).T",
     "0",
     "tests/test_io.py::test_keyed_rows_match_reference_across_blocks"),
    ("orbitsep/io.py",
     "words = np.concatenate([lead, digits])",
     "words = np.concatenate([lead, lead])",
     "tests/test_io.py::test_keyed_rows_match_reference_across_blocks"),
    ("orbitsep/io.py",
     "            index += (rest > 0) * _WORD_BASE  # digits above: the \"0\" padded spelling\n",
     "",
     "tests/test_io.py::test_keyed_rows_match_reference_across_blocks"),
    # A list or tuple of plain ints spelled by str of a list.
    ("orbitsep/io.py",
     "str(value if isinstance(value, list) else list(value))",
     "str(value)",
     "tests/test_io.py::test_lists_and_tuples_of_plain_ints_match_reference"),
    # The float arrays' separator between two blocks of values.
    ("orbitsep/io.py",
     'out.append(", ")',
     'out.append(",")',
     "tests/test_io.py::test_float_arrays_match_reference_across_blocks"),
    # The float byte pass: the decade test on hi + lo, round half to even
    # where the scale is exact, the tie margin, which scales are exact, the
    # sign of -0; and the sliced write of the output text.
    ("orbitsep/io.py",
     "((hi - 1e16) + lo < 0)",
     "(hi < 1e16)",
     "tests/test_io.py::test_planted_floats_match_reference_in_the_byte_pass"),
    ("orbitsep/io.py",
     "d += (frac > 0.5) | ((frac == 0.5) & (d & 1 == 1))",
     "d += frac >= 0.5",
     "tests/test_io.py::test_planted_floats_match_reference_in_the_byte_pass"),
    ("orbitsep/io.py",
     "_TIE_MARGIN = 1e-9",
     "_TIE_MARGIN = 0.0",
     "tests/test_io.py::test_a_product_near_a_tie_is_certified_only_where_the_power_is_a_double"),
    ("orbitsep/io.py",
     "exact = scale[:, 3] == 0",
     "exact = np.ones(len(xs), bool)",
     "tests/test_io.py::test_planted_floats_match_reference_in_the_byte_pass"),
    ("orbitsep/io.py",
     "np.signbit(values)",
     "(values < 0)",
     "tests/test_io.py::test_planted_floats_match_reference_in_the_byte_pass"),
    ("orbitsep/io.py",
     "text[lo:lo + _WRITE_SLICE]",
     "text[lo:lo + _WRITE_SLICE - 1]",
     "tests/test_io.py::test_write_output_writes_a_text_longer_than_one_slice"),
    # The exponent table's power grid: each coordinate's offset in the grid,
    # the rule that decides it, and Theta's gather of the unit phases from it.
    ("orbitsep/exponents.py",
     "_read_only(k * (top + 1) + e)",
     "_read_only(k * top + e)",
     "tests/test_transforms.py::test_grid_and_passes_match_whole_block_direct_powers"),
    ("orbitsep/exponents.py",
     "self.group.dim * (top + 1) < sum(",
     "self.group.dim * (top + 1) <= sum(",
     "tests/test_transforms.py::test_grid_is_decided_once_per_table_from_its_factor_count"),
    ("orbitsep/transforms.py",
     "_factors(table, phases, first=1)",
     "_factors(table, x, first=1)",
     "tests/test_transforms.py::test_grid_and_passes_match_whole_block_direct_powers"),
    # The reduction's draw, row chunk by row chunk: the short last chunk.
    ("orbitsep/transforms.py",
     "rng.standard_normal(out=normals[:len(chunk)])",
     "rng.standard_normal(out=normals)",
     "tests/test_transforms.py::test_make_reduction_keeps_its_bits_when_the_chunks_split_unevenly"),
    # The scaling solve's float guess: the B @ Z proof, the 2**53 bound on
    # its products, and the guess itself.
    ("orbitsep/hermite.py",
     " or (a @ z != q * np.eye(len(a))).any()",
     "",
     "tests/test_hermite.py::test_singular_systems_with_a_solution_raise"),
    ("orbitsep/hermite.py",
     "not len(a) * top * float(np.abs(z).max()) < _FLOAT_EXACT or ",
     "",
     "tests/test_hermite.py::test_float_guess_is_refused_where_its_product_rounds"),
    ("orbitsep/hermite.py",
     "    if len(rows) < _GUESS_MIN_DIM:\n        return None\n",
     "    return None\n",
     "tests/test_hermite.py::test_float_guess_skips_elimination_until_it_cannot_be_proved"),
    # Bareiss elimination's sign on a row swap.
    ("orbitsep/hermite.py",
     "            sign = -sign\n",
     "",
     "tests/test_hermite.py::test_bareiss_solve_and_determinant_match_oracles"),
    # The Laurent evaluators read the Hermite data's float block by columns,
    # and the plan builds that data once per group.
    ("orbitsep/hermite.py",
     "exps = data.float_block.T",
     "exps = data.float_block",
     "tests/test_hermite.py::test_plan_float_block_evaluates_as_direct_monomials"),
    ("orbitsep/plan.py",
     "    @functools.cached_property\n    def hermite(self):",
     "    @property\n    def hermite(self):",
     "tests/test_cli.py::test_one_group_builds_its_hermite_data_once_across_commands"),
    # Stacked rational invariants and signed form: the pole mask per row,
    # and the left-to-right sum.
    ("orbitsep/hermite.py",
     "poled = (zero & (exps < 0)).any(axis=-1)",
     "poled = (zero.any(axis=0) & (exps < 0)).any(axis=-1)",
     "tests/test_hermite.py::test_stacked_rows_match_single_calls"),
    ("orbitsep/hermite.py",
     "np.cumsum(np.array(data.signature) * np.abs(x) ** 2, axis=-1)[..., -1]",
     "np.sum(np.array(data.signature) * np.abs(x) ** 2, axis=-1)",
     "tests/test_hermite.py::test_stacked_rows_match_single_calls"),
    # The discrete-log table takes the first divisor that holds.
    ("orbitsep/exponents.py",
     "    for x in divisors:\n",
     "    for x in divisors[1:]:\n",
     "tests/test_exponents.py::test_discrete_logs_build_the_lattice_table"),
    # The metric rescores every coset within the product's error bound; each
    # pair takes the least member at its own best exact score, its rows
    # sorted apart from other pairs', and the blocks' winners are merged.
    ("orbitsep/metric.py",
     "slack = 1e-9 * np.maximum(const, 1e-290)",
     "slack = 0.0",
     "tests/test_metric.py::test_near_ties_rescored_over_several_blocks_match_brute_force"),
    ("orbitsep/metric.py",
     "np.lexsort((*members.T[::-1], scores, pair))",
     "np.lexsort((*members.T[::-1], pair))",
     "tests/test_metric.py::test_exact_rescoring_breaks_near_ties"),
    ("orbitsep/metric.py",
     "first = order[np.searchsorted(pair, pairs)]",
     "first = order[np.zeros_like(pairs)]",
     "tests/test_metric.py::test_stacked_witnesses_on_tie_heavy_groups_match_brute_force"),
    ("orbitsep/metric.py",
     "np.lexsort((*members.T[::-1], scores, pair))",
     "np.lexsort((*members.T[::-1], scores))",
     "tests/test_metric.py::test_stacked_witnesses_on_tie_heavy_groups_match_brute_force"),
    ("orbitsep/metric.py",
     "_least(*map(np.concatenate, zip(*least))) if len(least) > 1 else least[0]",
     "least[-1]",
     "tests/test_metric.py::test_all_tied_cosets_of_order_1e6_take_the_identity_in_bounded_memory"),
    # A kernel column that carries into later entries runs its step in
    # order, and a NaN score ties with inf, so no finite score keeps the
    # identity.
    ("orbitsep/metric.py",
     "if any(column[i + 1:])]",
     "if False]",
     "tests/test_metric.py::test_fft_metric_matches_brute_force"),
    ("orbitsep/metric.py",
     "np.fmin(const[pair] - 2.0 * exact, np.inf)",
     "const[pair] - 2.0 * exact",
     "tests/test_metric.py::test_a_pair_scored_inf_and_nan_keeps_the_identity_witness_in_a_stack"),
]


def check(entry) -> str:
    """Apply one entry to a temporary copy of ./src and run its test;
    returns killed, survived, stale or error."""
    path, old, new, test = entry
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / path
        text = target.read_text()
        if text.count(old) != 1:
            return "stale"
        target.write_text(text.replace(old, new))
        # Run from the temporary directory, so Hypothesis keeps no example
        # database in the checkout; pytest still finds the checkout's ini.
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", str(ROOT / test)],
            cwd=tmp, env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    return {0: "survived", 1: "killed"}.get(done.returncode, "error")


def main() -> int:
    results = []
    for entry in MUTANTS:
        path, old, new, test = entry
        results.append(check(entry))
        print(f"{results[-1]:8}  {path}: {old.strip()!r} -> {new.strip()!r}  [{test}]", flush=True)
    killed = results.count("killed")
    print(f"{killed} of {len(results)} mutants killed")
    return 0 if killed == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
