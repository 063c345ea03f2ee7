"""tools/mutants.py applies each of its entries to a temporary copy of
src/ and runs the test the entry names, which must fail; the whole gate
runs beside tier-1, and one entry runs here."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_mutant_is_killed_and_the_checkout_is_untouched():
    mutants = load_mutants()
    entry = next(m for m in mutants.MUTANTS if m[1] == "            sign = -sign\n")
    hermite = ROOT / "src" / entry[0]
    before = hermite.read_text()
    assert mutants.check(entry) == "killed"
    assert hermite.read_text() == before


def test_an_entry_whose_old_text_is_gone_is_stale():
    mutants = load_mutants()
    path, old, new, test = mutants.MUTANTS[0]
    assert mutants.check((path, old + "no longer in the file", new, test)) == "stale"


def test_every_entry_names_text_found_once_and_a_test_that_exists():
    # So a refactor that strands an entry fails here, not only in the gate.
    for path, old, new, test in load_mutants().MUTANTS:
        assert (ROOT / "src" / path).read_text().count(old) == 1, (path, old)
        file, name = test.split("::")
        tree = ast.parse((ROOT / file).read_text())
        assert name.split("[")[0] in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}, test
