"""The mutant list of tools/mutate.py still matches src/.

The runner itself runs one verify process per mutant and is not part of
the tests; this only applies each mutant to its module text and compiles
the result, so that an edit to a listed expression shows here first.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("pedalis_tools_mutate",
                                               ROOT / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = mutate  # dataclasses look the module up
_spec.loader.exec_module(mutate)


@pytest.mark.parametrize("mutant", mutate.MUTANTS, ids=lambda m: m.name)
def test_mutant_target_is_in_source(mutant):
    path = ROOT / "src" / "pedalis" / f"{mutant.module}.py"
    original = path.read_text()
    text = mutate.mutate_source(original, mutant)
    assert text != ast.unparse(ast.parse(original))
    compile(text, str(path), "exec")


def test_missing_target_raises_lookup_error():
    m = mutate.Mutant("absent", "surfkit", "point_conchoid", "no_such_name + 1", "flip")
    with pytest.raises(LookupError):
        mutate.mutate_source((ROOT / "src" / "pedalis" / "surfkit.py").read_text(), m)
