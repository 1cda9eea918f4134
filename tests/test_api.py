"""The package's public names: one declaration each, in a submodule."""
import symtensor
from symtensor import core, harness, io, numerics, solvers


def test_all_is_the_union_of_the_submodule_exports():
    names = symtensor.__all__
    assert len(names) == len(set(names))
    expected = {"NUMBA_ENABLED", "__version__"}
    for module in (core, harness, io, numerics, solvers):
        expected.update(module.__all__)
    assert set(names) == expected
    for name in names:
        getattr(symtensor, name)
