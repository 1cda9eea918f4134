"""The package's public names: one declaration each, in a submodule; and
README's library example, run as written."""
import pathlib

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


def test_readme_library_use_runs():
    """README's "Library use" example runs against the current public API."""
    root = pathlib.Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
