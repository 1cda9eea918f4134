"""The package's public names: one declaration each, in a submodule; every
name README's library section gives is public; and README's library example,
run as written."""
import pathlib
import re

import symtensor
from symtensor import core, harness, io, solvers


def _library_section() -> str:
    root = pathlib.Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    return readme.split("## Library use", 1)[1].split("\n## ", 1)[0]


def test_all_is_the_union_of_the_submodule_exports():
    names = symtensor.__all__
    assert len(names) == len(set(names))
    expected = {"NUMBA_ENABLED", "__version__"}
    for module in (core, harness, io, solvers):
        expected.update(module.__all__)
    assert set(names) == expected
    for name in names:
        getattr(symtensor, name)


def test_readme_library_use_runs():
    """README's "Library use" example runs against the current public API."""
    code = _library_section().split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


def test_readme_library_names_are_public():
    """Every identifier in a backticked span of README's "Library use" prose
    is in ``symtensor.__all__``: a public name goes only when README drops it."""
    prose = re.sub(r"```.*?```", "", _library_section(), flags=re.S)
    names = {n for span in re.findall(r"`([^`]+)`", prose)
             for n in re.findall(r"[A-Za-z_]\w*", span)}
    assert {"run_experiment", "ExperimentSpec", "symmetry_check"} <= names
    assert sorted(names - set(symtensor.__all__)) == []
