"""The package's public surface: its option count and its export list.

Claims covered:
  - the package has 14 options: parameters and dataclass fields with a
    default, counted with `ast` over every module. A `field(init=False)` is
    derived, not set by a caller, and a `field()` with neither `default` nor
    `default_factory` (such as `field(hash=False)`) has no default, so
    neither is counted. A new option shows up as a deliberate edit of OPTIONS;
  - the package exports EXPORTS public names, so a change to the export
    list shows up as a deliberate edit of EXPORTS;
  - the package's modules hold SRC_LINES lines in total, so growth or
    shrinkage shows up as a deliberate edit of SRC_LINES;
  - every `Stage(...)` call in the package lies inside `everett._run`, the
    one stage runner, so no second way to build a protocol trace comes back;
  - no module reads another package module's private (underscore) name, by
    attribute on the imported module or by `from .module import _name`, so
    every rule a module needs from another is public there;
  - each module's top-level statements import exactly the pinned package
    modules: none for `__init__`, `qstate` and `spacetime`; `qstate` for
    `behavior`; `behavior` for `causality`; `behavior` and `qstate` for
    `inequalities`; `behavior`, `qstate` and `spacetime` for `everett`; and
    `behavior`, `inequalities` and `qstate` for `cli`, which imports the rest
    inside the subcommands that use them;
  - every immutable type is a frozen dataclass: no class defines
    `__hash__`, and only `behavior.HiddenVariableModel` (whose derived
    slots are filled after construction) defines `__setattr__`;
  - `behavior.Behavior`, `qstate.StateVector`, `everett.PointerBasis`,
    `Stage` and `ProtocolTrace`, `qstate.Operator` and
    `inequalities.CorrelatorSet` hold arrays, so `==`, `hash` and set
    membership go by identity and return answers instead of raising, and
    assigning a field raises `FrozenInstanceError`;
  - in a fresh interpreter, `locality_lab.__all__` is sorted and has no
    duplicates, `dir(locality_lab)` lists every name in it before any is
    read, `from locality_lab import *` binds every name to the object its
    defining module holds, and the seven module names resolve;
  - the README's library example runs as written, and the |S| it prints
    first equals 2 sqrt(2) to ALG_TOL;
  - each entry point loads only the modules it uses, each counted in a fresh
    interpreter: `import locality_lab` loads none; `bell1964`, `chsh` and
    `signmodel` load `qstate`, `behavior`, `inequalities` and `cli`, and
    `python -m locality_lab.cli bell1964` reads the code of those four
    modules and `__init__` only; `check` adds `causality`, `timeline` adds
    `spacetime`, `everett` loads all but `causality`, and `boxes` loads
    all seven.
"""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import locality_lab
from locality_lab.qstate import ALG_TOL

OPTIONS = 14
EXPORTS = 49
SRC_LINES = 2578


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _has_default(value: ast.expr | None) -> bool:
    """A dataclass field's value gives it a default: a plain value, or a `field()` with a default and no init=False."""
    if not (isinstance(value, ast.Call) and isinstance(value.func, ast.Name) and value.func.id == "field"):
        return value is not None
    keywords = {kw.arg: kw.value for kw in value.keywords}
    init = keywords.get("init")
    if isinstance(init, ast.Constant) and init.value is False:
        return False
    return "default" in keywords or "default_factory" in keywords


def count_options(source: str) -> int:
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(stmt, ast.AnnAssign) and _has_default(stmt.value) for stmt in node.body)
    return count


def test_counter_follows_the_rule():
    source = '''
from dataclasses import dataclass, field

def f(a, b=1, *, c=2, d): ...

@dataclass(frozen=True)
class R:
    x: int
    y: int = 0
    z: bool = field(init=False)
    h: dict = field(hash=False)
    c: dict = field(default_factory=dict, hash=False)
    n: int | None = field(default=None, compare=True)

class Plain:
    w: int = 3
'''
    assert count_options(source) == 5


def test_option_count_pinned():
    package = Path(locality_lab.__file__).parent
    assert sum(count_options(path.read_text()) for path in sorted(package.glob("*.py"))) == OPTIONS


def test_export_count_pinned():
    assert len(locality_lab.__all__) == EXPORTS


def test_src_line_count_pinned():
    package = Path(locality_lab.__file__).parent
    assert sum(len(path.read_text().splitlines()) for path in sorted(package.glob("*.py"))) == SRC_LINES


def dunder_classes(source: str, *names: str) -> dict[str, list[str]]:
    """For each dunder name, the classes in a module's source with a `def` of it in their body, in `ast.walk` order."""
    classes = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)]
    return {
        name: [cls.name for cls in classes if any(isinstance(fn, ast.FunctionDef) and fn.name == name for fn in cls.body)]
        for name in names
    }


def test_dunder_finder_follows_the_rule():
    source = '''
class A:
    def __hash__(self):
        return 0

class B:
    def __setattr__(self, name, value): ...

    class Inner:
        def __hash__(self):
            return 1

def __hash__():
    return 2
'''
    assert dunder_classes(source, "__hash__", "__setattr__") == {"__hash__": ["A", "Inner"], "__setattr__": ["B"]}


def test_value_types_are_dataclasses():
    """No class defines `__hash__`, and only `HiddenVariableModel`, which fills derived slots later, `__setattr__`."""
    package = Path(locality_lab.__file__).parent
    found = {"__hash__": [], "__setattr__": []}
    for path in sorted(package.glob("*.py")):
        for name, classes in dunder_classes(path.read_text(), *found).items():
            found[name] += classes
    assert found == {"__hash__": [], "__setattr__": ["HiddenVariableModel"]}


def stage_calls(source: str) -> tuple[int, list[int]]:
    """Number of `Stage(...)` calls inside a function named `_run`, and the lines of those outside it."""
    tree = ast.parse(source)
    runners = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == "_run"]
    inside = {id(node) for fn in runners for node in ast.walk(fn)}
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Stage"
    ]
    return sum(id(node) in inside for node in calls), sorted(node.lineno for node in calls if id(node) not in inside)


def test_stage_finder_follows_the_rule():
    source = '''
def _run(steps):
    return [Stage(*step) for step in steps]

def protocol():
    return (Stage("a"), _run([]))
'''
    assert stage_calls(source) == (1, [6])


def test_stages_are_built_only_by_the_runner():
    package = Path(locality_lab.__file__).parent
    found = {path.name: stage_calls(path.read_text()) for path in sorted(package.glob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls != (0, [])} == {"everett.py": (1, [])}


def private_reads(source: str) -> list[str]:
    """`module._name` reads of other package modules in one module's source.

    A read is an underscore attribute of a module imported with
    `from . import module [as alias]`, or an underscore name imported with
    `from .module import _name`. Dunder names count as public.
    """
    tree = ast.parse(source)
    modules, found = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    found.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            if _private(node.attr):
                found.append(f"{modules[node.value.id]}.{node.attr}")
    return sorted(found)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_private_finder_follows_the_rule():
    source = '''
from . import behavior as bh, everett
from .qstate import _positions, ket
from .spacetime import __doc__

def f(obj):
    return bh._json_number(1, ""), everett._definite, everett.WINGS, bh.__name__, obj._index, _positions
'''
    assert private_reads(source) == ["behavior._json_number", "everett._definite", "qstate._positions"]


def test_no_module_reads_another_modules_private_names():
    package = Path(locality_lab.__file__).parent
    found = {path.name: private_reads(path.read_text()) for path in sorted(package.glob("*.py"))}
    assert {name: reads for name, reads in found.items() if reads} == {}


def package_imports(source: str) -> list[str]:
    """Package modules that a module's top-level statements import, by `from . import m` or `from .m import x`.

    Imports inside a function or under `if TYPE_CHECKING:` are not top-level
    statements, so they are not counted.
    """
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else [alias.name for alias in node.names])
    return sorted(found)


def test_import_finder_follows_the_rule():
    source = '''
from typing import TYPE_CHECKING
from . import behavior as bh, qstate
from .spacetime import Event

if TYPE_CHECKING:
    from . import everett

def f():
    from .causality import check_no_signalling
'''
    assert package_imports(source) == ["behavior", "qstate", "spacetime"]


IMPORTS = {
    "__init__": [],
    "behavior": ["qstate"],
    "causality": ["behavior"],
    "cli": ["behavior", "inequalities", "qstate"],
    "everett": ["behavior", "qstate", "spacetime"],
    "inequalities": ["behavior", "qstate"],
    "qstate": [],
    "spacetime": [],
}


def test_module_level_imports_pinned():
    package = Path(locality_lab.__file__).parent
    assert {path.stem: package_imports(path.read_text()) for path in sorted(package.glob("*.py"))} == IMPORTS


MODULES = ("qstate", "behavior", "causality", "inequalities", "everett", "spacetime", "cli")
BELL_LAYERS = ["behavior", "cli", "inequalities", "qstate"]
BELL1964 = ["bell1964", "--a", "0", "--b", "1.0471975511965976", "--c", "2.0943951023931953"]


def fresh(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with these arguments that imports the package from this source tree."""
    env = {**os.environ, "PYTHONPATH": str(Path(locality_lab.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_exports_unique_and_resolvable():
    script = f"""
import json, sys
import locality_lab
listed = set(dir(locality_lab))
names = locality_lab.__all__
star = {{}}
exec("from locality_lab import *", star)
print(json.dumps({{
    "sorted_unique": names == sorted(set(names)),
    "not_in_dir": [n for n in names if n not in listed],
    "not_bound_by_star": [n for n in names if n not in star],
    "not_the_defining_object": [n for n in names if getattr(sys.modules[star[n].__module__], n) is not star[n]],
    "unresolved_modules": [m for m in {MODULES!r} if not hasattr(locality_lab, m)],
}}))
"""
    assert json.loads(fresh("-c", script).stdout) == {
        "sorted_unique": True,
        "not_in_dir": [],
        "not_bound_by_star": [],
        "not_the_defining_object": [],
        "unresolved_modules": [],
    }


def test_readme_library_example_runs():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    (block,) = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert abs(float(out.getvalue().splitlines()[0]) - 2.0 * math.sqrt(2.0)) <= ALG_TOL


def array_holders():
    """One instance of each frozen dataclass that holds an array, built twice from the same inputs."""
    from locality_lab import behavior, everett, inequalities, qstate

    trace = everett.run_parallel_epr()
    return {
        "Behavior": behavior.from_quantum(qstate.singlet(), [0.0, 1.0], [0.5]),
        "StateVector": qstate.singlet(),
        "PointerBasis": everett.PointerBasis.spin(1.0),
        "Stage": trace.stages[-1],
        "ProtocolTrace": trace,
        "Operator": qstate.Operator((("s1", 2),), qstate.rotated_basis_matrix(0.5)),
        "CorrelatorSet": inequalities.CorrelatorSet.from_state(qstate.singlet(), [0.0, 1.0], [0.5]),
    }


@pytest.mark.parametrize("name", ["Behavior", "StateVector", "PointerBasis", "Stage", "ProtocolTrace", "Operator", "CorrelatorSet"])
def test_array_holders_compare_and_hash_by_identity(name):
    first, second = array_holders()[name], array_holders()[name]
    assert first == first and first != second and not (first == second)
    assert hash(first) == hash(first) and len({first, second, first}) == 2
    assert first in {first} and second not in {first}
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(first, dataclasses.fields(first)[0].name, None)


INPUTS = {
    "behavior.json": {"scenario": {"settings_a": ["0"], "settings_b": ["0"]}, "table": [0.0, 0.5, 0.5, 0.0]},
    "timeline.json": {
        "timeline": [{"t": 2, "x": -2, "role": "measurement-a"}, {"t": 2, "x": 2, "role": "measurement-b"}]
    },
}


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (None, []),
        (BELL1964, BELL_LAYERS),
        (["chsh", "--classical"], BELL_LAYERS),
        (["signmodel", "--n", "100", "--seed", "1", "--settings", "0,1"], BELL_LAYERS),
        (["check", "behavior.json"], sorted(BELL_LAYERS + ["causality"])),
        (["timeline", "timeline.json"], sorted(BELL_LAYERS + ["spacetime"])),
        (["everett", "--theta", "1.0472"], sorted(set(MODULES) - {"causality"})),
        (["boxes"], sorted(MODULES)),
    ],
    ids=["import", "bell1964", "chsh", "signmodel", "check", "timeline", "everett", "boxes"],
)
def test_each_entry_point_loads_only_what_it_uses(argv, loaded, tmp_path):
    """Package modules in `sys.modules` after `import locality_lab`, then `cli.main(argv)` if given."""
    for name, payload in INPUTS.items():
        (tmp_path / name).write_text(json.dumps(payload))
    script = "import json, sys\nimport locality_lab\n"
    if argv is not None:
        argv = [str(tmp_path / arg) if arg in INPUTS else arg for arg in argv]
        script += f"from locality_lab import cli\nassert cli.main({argv!r}) == 0\n"
    script += "print(json.dumps(sorted(m.split('.', 1)[1] for m in sys.modules if m.startswith('locality_lab.'))))\n"
    assert json.loads(fresh("-c", script).stdout.splitlines()[-1]) == loaded


def test_cold_start_compiles_only_the_bell_layers():
    """`python -v` names the file each module's code object comes from: source, or cached bytecode."""
    stderr = fresh("-v", "-m", "locality_lab.cli", *BELL1964).stderr
    marker = "# code object from "
    paths = [Path(line[len(marker) :].strip("'")) for line in stderr.splitlines() if line.startswith(marker)]
    read = sorted(path.name.split(".")[0] for path in paths if "locality_lab" in path.parts)
    assert read == sorted(BELL_LAYERS + ["__init__"])  # run as __main__, cli's code is read once too
