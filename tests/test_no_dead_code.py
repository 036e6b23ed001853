"""Every name that src/polarlab defines has a caller and every import a use.

A module-level function, class or constant, or a method, must occur
somewhere in src/, scripts/ or perfbench/ besides its own definition:
a name that only tests use belongs in the tests.  Occurrences are
identifier tokens in code and identifiers inside string literals
(perfbench/tracing.py looks functions up by name); comments do not
count.  Dunder names are exempt.

Every name a module of src/polarlab imports is also read in that module,
so deleting a caller cannot leave a stale import behind.

Every function and constant of the test helpers in tests/references.py
occurs in some tests/test_*.py module or in another helper there.

GF(q) vector arithmetic has one implementation: only projspace reads the
field tables `_tables`.  Constructions name no pairing, pairing charge,
point array or budget refusal: hyperplane sections come from projspace.

No module of src/polarlab imports `gc`: the cost of the cyclic collector
is cut by building fewer objects, never by switching the collector off
or tuning it from inside the library.

The modules form layers, gf < projspace < polarspace < {gfcode, kleinmap,
verify} < constructions < cli, and every relative import points down
them; kleinmap, the forward Klein map, imports only gf and projspace.
"""

import ast
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "scripts", "perfbench")
# Python 3.12 splits f-strings into parts; older versions have no such token
STRING_TOKENS = {tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}


def definitions(path: Path) -> list[tuple[str, str]]:
    """(qualified name, name) of each module-level function, class and
    assigned name of a module, and of each method of its classes."""
    out = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append((node.name, node.name))
        elif isinstance(node, ast.ClassDef):
            out.append((node.name, node.name))
            out += [(f"{node.name}.{m.name}", m.name) for m in node.body
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif isinstance(node, ast.Assign):
            out += [(t.id, t.id) for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.append((node.target.id, node.target.id))
    return [(q, name) for q, name in out
            if not (name.startswith("__") and name.endswith("__"))]


def occurrences(path: Path) -> Counter:
    words = Counter()
    with open(path, "rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type == tokenize.NAME:
                words[tok.string] += 1
            elif tok.type in STRING_TOKENS:
                words.update(re.findall(r"[A-Za-z_]\w*", tok.string))
    return words


def uncalled(modules, searched) -> list[str]:
    """Qualified names, as module:name, defined in the modules whose name
    occurs in the searched files no more often than it is defined."""
    defs = {path: definitions(path) for path in modules}
    times_defined = Counter(name for found in defs.values() for _q, name in found)
    words = Counter()
    for path in searched:
        words += occurrences(path)
    return [f"{path.stem}:{q}" for path, found in defs.items()
            for q, name in found if words[name] <= times_defined[name]]


def unreferenced(root: Path = ROOT) -> list[str]:
    """The names of the package without a caller in src/, scripts/ or
    perfbench/."""
    package = root / "src" / "polarlab"
    return uncalled(sorted(package.glob("*.py")),
                    [path for top in SEARCHED for path in (root / top).rglob("*.py")])


def test_every_definition_has_a_caller():
    assert unreferenced() == []


def test_every_reference_has_a_caller():
    tests = ROOT / "tests"
    helpers = tests / "references.py"
    assert uncalled([helpers], [helpers, *sorted(tests.glob("test_*.py"))]) == []


def test_a_name_used_only_by_tests_has_no_caller(tmp_path):
    (tmp_path / "src" / "polarlab").mkdir(parents=True)
    (tmp_path / "src" / "polarlab" / "m.py").write_text(
        "def used():\n    pass\n\n\ndef tested():\n    used()\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_m.py").write_text(
        "from polarlab.m import tested\n\ntested()\n")
    assert unreferenced(tmp_path) == ["m:tested"]


def unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads; in __init__.py a name
    listed in __all__ counts as read."""
    tree = ast.parse(path.read_text())
    imported = [alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
                for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.value.id for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
    if path.name == "__init__.py":
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_every_import_is_used():
    package = ROOT / "src" / "polarlab"
    found = {path.name: unused_imports(path) for path in sorted(package.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def test_only_projspace_reads_the_field_tables():
    package = ROOT / "src" / "polarlab"
    readers = [path.name for path in sorted(package.glob("*.py"))
               if occurrences(path)["_tables"]]
    assert readers == ["projspace.py"]


def test_constructions_leaves_hyperplane_pairings_to_projspace():
    # the pairing of points with hyperplanes, its charge and the
    # hyperplanes themselves are formed in projspace alone
    words = occurrences(ROOT / "src" / "polarlab" / "constructions.py")
    assert [name for name in ("Pairing", "pairing_bytes", "point_array",
                              "refuse_over_budget") if words[name]] == []


def imported_modules(path: Path) -> set[str]:
    """The top-level names of the modules a file imports, absolute
    imports only."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_no_module_touches_the_collector():
    package = ROOT / "src" / "polarlab"
    assert [path.name for path in sorted(package.glob("*.py"))
            if "gc" in imported_modules(path)] == []


def test_an_import_of_gc_is_found(tmp_path):
    for i, line in enumerate(["import gc", "import os, gc as g",
                              "from gc import disable", "def f():\n    import gc"]):
        (tmp_path / f"m{i}.py").write_text(line + "\n")
        assert "gc" in imported_modules(tmp_path / f"m{i}.py")
    (tmp_path / "ok.py").write_text("from . import gcode\nimport gcd\n")
    assert "gc" not in imported_modules(tmp_path / "ok.py")


LAYERS = ("gf", "projspace", "polarspace", "gfcode kleinmap verify",
          "constructions", "cli __init__")
RANK = {name: i for i, layer in enumerate(LAYERS) for name in layer.split()}


def package_imports(path: Path) -> set[str]:
    """The modules of the package that a module imports as `from .X` or
    `from . import X`."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out |= ({node.module.split(".")[0]} if node.module
                    else {alias.name for alias in node.names})
    return out


def layer_violations(package: Path) -> dict:
    """module -> the modules it imports from its own layer or above;
    every module must have a layer."""
    found = {path.stem: package_imports(path) for path in sorted(package.glob("*.py"))}
    assert set(found) == set(RANK)
    upward = {name: sorted(m for m in imports if RANK[m] >= RANK[name])
              for name, imports in found.items()}
    return {name: up for name, up in upward.items() if up}


def test_imports_point_down_the_layers():
    package = ROOT / "src" / "polarlab"
    assert layer_violations(package) == {}
    assert package_imports(package / "kleinmap.py") == {"gf", "projspace"}


def test_an_import_within_a_layer_is_a_violation(tmp_path):
    for name in RANK:
        (tmp_path / f"{name}.py").write_text("from .gf import FieldSpec\n")
    (tmp_path / "gf.py").write_text("")
    (tmp_path / "kleinmap.py").write_text("from .gfcode import CodewordVec\n")
    (tmp_path / "verify.py").write_text("from . import constructions\n")
    assert layer_violations(tmp_path) == {"kleinmap": ["gfcode"],
                                          "verify": ["constructions"]}
