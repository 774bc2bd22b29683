"""The stage modules export only names that something outside the tests uses."""

import ast
import importlib
import re
from pathlib import Path

import kneser

PACKAGE = Path(kneser.__file__).resolve().parent
ROOT = PACKAGE.parents[1]
MODULES = ("bitstrings", "gliders", "dynamics", "gluing", "families")


def _exports(module: str) -> list[str]:
    text = (PACKAGE / f"{module}.py").read_text()
    body = re.search(r"^__all__ = \[(.*?)^\]", text, re.S | re.M).group(1)
    return re.findall(r'"(\w+)"', body)


def _used(name: str, module: str, sources: dict[Path, list[str]]) -> bool:
    word = re.compile(rf"\b{name}\b")
    own = re.compile(rf"\s*(def|class) {name}\b|\s*\"{name}\",$")
    for path, lines in sources.items():
        for line in lines:
            if word.search(line) and not (path.stem == module and own.match(line)):
                return True
    return False


def test_every_export_has_a_user_or_is_documented():
    """Each name in a stage module's __all__ appears in src/kneser or scripts/
    outside its own definition and __all__ entry, or in backticks in the
    README."""
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    sources = {p: p.read_text().splitlines() for p in paths}
    prose = re.sub(r"^```.*?^```", "", (ROOT / "README.md").read_text(), flags=re.S | re.M)
    spans = re.findall(r"`([^`]+)`", prose)  # a fence's backticks would shift the pairs
    unused = [
        f"{module}.{name}"
        for module in MODULES
        for name in _exports(module)
        if not _used(name, module, sources)
        and not any(re.search(rf"\b{name}\b", span) for span in spans)
    ]
    assert not unused, f"exported but unused and undocumented: {unused}"


def test_the_benchmarks_traced_names_are_defined():
    """perfbench/trace_child.py wraps each name in its TRACED table by getattr
    on its kneser module, so a rename there would break a traced run."""
    tree = ast.parse((ROOT / "perfbench" / "trace_child.py").read_text())
    traced = next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["TRACED"])
    missing = [f"{module}.{name}" for module, names in traced.items() for name in names
               if not hasattr(importlib.import_module(f"kneser.{module}"), name)]
    assert traced and not missing, missing
