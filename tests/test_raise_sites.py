"""Every always-on check of the package is expected by a test or listed here.

A site is a `raise InternalConsistencyError(...)` in src/kneser, named by
its module and the constant prefix of its message, the text before the
first formatted field.  A test expects a site when some string of a
tests/test_*.py file, with its regex escapes dropped, is a piece of the
message at least 12 characters long, or holds the whole message with any
text in its formatted fields.  A string that parses as Python, such as the
code a subprocess test runs, is read for its own strings too.  A site no
test expects is listed in UNREACHED with the reason; adding a check means
adding its fault test or its entry.
"""

import ast
import re
import warnings
from pathlib import Path

import kneser

TESTS = Path(__file__).resolve().parent

UNREACHED: dict[tuple[str, str], str] = {}


def _message_parts(node: ast.expr) -> tuple[str, ...] | None:
    """The constant pieces of a literal message, split at its formatted fields."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return (node.value,)
    if not isinstance(node, ast.JoinedStr):
        return None
    parts = [""]
    for value in node.values:
        if isinstance(value, ast.Constant):
            parts[-1] += value.value
        else:
            parts.append("")
    return tuple(parts)


def _sites() -> dict[tuple[str, str], tuple[str, ...] | None]:
    """(module, constant prefix) -> the message's pieces, for every site."""
    sites = {}
    for path in sorted(Path(kneser.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == "InternalConsistencyError"):
                parts = _message_parts(node.exc.args[0]) if node.exc.args else None
                sites[(path.stem, parts[0] if parts else "")] = parts
    return sites


def _strings(source: str, out: list[str]) -> None:
    """Append to out the string literals of source, an f-string with "{}"
    for each field, and the strings of every literal that is itself Python
    source."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a string read as source may hold odd escapes
        tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            out.append("{}".join(_message_parts(node)))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.append(re.sub(r"\\(.)", r"\1", node.value))
            try:
                _strings(node.value, out)
            except (SyntaxError, ValueError):
                pass


def _expects(text: str, parts: tuple[str, ...]) -> bool:
    if len(text) >= 12 and any(text in part for part in parts):
        return True
    return re.search(".+".join(map(re.escape, parts)), text) is not None


def _expected_sites() -> set[tuple[str, str]]:
    texts = []
    for path in sorted(TESTS.glob("test_*.py")):
        if path.name != Path(__file__).name:
            _strings(path.read_text(), texts)
    return {site for site, parts in _sites().items()
            if parts and any(_expects(t, parts) for t in texts)}


def test_every_site_has_a_literal_message():
    assert [site for site, parts in _sites().items() if parts is None] == []


def test_every_site_is_expected_by_a_test_or_listed():
    sites, expected = set(_sites()), _expected_sites()
    assert sorted(sites - expected - set(UNREACHED)) == [], "no fault test and no UNREACHED entry"
    assert sorted(set(UNREACHED) - sites) == [], "UNREACHED entries that match no site"
    assert sorted(set(UNREACHED) & expected) == [], "UNREACHED entries a test now expects"
