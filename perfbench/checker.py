"""Checks the CLI's outputs against the graph definitions, without importing kneser.

Every function returns a list of defects; an empty list means the output is
right.  Vertices are bitstrings with position 0 first, read as bitmasks.
"""

import hashlib
import json
from math import comb


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def adjacent(family: str, n: int, k: int, s: int, a: int, b: int) -> bool:
    """The edge rule of each family, from its definition."""
    if a == b:
        return False
    if family == "kneser":
        return a & b == 0
    if family == "johnson":
        return (a & b).bit_count() == s
    if family == "gen-kneser":
        return (a & b).bit_count() <= s
    small, big = sorted((a, b), key=int.bit_count)
    return small.bit_count() == k and big.bit_count() == n - k and small & big == small


def _bits(row: str, n: int) -> int | None:
    if len(row) != n or set(row) - {"0", "1"}:
        return None
    return sum(1 << i for i, c in enumerate(row) if c == "1")


def tour_errors(text: str, spec, closed: bool) -> list[str]:
    """Defects of a tour printed by `kneser gen` in the default bits format."""
    rows = text.splitlines()
    if not rows:
        return ["empty tour"]
    head = rows[0].split()
    want = [str(spec.n), str(spec.k), spec.family]
    if spec.family in ("johnson", "gen-kneser"):
        want.append(str(spec.s))
    if not closed:
        want.append("path")
    if head != want:
        return [f"header {rows[0]!r}, expected {' '.join(want)!r}"]
    n, k = spec.n, spec.k
    verts = [_bits(r, n) for r in rows[1:]]
    if None in verts:
        return ["a line is not a bitstring of length n"]
    errors = []
    if len(verts) != spec.vertex_count():
        errors.append(f"{len(verts)} vertices, the graph has {spec.vertex_count()}")
    if len(set(verts)) != len(verts):
        errors.append("a vertex repeats")
    weights = {k, n - k} if spec.family == "bipartite" else {k}
    if any(v.bit_count() not in weights for v in verts):
        errors.append("a vertex has the wrong weight")
    pairs = list(zip(verts, verts[1:]))
    if closed and verts:
        pairs.append((verts[-1], verts[0]))
    bad = sum(not adjacent(spec.family, n, k, spec.s, a, b) for a, b in pairs)
    if bad:
        errors.append(f"{bad} consecutive pairs are not edges")
    return errors


def factor_errors(text: str, spec) -> list[str]:
    """Defects of `kneser factor n k --format json`: the cycles must cover
    every vertex once, and each must be a closed walk of disjoint k-sets."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"not JSON: {exc}"]
    n, k = spec.n, spec.k
    cycles = payload.get("cycles", [])
    errors = []
    if (payload.get("n"), payload.get("k")) != (n, k):
        errors.append("wrong n or k")
    if payload.get("cycle_count") != len(cycles):
        errors.append("cycle_count disagrees with the cycles listed")
    seen = set()
    total = 0
    for c in cycles:
        verts = [_bits(r, n) for r in c["vertices"]]
        if None in verts or any(v.bit_count() != k for v in verts):
            errors.append(f"cycle {c['key']} holds a non-vertex")
            continue
        if c["length"] != len(verts) or sum(c["V"]) != k:
            errors.append(f"cycle {c['key']}: length or speed partition is wrong")
        if any(a & b for a, b in zip(verts, verts[1:] + verts[:1])):
            errors.append(f"cycle {c['key']} has a non-edge")
        seen.update(verts)
        total += len(verts)
    if total != comb(n, k) or len(seen) != total or payload.get("vertex_count") != total:
        errors.append(f"the cycles hold {len(seen)} distinct of {total} listed vertices, "
                      f"the graph has {comb(n, k)}")
    return errors


def trace_errors(text: str, spec, start: str, steps: int) -> list[str]:
    """Defects of `kneser trace`: one row per step, starting at `start`, each
    row a vertex with n-2k unmatched zeros shown as '-', each disjoint from
    the row before (f moves every 1 onto a 0)."""
    rows = text.splitlines()
    if len(rows) != steps:
        return [f"{len(rows)} rows, asked for {steps} steps"]
    n, k = spec.n, spec.k
    prev = None
    for t, row in enumerate(rows):
        fields = row.split()
        if len(fields) < 3 or fields[0] != f"t={t}":
            return [f"row {t} is malformed: {row!r}"]
        s = fields[1]
        v = _bits(s.replace("-", "0"), n)
        if v is None or v.bit_count() != k or s.count("-") != n - 2 * k:
            return [f"row {t} is not a vertex with n-2k unmatched zeros: {s!r}"]
        if t == 0 and s.replace("-", "0") != start:
            return [f"row 0 is {s!r}, the start was {start!r}"]
        if prev is not None and prev & v:
            return [f"rows {t - 1} and {t} meet"]
        prev = v
    return []


def verify_errors(stdout: str, stderr: str, exit_code: int, spec, closed: bool) -> list[str]:
    """Defects of a `kneser verify` answer.  The exit code is judged by the
    caller; this checks that the message agrees with it."""
    if exit_code == 0:
        kind = "cycle" if closed else "path"
        if not stdout.startswith(f"ok: Hamilton {kind}") or \
                not stdout.rstrip().endswith(f"{spec.vertex_count()} vertices"):
            return [f"verify said {stdout.strip()!r}"]
    elif exit_code == 1 and not stderr.startswith("fail"):
        return [f"verify failed without a diagnosis: {stderr.strip()!r}"]
    return []
