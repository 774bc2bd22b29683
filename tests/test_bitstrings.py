import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import vertices
from oracles import (
    _iter_strings,
    apply_f_inverse,
    cycle_factor_per_vertex,
    cyclic_equal,
    naive_f,
    naive_matching,
    naive_reverse_bits,
    naive_scan_match,
    reverse_bits,
)

from kneser.bitstrings import (
    CyclicBitstring,
    _annotate,
    _scan_match,
    apply_f,
    cycle_factor,
    descent_count,
    from_string,
    iter_bits,
    parenthesis_match,
    rotate_bits,
    to_string,
)
import kneser
from kneser import bitstrings
from kneser.errors import InternalConsistencyError, ParameterError

SMALL = [(5, 2), (7, 2), (7, 3), (8, 3), (9, 4), (9, 3), (11, 5)]


def v(s: str) -> CyclicBitstring:
    return CyclicBitstring.from_string(s)


# -- string and rotation plumbing --------------------------------------------


def test_string_layout():
    assert to_string(1, 5) == "10000"  # position 0 printed first
    assert from_string("10000") == 1
    assert from_string("01100") == 0b00110


@given(st.integers(2, 16), st.data())
def test_string_roundtrip(n, data):
    bits = data.draw(st.integers(0, (1 << n) - 1))
    s = to_string(bits, n)
    assert len(s) == n
    assert from_string(s) == bits


def test_rotate_shifts_positions():
    assert to_string(rotate_bits(from_string("10000"), 5, 2), 5) == "00100"
    assert to_string(rotate_bits(from_string("00011"), 5, 3), 5) == "011 00".replace(" ", "")
    assert rotate_bits(rotate_bits(0b10110, 5, 2), 5, 3) == 0b10110


def test_reverse_bits():
    assert to_string(reverse_bits(from_string("11010"), 5), 5) == "01011"


def test_reverse_bits_equals_loop():
    for n in range(13):
        for bits in range(1 << n):
            assert reverse_bits(bits, n) == naive_reverse_bits(bits, n)


def test_descent_count_micro():
    # three descents, one across the cyclic boundary
    assert descent_count(from_string("001100010001"), 12) == 3


def test_iter_bits_is_sorted_and_complete():
    got = list(iter_bits(5, 2))
    assert got == sorted(got)
    assert len(got) == comb(5, 2) == len(set(got))
    assert all(b.bit_count() == 2 for b in got)


def test_iter_strings_is_lexicographic_and_complete():
    # the factor's keys rest on this order alone
    for n in range(1, 13):
        for k in range(1, n + 1):
            strings = [to_string(b, n) for b in _iter_strings(n, k)]
            assert all(a < b for a, b in zip(strings, strings[1:])), (n, k)
            assert len(strings) == comb(n, k), (n, k)
            assert all(s.count("1") == k for s in strings), (n, k)


def test_vertex_validation():
    with pytest.raises(ParameterError):
        CyclicBitstring(4, 2, 0b0011)  # n < 2k+1
    with pytest.raises(ParameterError):
        CyclicBitstring(5, 0, 0)
    with pytest.raises(ParameterError):
        CyclicBitstring(5, 2, 0b00001)  # popcount mismatch
    with pytest.raises(ParameterError):
        CyclicBitstring(5, 2, 1 << 7)


# -- parenthesis matching -----------------------------------------------------


def _mask(positions) -> int:
    return sum(1 << p for p in set(positions))


def _encloses(outer, p, n: int) -> bool:
    a, b = outer
    span = {(a + i) % n for i in range(1, (b - a) % n)}
    return p[0] in span and p[1] in span


def _oracle_masks(x):
    """(pairs, matched-zero mask, unmatched mask, visible-end mask) of the
    contraction oracle; a pair is visible when no other pair encloses it."""
    pairs, unmatched = naive_matching(x.bits, x.n)
    top = [p for p in pairs if not any(_encloses(q, p, x.n) for q in pairs if q != p)]
    return pairs, _mask(z for _, z in pairs), _mask(unmatched), _mask(e for p in top for e in p)


def _masks(m):
    return m.matched_zeros, m.unmatched, m.visible


@given(vertices())
def test_matching_equals_contraction_oracle(x):
    _, *want = _oracle_masks(x)
    assert list(_masks(parenthesis_match(x))) == want


@pytest.mark.parametrize("n,k", SMALL)
def test_matching_exhaustive(n, k):
    for bits in iter_bits(n, k):
        x = CyclicBitstring(n, k, bits)
        _, *want = _oracle_masks(x)
        assert list(_masks(parenthesis_match(x))) == want


@given(vertices())
def test_matching_shape(x):
    m = parenthesis_match(x)
    full = (1 << x.n) - 1
    assert (m.n, m.bits) == (x.n, x.bits)
    assert m.matched_zeros.bit_count() == x.k
    assert m.unmatched.bit_count() == x.n - 2 * x.k
    assert not (m.matched_zeros | m.unmatched) & x.bits
    assert not m.matched_zeros & m.unmatched
    assert x.bits | m.matched_zeros | m.unmatched == full
    assert not m.visible & m.unmatched
    assert (m.visible & x.bits).bit_count() == (m.visible & m.matched_zeros).bit_count()
    assert m.unmatched >> m.anchor & 1


def _rotations(s: str):
    return (s[i:] + s[:i] for i in range(len(s)))


def test_byte_table_equals_bit_scan():
    """Reach every table entry and the clip: depth 1s end at position 16, so
    the byte at 16..23 is read with depth 1s open."""
    for depth in range(16):
        for byte in range(256):
            bits = ((1 << depth) - 1) << (16 - depth) | byte << 16
            assert _scan_match(bits, 48) == naive_scan_match(bits, 48), (depth, byte)


def test_matching_oracle_across_byte_boundaries():
    """The scan reads a byte at a time and treats nine or more open 1s as
    nine: every rotation of a long 1^k run and of repeated 1^j 0^j blocks puts
    each byte boundary at every offset, with up to 19 1s open."""
    rng = random.Random(17)
    shapes = 0
    for n in range(17, 41):
        k = (n - 1) // 2
        strings = list(_rotations("1" * k + "0" * (n - k)))
        for j in (1, 2, 3, 8, 9, k):
            reps = (n - 1) // (2 * j)
            if reps:
                strings += _rotations(("1" * j + "0" * j) * reps + "0" * (n - 2 * j * reps))
        for _ in range(20):
            ones = set(rng.sample(range(n), rng.randint(1, k)))
            strings.append("".join("1" if i in ones else "0" for i in range(n)))
        for s in strings:
            x = v(s)
            _, *want = _oracle_masks(x)
            assert list(_masks(parenthesis_match(x))) == want, s
            shapes += 1
    assert shapes > 5000


@given(vertices())
def test_visible_pairs_are_top_level(x):
    """Both ends of a pair are visible exactly when no other pair encloses it."""
    m = parenthesis_match(x)
    pairs, _, _, _ = _oracle_masks(x)
    covered = 0
    for p in pairs:
        enclosed = any(_encloses(q, p, x.n) for q in pairs if q != p)
        ends = _mask(p)
        assert (m.visible & ends == ends) == (not enclosed)
        assert m.visible & ends in (0, ends)
        covered |= ends
    assert m.visible & ~covered == 0


@given(vertices())
def test_visible_one_pairs_with_next_visible_position(x):
    m = parenthesis_match(x)
    pairs, _, _, _ = _oracle_masks(x)
    partner = dict(pairs)
    for one in range(x.n):
        if not (m.visible & x.bits) >> one & 1:
            continue
        nxt = next(j % x.n for j in range(one + 1, one + x.n) if m.visible >> (j % x.n) & 1)
        assert partner[one] == nxt


def test_annotated_micro():
    for s, want in (("100000101", "100---101"), ("001100001", "0-1100--1")):
        x = v(s)
        assert _annotate(x.bits, apply_f(x).bits, x.n) == want


# -- the map f ---------------------------------------------------------------


def test_f_micro():
    assert str(apply_f(v("100000101"))) == "011000010"


def test_f_orbit_micro():
    seq = [v("100000101")]
    while True:
        nxt = apply_f(seq[-1])
        if nxt == seq[0]:
            break
        seq.append(nxt)
    shown = [str(y) for y in seq]
    assert shown[:5] == [
        "100000101",
        "011000010",
        "000110001",
        "100001100",
        "010000011",
    ]
    assert shown[-1] == "000011010"


@given(vertices())
def test_f_matches_oracle(x):
    assert apply_f(x).bits == naive_f(x.bits, x.n)


@given(vertices())
def test_f_gives_kneser_edge(x):
    assert x.bits & apply_f(x).bits == 0


@given(vertices())
def test_f_inverse(x):
    assert apply_f_inverse(apply_f(x)) == x
    assert apply_f(apply_f_inverse(x)) == x


@given(vertices())
def test_f_commutes_with_rotation(x):
    turned = CyclicBitstring(x.n, x.k, rotate_bits(x.bits, x.n, 1))
    assert apply_f(turned).bits == rotate_bits(apply_f(x).bits, x.n, 1)


@pytest.mark.parametrize("n,k", SMALL)
def test_f_is_a_bijection(n, k):
    image = {apply_f(CyclicBitstring(n, k, b)).bits for b in iter_bits(n, k)}
    assert image == set(iter_bits(n, k))


# -- the cycle factor ----------------------------------------------------------


@pytest.mark.parametrize("n,k", SMALL)
def test_factor_partitions_vertex_set(n, k, factors):
    f = factors(n, k)
    seen: set[int] = set()
    for c in f.cycles:
        assert len(c) >= 3
        assert not seen & set(c.vertices)
        seen.update(c.vertices)
        for u, w in zip(c.vertices, c.vertices[1:] + c.vertices[:1]):
            assert apply_f(CyclicBitstring(n, k, u)).bits == w
    assert seen == set(iter_bits(n, k))
    assert sum(map(len, f.cycles)) == comb(n, k)


@pytest.mark.parametrize("n,k", SMALL)
def test_factor_index(n, k, factors):
    f = factors(n, k)
    for ci, c in enumerate(f.cycles):
        for i, b in enumerate(c.vertices):
            assert f.locate(b) == (ci, i)


def test_petersen_factor_exact(factors):
    f = factors(5, 2)
    want = [
        ["10100", "01010", "00101", "10010", "01001"],
        ["11000", "00110", "10001", "01100", "00011"],
    ]
    got = [[to_string(b, 5) for b in c.vertices] for c in f.cycles]
    assert len(got) == 2
    matched = {i: next(j for j, w in enumerate(want) if cyclic_equal(g, w)) for i, g in enumerate(got)}
    assert sorted(matched.values()) == [0, 1]


def test_cycle_key_is_least_string(factors):
    for n in range(3, 15):
        for k in range(1, (n - 1) // 2 + 1):
            for c in factors(n, k).cycles:
                assert to_string(c.key, n) == min(to_string(b, n) for b in c.vertices)


def _same_cycles(got, want, nk):
    assert [c.vertices for c in got.cycles] == [c.vertices for c in want.cycles], nk


def _same_locate(got, want, nk):
    assert [got.locate(x) for x in want.index] == [want.locate(x) for x in want.index], nk


@pytest.fixture(scope="module")
def small_pairs():
    """The factor and its per-vertex reference for every n < 19, built once
    for the two tests that compare them (about 40 MB held)."""
    return [((n, k), cycle_factor(n, k), cycle_factor_per_vertex(n, k))
            for n in range(3, 19) for k in range(1, (n - 1) // 2 + 1)]


def test_factor_matches_per_vertex_reference(small_pairs):
    for nk, got, want in small_pairs:
        _same_cycles(got, want, nk)


def test_locate_matches_per_vertex_reference(small_pairs):
    for nk, got, want in small_pairs:
        _same_locate(got, want, nk)


@pytest.mark.parametrize("n,k", [(19, 8), (24, 4), (24, 6), (28, 5)])
def test_factor_matches_per_vertex_reference_large(n, k):
    got, want = cycle_factor(n, k), cycle_factor_per_vertex(n, k)
    _same_cycles(got, want, (n, k))
    _same_locate(got, want, (n, k))


@pytest.mark.parametrize("n,k,scans", [
    (15, 6, 335), (17, 7, 1144), (19, 8, 3978), (24, 4, 446), (28, 5, 3510),
])
def test_factor_scans_one_period_per_rotation_class(n, k, scans, monkeypatch):
    """Each period vertex is the one scanned vertex of its rotation class, so
    the scans count the rotation classes of X(n, k)."""
    calls = 0
    scan = bitstrings._f_bits

    def counted(bits, width):
        nonlocal calls
        calls += 1
        return scan(bits, width)

    monkeypatch.setattr(bitstrings, "_f_bits", counted)
    cycle_factor(n, k)
    assert calls == scans


def test_necklaces_are_the_least_rotations_in_order():
    """The generator gives the least string among the rotations of every
    mask, once each and in lexicographic order; K(12,4) and K(16,4) include
    strings with a rotational symmetry, such as (100)^4 and (0001)^4."""
    for n in range(3, 17):
        for k in range(1, (n - 1) // 2 + 1):
            want = sorted({min(to_string(rotate_bits(b, n, i), n) for i in range(n))
                           for b in iter_bits(n, k)})
            assert [to_string(b, n) for b in bitstrings._necklaces(n, k)] == want, (n, k)
    assert 0b100100100100 in bitstrings._necklaces(12, 4)  # 001001001001
    assert 0b1000100010001000 in bitstrings._necklaces(16, 4)  # 0001000100010001


@pytest.mark.parametrize("n,k,count", [
    (15, 6, 335), (17, 7, 1144), (19, 8, 3978), (24, 4, 446), (28, 5, 3510),
])
def test_necklace_counts_match_period_scans(n, k, count):
    """One necklace per period vertex: the counts of the scan-count test."""
    assert len(bitstrings._necklaces(n, k)) == count


@pytest.mark.parametrize("x", [
    0b1111, 0b11, 0, (1 << 12) - 1,  # wrong weight
    1 << 12 | 0b11, 1 << 40 | 0b11, -0b111,  # out of range
    "000000000111", True, False,  # True would be vertex 1 of K(12, 1)
])
def test_locate_rejects_a_non_vertex(x, factors):
    for f in (factors(12, 3), factors(12, 1)):
        with pytest.raises(KeyError):
            f.locate(x)


def _every_string_onto_the_first_necklace(bits, n):
    """f sending every string of K(12,4) to 0^8 1^4: the second period meets
    the first one's necklace."""
    return 0b1111 << 8


def _first_necklace_through_a_symmetric_one(bits, n):
    """f with 0^8 1^4 and (100)^4 sent onto each other, each a class of one
    necklace under the true f: their joint class, read with the least
    rotational period 12 of 0^8 1^4, counts 24 strings for 15."""
    first, symmetric = 0b1111 << 8, 0b001001001001
    if bits == first:
        return symmetric
    if bits == symmetric:
        return first
    return _scan_match(bits, n)[1]


@pytest.mark.parametrize("fake,message", [
    (_every_string_onto_the_first_necklace, "meets a necklace already marked"),
    (_first_necklace_through_a_symmetric_one, "do not cover"),
])
def test_factor_rejects_a_faulty_period(fake, message, monkeypatch):
    monkeypatch.setattr(bitstrings, "_f_bits", fake)
    with pytest.raises(InternalConsistencyError, match=message):
        cycle_factor(12, 4)


def test_factor_faults_are_caught_in_optimized_mode(optimized_cases):
    """The factor's checks are no asserts: python -O still runs them."""
    optimized_cases("test_bitstrings.py::test_factor_rejects_a_faulty_period", passed=2)


def test_factor_requires_sparse_side():
    with pytest.raises(ParameterError):
        cycle_factor(4, 2)


# -- always-on invariants --------------------------------------------------------


def test_matching_invariant_survives_optimized_mode():
    """More ones than zeros must raise even under python -O, which strips asserts."""
    code = (
        "from kneser.bitstrings import _scan_match\n"
        "from kneser.errors import InternalConsistencyError\n"
        "try:\n"
        "    _scan_match(0b111, 5)\n"
        "except InternalConsistencyError as e:\n"
        "    raise SystemExit(0 if 'more zeros than ones' in str(e) else repr(e))\n"
        "raise SystemExit('no InternalConsistencyError')\n"
    )
    src = str(Path(kneser.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
