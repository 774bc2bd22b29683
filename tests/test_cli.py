import io
import json
import os
import subprocess
import sys
import tracemalloc
from math import comb
from pathlib import Path

import pytest

import kneser
from kneser import bitstrings, families
from kneser.bitstrings import CyclicBitstring, cycle_factor, to_string
from kneser.cli import main
from kneser.errors import InternalConsistencyError
from kneser.families import GraphSpec, hamilton_tour
from kneser.gliders import glider_partition, speed_partition, train_composition
from kneser.gluing import build_gluing_plan
from oracles import tour_fault_passes


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# -- gen ---------------------------------------------------------------------


def test_gen_kneser_bits(capsys):
    code, out, err = run(capsys, "gen", "--kneser", "7", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "7 2 kneser"
    assert len(lines) == 1 + comb(7, 2)
    assert all(set(ln) <= {"0", "1"} and len(ln) == 7 for ln in lines[1:])


def test_gen_sets_format(capsys):
    code, out, _ = run(capsys, "gen", "--kneser", "7", "2", "--format", "sets")
    assert code == 0
    body = out.splitlines()[1:]
    assert all(len(ln.split(",")) == 2 for ln in body)
    first = {int(t) for t in body[0].split(",")}
    second = {int(t) for t in body[1].split(",")}
    assert first.isdisjoint(second)
    assert all(1 <= int(t) <= 7 for ln in body for t in ln.split(","))


def test_gen_json(capsys):
    code, out, _ = run(capsys, "gen", "--johnson", "6", "2", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "johnson"
    assert payload["s"] == 1
    assert payload["closed"] is True
    assert payload["count"] == comb(6, 2) == len(payload["vertices"])


@pytest.mark.parametrize("spec, flags, exit_code", [
    (GraphSpec("kneser", 9, 3), ["--kneser", "9", "3"], 0),
    (GraphSpec("kneser", 5, 2), ["--kneser", "5", "2"], 3),
    (GraphSpec("johnson", 9, 3, 1), ["--johnson", "9", "3", "1"], 0),
    (GraphSpec("kneser", 17, 7), ["--kneser", "17", "7"], 0),  # a walk of many chunks
])
def test_gen_json_streams_the_dumped_payload(capsys, spec, flags, exit_code):
    """The streamed JSON is byte for byte json.dumps of the whole payload."""
    code, out, _ = run(capsys, "gen", *flags, "--format", "json")
    r = hamilton_tour(spec)
    payload = {
        "n": spec.n, "k": spec.k, "family": spec.family,
        "s": spec.s if spec.family == "johnson" else None,
        "status": r.status, "closed": r.status == "cycle",
        "count": len(r.vertices), "note": r.note,
        "vertices": [[i + 1 for i in range(spec.n) if v >> i & 1] for v in r.vertices],
    }
    assert code == exit_code
    assert out == json.dumps(payload) + "\n"


def test_gen_petersen_warns_and_exits_3(capsys):
    code, out, err = run(capsys, "gen", "--kneser", "5", "2")
    assert code == 3
    lines = out.splitlines()
    assert lines[0] == "5 2 kneser path"
    assert len(lines) == 1 + comb(5, 2)
    assert "path" in err


def test_gen_infeasible_exits_3(capsys):
    code, out, err = run(capsys, "gen", "--kneser", "4", "2")
    assert code == 3
    assert out == ""
    assert "none" in err


def test_gen_edgeless_beyond_exhaustive_limit_exits_3(capsys):
    code, out, err = run(capsys, "gen", "--gen-kneser", "10", "7", "3")
    assert code == 3
    assert out == ""
    assert "none" in err


def test_gen_invalid_parameters_exit_2(capsys):
    code, _, err = run(capsys, "gen", "--kneser", "5", "0")
    assert code == 2
    assert err


@pytest.mark.parametrize("secs, code, err", [
    ("nan", 2, "parameter error: the time budget is not a number\n"),
    ("-1", 4, "timeout: search hit the time budget\n"),
    ("inf", 0, ""),
], ids=["nan", "negative", "inf"])
def test_gen_refuses_only_a_nan_budget(capsys, secs, code, err):
    """A NaN budget is refused before any search; a negative one still times
    the search out, and an infinite one lets it run to its cycle."""
    got = run(capsys, "gen", "--kneser", "13", "6", "--fallback-secs", secs)
    assert (got[0], got[2]) == (code, err)


@pytest.mark.parametrize("spec, checks", [
    (GraphSpec("kneser", 5, 2), 1), (GraphSpec("kneser", 7, 3), 1),
    (GraphSpec("kneser", 13, 6), 1), (GraphSpec("kneser", 15, 7), 1),
    (GraphSpec("kneser", 11, 4), 1),  # glued
    (GraphSpec("johnson", 17, 7, 3), 24), (GraphSpec("gen-kneser", 15, 6, 1), 10),
    (GraphSpec("bipartite", 15, 6), 2), (GraphSpec("bipartite", 16, 5), 2),
], ids=["K(5,2)", "K(7,3)", "K(13,6)", "K(15,7)", "K(11,4)", "J(17,7,3)", "K(15,6,1)",
        "H(15,6)", "H(16,5)"])
def test_gen_checks_each_tour_as_often_as_the_library(tmp_path, monkeypatch, spec, checks):
    """gen checks the tours that hamilton_tour checks, in the same order: each
    piece of a composite family under its own spec, then the whole.  None is
    checked twice and none is left out."""
    checked = []
    fault = families.tour_fault

    def spy(graph, vertices, closed=True):
        checked.append((graph, closed))
        return fault(graph, vertices, closed)

    monkeypatch.setattr(families, "tour_fault", spy)
    hamilton_tour(spec)
    library, checked[:] = checked[:], []
    s = [str(spec.s)] if spec.family in ("johnson", "gen-kneser") else []
    main(["gen", f"--{spec.family}", str(spec.n), str(spec.k), *s, "-o", str(tmp_path / "t")])
    assert checked == library and library[-1][0] == spec
    assert len(set(library)) == len(library) == checks, library


def test_gen_bipartite_even_path_exits_0(capsys):
    code, out, _ = run(capsys, "gen", "--bipartite", "6", "1")
    assert code == 0
    assert out.splitlines()[0] == "6 1 bipartite path"


def test_gen_output_file(tmp_path, capsys):
    target = tmp_path / "tour.txt"
    code, out, _ = run(capsys, "gen", "--kneser", "7", "2", "-o", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[0] == "7 2 kneser"


@pytest.mark.parametrize("n, k", [(7, 3), (17, 7)])  # one chunk, several chunks
@pytest.mark.parametrize("fmt", ["bits", "sets"])
@pytest.mark.parametrize("to_file", [False, True])
def test_gen_writes_one_line_per_vertex(tmp_path, capsys, n, k, fmt, to_file):
    """The chunked writer prints what one line per vertex would."""
    verts = hamilton_tour(GraphSpec("kneser", n, k)).vertices
    want = [f"{n} {k} kneser"] + [
        to_string(v, n) if fmt == "bits" else ",".join(str(i + 1) for i in range(n) if v >> i & 1)
        for v in verts]
    path = tmp_path / "tour.txt"
    argv = ["gen", "--kneser", str(n), str(k), "--format", fmt] + (["-o", str(path)] if to_file else [])
    code, out, _ = run(capsys, *argv)
    assert code == 0
    text = path.read_text() if to_file else out
    assert text == "\n".join(want) + "\n"
    assert out == ("" if to_file else text)


def test_gen_checks_the_streamed_walk_under_python_O(tmp_path):
    """gen writes a glued tour as it walks it and checks it as it writes it:
    a walk with two vertices swapped just past a check chunk's seam exits
    nonzero with the library check's message, under python -O too."""
    n, k, at = 15, 6, families._CHUNK
    spec = GraphSpec("kneser", n, k)
    tour = list(hamilton_tour(spec).vertices)
    tour[at], tour[at + 1] = tour[at + 1], tour[at]
    want = f"constructed cycle fails verification: {spec}: {tour_fault_passes(spec, tour)}"
    code = (
        "import sys\n"
        "from kneser import cli, families\n"
        "walk = families.iter_tour\n"
        "def swapped(plan):\n"
        "    tour = list(walk(plan))\n"
        f"    tour[{at}], tour[{at + 1}] = tour[{at + 1}], tour[{at}]\n"
        "    return iter(tour)\n"
        "families.iter_tour = swapped\n"
        "assert False, 'asserts run'\n"
        f"sys.exit(cli.main(['gen', '--kneser', '{n}', '{k}', '-o', sys.argv[1]]))\n"
    )
    src = str(Path(kneser.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", code, str(tmp_path / "tour.txt")],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode != 0
    assert proc.stderr.endswith(f"InternalConsistencyError: {want}\n"), proc.stderr


def test_gen_stops_at_an_always_on_error_in_the_walk(monkeypatch, capsys):
    """A plan with a tree edge left out closes the streamed walk early: gen
    raises the walk's own check after writing the vertices before it."""
    plan = build_gluing_plan(11, 4)
    monkeypatch.setattr(families, "build_gluing_plan",
                        lambda n, k: plan._replace(tree=plan.tree[1:]))
    with pytest.raises(InternalConsistencyError, match="closes before visiting every vertex"):
        main(["gen", "--kneser", "11", "4"])


def _traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gen_peak_memory_per_vertex(tmp_path):
    """gen never holds a glued tour: it walks it into the writer and the check
    a chunk at a time, and keeps one byte per mask for repeats.  On K(17,7)
    its peak is the plan's and about 15 B per vertex more, against about 22
    for a tour tuple and a set of its masks."""
    argv = ["gen", "--kneser", "17", "7", "-o", str(tmp_path / "tour.txt")]
    main(argv)  # module-level caches are then filled on both sides
    tracemalloc.start()
    try:
        build_gluing_plan(17, 7)
        plan = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _traced_peak(argv) <= plan + 18 * comb(17, 7), plan


# -- verify -------------------------------------------------------------------


@pytest.mark.parametrize("k, fmt", [
    ("2", "bits"), ("2", "sets"), ("2", "json"),
    ("1", "sets"),  # the one-element sets 1 .. 7 are not read as bitstrings
], ids=["bits", "sets", "json", "sets-k1"])
def test_gen_verify_roundtrip(tmp_path, capsys, k, fmt):
    tour = tmp_path / "tour.txt"
    code, _, _ = run(capsys, "gen", "--kneser", "7", k, "--format", fmt,
                     "-o", str(tour))
    assert code == 0
    code, out, err = run(capsys, "verify", str(tour))
    assert code == 0, err
    assert out.startswith("ok: Hamilton cycle")


@pytest.mark.parametrize("fmt", ["bits", "sets"])
@pytest.mark.parametrize("family", ["johnson", "gen-kneser"])
def test_gen_verify_roundtrip_with_s(tmp_path, capsys, family, fmt):
    """s goes into the text header of a Johnson or generalized Kneser tour
    and is read back from it."""
    tour = tmp_path / "tour.txt"
    code, _, err = run(capsys, "gen", f"--{family}", "9", "3", "1", "--format", fmt,
                       "-o", str(tour))
    assert code == 0, err
    assert tour.read_text().splitlines()[0] == f"9 3 {family} 1"
    code, out, err = run(capsys, "verify", str(tour))
    assert code == 0, err
    assert out == f"ok: Hamilton cycle of {family} n=9 k=3 s=1, {comb(9, 3)} vertices\n"


def test_verify_from_stdin(capsys, monkeypatch):
    code, out, _ = run(capsys, "gen", "--kneser", "7", "2")
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out2, _ = run(capsys, "verify")
    assert code == 0
    assert out2.startswith("ok")


def test_verify_rejects_tampering(tmp_path, capsys):
    tour = tmp_path / "tour.txt"
    run(capsys, "gen", "--kneser", "7", "2", "-o", str(tour))
    lines = tour.read_text().splitlines()
    verts = [int(ln[::-1], 2) for ln in lines[1:]]
    # swap a vertex meeting verts[0] into slot 1, forcing a non-edge up front
    j = next(i for i in range(3, 20) if verts[0] & verts[i])
    lines[2], lines[1 + j] = lines[1 + j], lines[2]
    tour.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "verify", str(tour))
    assert code == 1
    assert "positions 0 and 1" in err and "not adjacent" in err


def test_verify_rejects_missing_vertex(tmp_path, capsys):
    tour = tmp_path / "tour.txt"
    run(capsys, "gen", "--kneser", "7", "2", "-o", str(tour))
    lines = tour.read_text().splitlines()
    code, _, err = run(capsys, "verify", str(tour))
    assert code == 0
    tour.write_text("\n".join(lines[:-1]) + "\n")
    code, _, err = run(capsys, "verify", str(tour))
    assert code == 1
    assert "vertices listed" in err


def test_verify_family_mismatch(tmp_path, capsys):
    tour = tmp_path / "tour.txt"
    run(capsys, "gen", "--kneser", "7", "2", "-o", str(tour))
    code, _, err = run(capsys, "verify", str(tour), "--kneser", "9", "3")
    assert code == 2
    assert "declared" in err


def test_verify_reads_a_kneser_s_as_no_part_of_the_graph(tmp_path, capsys):
    """A Kneser header with an s names the same graph as --kneser n k."""
    tour = tmp_path / "tour.txt"
    run(capsys, "gen", "--kneser", "9", "3", "-o", str(tour))
    head, rest = tour.read_text().split("\n", 1)
    tour.write_text(f"{head} 2\n{rest}")
    code, out, err = run(capsys, "verify", str(tour), "--kneser", "9", "3")
    assert code == 0, err
    assert out.startswith("ok: Hamilton cycle of kneser n=9 k=3,")


def test_verify_petersen_path(tmp_path, capsys):
    tour = tmp_path / "tour.txt"
    run(capsys, "gen", "--kneser", "5", "2", "-o", str(tour))
    code, out, _ = run(capsys, "verify", str(tour))
    assert code == 0
    assert out.startswith("ok: Hamilton path")


def test_verify_garbage_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("what even is this\n")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2


# a Hamilton cycle of K(7,2) and a Hamilton path of K(5,2)
K7 = ("0000011 1000100 0001001 1000010 0000101 0001010 0010100 0101000 1010000 0100001 "
      "0010010 0100100 1001000 0010001 0100010 0001100 0110000 1000001 0000110 0011000 "
      "1100000").split()
P5 = "11000 00110 10001 01100 00011 10100 01010 00101 10010 01001".split()


def _swap(seq, i, j):
    seq = list(seq)
    seq[i], seq[j] = seq[j], seq[i]
    return seq


@pytest.mark.parametrize("head, body, code, err", [
    ("7 2 kneser", K7, 0, ""),
    ("7 2 kneser", K7[:-1], 1, "fail: 20 vertices listed, the graph has 21\n"),
    ("7 2 kneser", K7[:-1] + [K7[0]], 1, "fail: repeated vertex\n"),
    ("7 2 kneser", K7[:-1] + ["1110000"], 1, "fail: 1110000 is not a vertex of this graph\n"),
    # the count comes before a non-vertex, a repeat before a non-vertex
    ("7 2 kneser", K7[:-2] + ["1110000"], 1, "fail: 20 vertices listed, the graph has 21\n"),
    ("7 2 kneser", K7[:-2] + [K7[0], "1110000"], 1, "fail: repeated vertex\n"),
    ("7 2 kneser", _swap(K7, 5, 9), 1,
     "fail: positions 4 and 5: 0000101 and 0100001 are not adjacent\n"),
    ("7 2 kneser", _swap(K7, 0, 20), 1,
     "fail: positions 0 and 1: 1100000 and 1000100 are not adjacent\n"),
    # read as a cycle, the path fails on its closing pair alone
    ("5 2 kneser", P5, 1, "fail: positions 9 and 10: 01001 and 11000 are not adjacent\n"),
    ("5 2 kneser path", P5, 0, ""),
    ("5 2 kneser path", P5[:-1] + ["11100"], 1, "fail: 11100 is not a vertex of this graph\n"),
    ("5 2 kneser path", P5[:-1] + [P5[0]], 1, "fail: repeated vertex\n"),
    ("5 2 kneser path", _swap(P5, 4, 5), 1,
     "fail: positions 3 and 4: 01100 and 10100 are not adjacent\n"),
    ("5 2 kneser path", P5[:1], 1, "fail: 1 vertices listed, the graph has 10\n"),
], ids=["cycle", "cycle-count", "cycle-repeat", "cycle-non-vertex", "count-first",
        "repeat-first", "cycle-non-edge", "cycle-first-pair", "cycle-closing-pair", "path",
        "path-non-vertex", "path-repeat", "path-non-edge", "path-count"])
def test_verify_reports_the_first_fault(tmp_path, capsys, head, body, code, err):
    tour = tmp_path / "tour.txt"
    tour.write_text("\n".join([head] + body) + "\n")
    got = run(capsys, "verify", str(tour))
    assert (got[0], got[2]) == (code, err)


@pytest.mark.parametrize("text", [
    "7 2 kneser\n1,2\n0,3\n",
    '{"n": 7, "k": 2, "family": "kneser", "vertices": [[1, 2], [3, 0]]}',
], ids=["sets", "json"])
def test_verify_rejects_set_element_zero(tmp_path, capsys, text):
    tour = tmp_path / "tour.txt"
    tour.write_text(text)
    code, _, err = run(capsys, "verify", str(tour))
    assert code == 2
    assert err.startswith("parameter error: ") and "set element 0" in err


@pytest.mark.parametrize("text, err", [
    ('{"n": 7, "k": 2, "vertices": [[1, 2], [3, 4]]}', "malformed JSON tour: KeyError('family')"),
    ('{"n": 7, "k": 2, "family": "kneser", "vertices": [[1, 2], [3, "a"]]}',
     "malformed JSON tour: TypeError("),
    ('{"n": 5.0, "k": 2, "family": "kneser", "vertices": [[1, 2], [3, 4]]}',
     "n must be an integer, got 5.0"),
    ('{"n": 5, "k": true, "family": "kneser", "vertices": [[1], [2]]}',
     "k must be an integer, got True"),
    ('{"n": 5, "k": 2, "family": "kneser", "closed": "false", "vertices": [[1, 2], [3, 4]]}',
     "malformed JSON tour: TypeError(\"closed must be a JSON boolean, got 'false'\")"),
    ('{"n": 5, "k": 2, "family": "kneser", "vertices": [[true, 2], [3, 4]]}',
     "malformed JSON tour: TypeError('set element True is not an integer')"),
    ("7 2 kneser\n1,2\n3,8\n", "set element 8 is not a position 1..7"),
    ("7 2 kneser\n1000001\n011000\n", "set element 11000 is not a position 1..7"),
], ids=["json-no-family", "json-non-integer", "json-float-n", "json-bool-k", "json-string-closed",
        "json-bool-element", "sets-above-n", "short-bitstring"])
def test_verify_rejects_malformed_tours(tmp_path, capsys, text, err):
    tour = tmp_path / "tour.txt"
    tour.write_text(text)
    code, _, got = run(capsys, "verify", str(tour))
    assert code == 2
    assert got.startswith("parameter error: " + err), got


def test_verify_reads_a_repeated_set_element_once(tmp_path, capsys):
    # written as 1,1,3 the vertex {2,3} is {1,3}, which the tour already lists
    sets = [",".join(str(i + 1) for i, c in enumerate(b) if c == "1") for b in K7]
    sets[sets.index("2,3")] = "1,1,3"
    tour = tmp_path / "tour.txt"
    tour.write_text("\n".join(["7 2 kneser"] + sets) + "\n")
    assert run(capsys, "verify", str(tour))[::2] == (1, "fail: repeated vertex\n")


def test_verify_reads_to_the_end_before_it_reports(tmp_path, capsys):
    """A non-edge at positions 0 and 1 does not stop the read: a malformed
    line chunks later still exits 2 with its parse error."""
    tour = tmp_path / "tour.txt"
    run(capsys, "gen", "--kneser", "17", "7", "-o", str(tour))
    lines = tour.read_text().splitlines()
    verts = [int(ln[::-1], 2) for ln in lines[1:]]
    j = next(i for i in range(3, 40) if verts[0] & verts[i])
    lines[2], lines[1 + j] = lines[1 + j], lines[2]
    tour.write_text("\n".join(lines) + "\n")
    assert run(capsys, "verify", str(tour))[0] == 1
    tour.write_text("\n".join(lines + ["3,99"]) + "\n")
    code, _, err = run(capsys, "verify", str(tour))
    assert (code, err) == (2, "parameter error: set element 99 is not a position 1..17\n")


def _marked(line: str) -> str:
    return line.replace("0", "-", 1)  # a '-' marks an unmatched zero


@pytest.mark.parametrize("write", [
    lambda head, body: "\n\n".join([head] + body) + "\n\n",
    lambda head, body: "\r\n".join([head] + body) + "\r\n",
    lambda head, body: "\n".join([head] + [_marked(ln) for ln in body]),
    lambda head, body: "\r".join([head] + body),
    lambda head, body: "  \n" + "\n".join([f" {head} "] + [f"{ln} " for ln in body]) + "\n",
], ids=["blank-lines", "crlf", "markers", "cr", "spaces"])
@pytest.mark.parametrize("from_stdin", [False, True])
def test_verify_reads_blank_lines_crlf_and_markers(tmp_path, capsys, monkeypatch, write,
                                                    from_stdin):
    """Lines read the same however they are separated and padded, whether
    the file is opened or handed over as stdin, for a tour and a non-tour."""
    for body, want in [(K7, (0, "")),
                       (_swap(K7, 5, 9),
                        (1, "fail: positions 4 and 5: 0000101 and 0100001 are not adjacent\n"))]:
        text = write("7 2 kneser", body)
        if from_stdin:
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            got = run(capsys, "verify")
        else:
            tour = tmp_path / "tour.txt"
            tour.write_bytes(text.encode())
            got = run(capsys, "verify", str(tour))
        assert (got[0], got[2]) == want


@pytest.mark.parametrize("text, err", [
    ("\n".join(["7 2 kneser", *K7[:-1], "110"]), "parameter error: set element 110 "),
    ("\n".join(["7 2 kneser", *K7[:3], "100001", "10000011", *K7[5:]]) + "\n",
     "parameter error: set element 100001 "),
    ("\n".join(["7 2 kneser", *K7[:3], "1000\udc8001", *K7[4:]]) + "\n",
     "error: invalid literal for int() with base 10: '1000\\udc8001'"),
], ids=["unterminated-short-line", "uneven-lines", "undecodable-byte"])
def test_verify_reads_only_gen_lines_as_a_block(capsys, monkeypatch, text, err):
    """A chunk goes through int as a block only when every line is n
    characters from 01; a chunk with any other line reads line by line."""
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, _, got = run(capsys, "verify")
    assert code == 2 and got.startswith(err), got


def test_verify_reads_lines_across_chunk_ends(tmp_path, capsys):
    """Two blank lines after the header shift every chunk off the line ends;
    each chunk is read on to the end of its last line."""
    tour = tmp_path / "tour.txt"
    run(capsys, "gen", "--kneser", "17", "7", "-o", str(tour))
    head, body = tour.read_text().split("\n", 1)
    tour.write_text(f"{head}\n\n\n{body}")
    code, out, _ = run(capsys, "verify", str(tour))
    assert (code, out) == (0, "ok: Hamilton cycle of kneser n=17 k=7, 19448 vertices\n")


def test_verify_peak_memory_per_vertex(tmp_path, capsys):
    """verify holds a chunk of lines and one byte per mask, not the tour as a
    string, a list of lines and a list of ints: about 27 B per vertex at the
    Python level on K(17,7), 11 of them the reader's chunk of text and 7 the
    byte map, against 67 with a set of the masks."""
    tour = tmp_path / "tour.txt"
    run(capsys, "gen", "--kneser", "17", "7", "-o", str(tour))
    tracemalloc.start()
    try:
        code = main(["verify", str(tour)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 32 * comb(17, 7), peak


# -- factor ---------------------------------------------------------------------


def test_factor_petersen(capsys):
    code, out, _ = run(capsys, "factor", "--kneser", "5", "2")
    assert code == 0
    assert "2 cycles x length 5" in out
    assert out.splitlines()[0] == "n=5 k=2 cycles=2 vertices=10"
    assert "V=" in out and "Z=" in out


def test_factor_positional_matches_flag(capsys):
    _, out_pos, _ = run(capsys, "factor", "7", "2")
    _, out_flag, _ = run(capsys, "factor", "--kneser", "7", "2")
    assert out_pos == out_flag


def test_factor_json(capsys):
    code, out, _ = run(capsys, "factor", "7", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cycle_count"] == 3
    assert payload["length_histogram"] == {"7": 3}
    assert sum(c["length"] for c in payload["cycles"]) == comb(7, 2)
    for c in payload["cycles"]:
        assert sum(c["V"]) == 2


@pytest.mark.parametrize("n, k", [(9, 3), (5, 2)])
def test_factor_json_streams_the_dumped_payload(capsys, n, k):
    """The streamed JSON is byte for byte json.dumps of the whole payload."""
    code, out, _ = run(capsys, "factor", str(n), str(k), "--format", "json")
    f = cycle_factor(n, k)
    lengths = sorted(len(c) for c in f.cycles)
    cycles = []
    for c in f.cycles:
        p = glider_partition(CyclicBitstring(n, k, c.key))
        comp = train_composition(p)
        cycles.append({
            "key": to_string(c.key, n), "length": len(c),
            "V": list(speed_partition(p)),
            "Z": {str(v): list(comp[v].composition) for v in sorted(comp, reverse=True)},
            "vertices": [to_string(b, n) for b in c.vertices],
        })
    payload = {
        "n": n, "k": k, "cycle_count": len(f.cycles), "vertex_count": comb(n, k),
        "length_histogram": {str(m): lengths.count(m) for m in sorted(set(lengths))},
        "cycles": cycles,
    }
    assert code == 0
    assert out == json.dumps(payload) + "\n"


def test_factor_rejects_bad_usage(capsys):
    code, _, err = run(capsys, "factor")
    assert code == 2
    code, _, _ = run(capsys, "factor", "5", "2", "--kneser", "5", "2")
    assert code == 2
    code, _, _ = run(capsys, "factor", "4", "2")
    assert code == 2


# -- trace and plan -----------------------------------------------------------------


def test_trace_runs(capsys):
    code, out, _ = run(capsys, "trace", "6", "2", "--start", "100100", "--steps", "6")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("t=0")


def test_trace_scans_once_per_step(capsys, monkeypatch):
    """The orbit of 110101000000 closes after L = 18 strings, so a trace of
    T steps makes min(T, 18) + 1 matching scans."""
    calls = [0]
    scan = bitstrings._scan_match

    def counting(bits, n):
        calls[0] += 1
        return scan(bits, n)

    monkeypatch.setattr(bitstrings, "_scan_match", counting)
    for steps, scans in ((40, 19), (100, 19), (12, 13)):
        calls[0] = 0
        code, out, _ = run(capsys, "trace", "12", "4", "--start", "110101000000",
                           "--steps", str(steps))
        assert code == 0 and len(out.splitlines()) == steps
        assert calls[0] == scans, (steps, calls[0])


def test_trace_steps_default_to_n(capsys):
    default = run(capsys, "trace", "6", "2", "--start", "100100")
    assert default == run(capsys, "trace", "6", "2", "--start", "100100", "--steps", "6")
    assert default[0] == 0


def test_trace_svg(tmp_path, capsys):
    svg = tmp_path / "trace.svg"
    code, _, err = run(capsys, "trace", "6", "2", "--start", "100100",
                       "--steps", "6", "--svg", str(svg))
    assert code == 0
    assert svg.read_text().startswith("<svg")


def test_trace_validates_start(capsys):
    code, _, _ = run(capsys, "trace", "6", "2", "--start", "110000000")
    assert code == 2
    code, _, _ = run(capsys, "trace", "9", "3", "--start", "110000000")
    assert code == 2


def test_trace_rejects_negative_steps(capsys):
    code, out, err = run(capsys, "trace", "9", "3", "--start", "110100000", "--steps", "-3")
    assert (code, out) == (2, "")
    assert err.startswith("parameter error: ") and "-3" in err


def test_plan_summary(capsys):
    code, out, _ = run(capsys, "plan", "9", "3")
    assert code == 0
    assert "K(9,3)" in out
    assert "rotation base r=5" in out
    assert "spanning tree: 7 connectors" in out


def test_plan_full_lists_all_connectors(capsys):
    code, out, _ = run(capsys, "plan", "9", "3", "--full")
    assert code == 0
    assert out.count("connector rule") == 11
