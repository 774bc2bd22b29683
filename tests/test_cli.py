import io
import json
from math import comb

import pytest

from kneser.cli import main
from kneser.families import GraphSpec, hamilton_tour


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


# -- verify -------------------------------------------------------------------


@pytest.mark.parametrize("fmt", ["bits", "sets", "json"])
def test_gen_verify_roundtrip(tmp_path, capsys, fmt):
    tour = tmp_path / "tour.txt"
    code, _, _ = run(capsys, "gen", "--kneser", "7", "2", "--format", fmt,
                     "-o", str(tour))
    assert code == 0
    code, out, err = run(capsys, "verify", str(tour))
    assert code == 0, err
    assert out.startswith("ok: Hamilton cycle")


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
