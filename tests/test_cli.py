import pathlib

import numpy as np
import pytest

from endlab import cellsurf, cli, fixtures
from endlab.cli import main
from octagon import double_cover, genus2_complex
from scripts_path import GOLDEN, INPUTS, RUNS  # see conftest


def run_to_bytes(tmp_path, argv, name="out.txt"):
    out = tmp_path / name
    code = main(list(argv) + ["--out", str(out)])
    return code, out.read_bytes()


@pytest.mark.parametrize("name,expect_code,argv",
                         RUNS, ids=[r[0] for r in RUNS])
def test_golden_outputs(tmp_path, name, expect_code, argv):
    code, data = run_to_bytes(tmp_path, argv, name)
    assert code == expect_code
    assert data == (GOLDEN / name).read_bytes()


def test_rerun_byte_identical(tmp_path):
    argv = ["rigidity", "--seed", "7", str(INPUTS / "octahedron.poly")]
    _, a = run_to_bytes(tmp_path, argv, "a.txt")
    _, b = run_to_bytes(tmp_path, argv, "b.txt")
    assert a == b


def test_one_parser_serves_every_call(tmp_path, monkeypatch, capsys):
    # main builds its parser once per process and looks the handler up at
    # each call: every golden run, twice, around a usage error and an
    # input error, reads its golden, and a rebound cmd_* is what runs
    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()
    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    handled = []
    handler = cli.cmd_rigidity

    def watched(args):
        handled.append(args.files[0])
        return handler(args)

    def golden_round(runs):
        for name, expect_code, argv in runs:
            assert run_to_bytes(tmp_path, argv, name) == (
                expect_code, (GOLDEN / name).read_bytes())

    missing = str(tmp_path / "missing.poly")
    golden_round(RUNS)
    assert main(["rigidity", "--tol-rank", "nan",
                 str(INPUTS / "octahedron.poly")]) == 2
    monkeypatch.setattr(cli, "cmd_rigidity", watched)
    assert main(["rigidity", missing]) == 2
    golden_round(RUNS[::-1])
    assert len(built) == 1
    assert handled == [missing] + [argv[-1] for _, _, argv in RUNS[::-1]
                                   if argv[0] == "rigidity"]
    err = capsys.readouterr().err
    assert "argument --tol-rank" in err and "error: [Errno" in err


def test_exit_codes_usage_errors(tmp_path, capsys):
    bad = tmp_path / "trunc.surf"
    bad.write_text("v 0\nv 1\ne 0 0 zzz\n")
    assert main(["check-admissible", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err

    empty = tmp_path / "empty.poly"
    empty.write_text("")
    assert main(["rigidity", str(empty)]) == 2

    assert main(["render", str(INPUTS / "tetrahedron_compact.poly")]) == 2
    assert main(["definitely-not-a-command"]) == 2
    assert main(["schlafli", "--definitely-bad-flag"]) == 2


def test_unreadable_input_is_a_usage_error(tmp_path, capsys):
    # a missing file, or a directory where a file belongs (any OSError)
    assert main(["rigidity", str(tmp_path / "missing.poly")]) == 2
    assert main(["rigidity", str(tmp_path)]) == 2
    assert capsys.readouterr().err.count("error: [Errno") == 2


def test_edge_endpoint_out_of_range_rejected(tmp_path, capsys):
    path = tmp_path / "endpoint.surf"
    path.write_text("v 0\nv 1\nv 2\ne 0 0 1\ne 1 1 7\ne 2 7 0\n"
                    "f 0 0+ 1+ 2+\nf 1 2- 1- 0-\n")
    for command in ("check-admissible", "pak-search"):
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 5: edge 1 endpoint out of range" in err


EDGES = "e 0 0 1\ne 1 1 2\ne 2 2 0\n"


@pytest.mark.parametrize("edges,faces,message", [
    (EDGES, "f 0 0+ 5+ 2+\nf 1 2- 1- 0-\n",
     "line 7: dart id 10 out of range"),
    ("e 0 0 1\ne 0 1 2\ne 1 2 0\n", "f 0 0+ 5+ 2+\nf 1 2- 1- 0-\n",
     "line 5: duplicate edge 0"),
    (EDGES, "f 0 0+ 1+ 2+\nf 1 2- 1- 5-\n",
     "line 8: dart id 11 out of range"),
    (EDGES, "f 0 0+ 1+ 2+\nf 1 2- 1- -1-\n",
     "line 8: dart id -1 out of range"),
    # face 0's fault is met before face 1's dart used twice
    (EDGES, "f 0 0+ 5+ 2+\nf 1 2- 2- 0-\n",
     "line 7: dart id 10 out of range"),
], ids=["dart-past-last-edge", "duplicate-edge", "second-face-past-last-edge",
        "negative-dart", "before-a-later-fault"])
def test_face_dart_out_of_range_rejected(tmp_path, capsys, edges, faces,
                                         message):
    path = tmp_path / "darts.surf"
    path.write_text("v 0\nv 1\nv 2\n" + edges + faces)
    for command in ("check-admissible", "pak-search"):
        assert main([command, str(path)]) == 2
        assert message in capsys.readouterr().err


def two_copies(surface):
    """surf v1 text of two disjoint copies of a surface with weights."""
    n, m = surface.n_vertices, surface.n_edges
    lines = ["v %d" % v for v in range(2 * n)]
    lines += ["e %d %d %d" % (e, u + c * n, v + c * n)
              for c in (0, 1) for e, (u, v) in enumerate(surface.edges, c * m)]
    lines += ["f %d %s" % (f, " ".join("%d%s" % (d // 2 + c * m, "+-"[d % 2])
                                       for d in cyc))
              for c in (0, 1)
              for f, cyc in enumerate(surface.face_cycles,
                                      c * surface.n_faces)]
    lines += ["theta %d %.17g" % (e, t)
              for e, t in enumerate(list(surface.theta) * 2)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command,name", [
    ("check-admissible", "pattern.surf"),
    ("pak-search", "genus2_uniform.surf"),
])
def test_disconnected_surface_is_bad_input(tmp_path, capsys, command, name):
    # two spheres would read as genus -1 and pass check-admissible; two
    # genus-2 copies would reach pak-search as genus 3
    surface = cellsurf.parse_surf((INPUTS / name).read_text())
    path = tmp_path / "two.surf"
    path.write_text(two_copies(surface))
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: surface is not connected (vertex %d unreached from vertex 0)\n"
        % surface.n_vertices)


@pytest.mark.parametrize("command,name,record,bad", [
    ("rigidity", "tetrahedron_compact.poly",
     "geom 0 compact 0.67850272550221846", "geom 0 compact nan"),
    ("rigidity", "octahedron.poly", "geom 0 ideal 1 ", "geom 0 ideal inf "),
    ("check-admissible", "pattern.surf", "theta 0 1.5707963267948966\n",
     "theta 0 nan\n"),
], ids=["compact-nan", "ideal-inf", "theta-nan"])
def test_non_finite_numbers_rejected_at_parse(tmp_path, capsys, command, name,
                                              record, bad):
    text = (INPUTS / name).read_text()
    assert record in text
    text = text.replace(record, bad, 1)
    line = next(i for i, ln in enumerate(text.splitlines(), start=1)
                if ln.startswith(bad.strip()))
    path = tmp_path / name
    path.write_text(text)
    assert main([command, str(path)]) == 2
    assert "line %d: non-finite" % line in capsys.readouterr().err


@pytest.mark.parametrize("command,name,record,bad,message", [
    ("check-admissible", "pattern.surf", "v 7\n", "v 9\n",
     "vertex ids must be 0..n-1"),
    ("check-admissible", "pattern.surf", "v 3\n", "v -3\n",
     "vertex ids must be 0..n-1"),
    ("check-admissible", "pattern.surf", "e 11 3 7", "e 15 3 7",
     "edge ids must be 0..m-1"),
    ("check-admissible", "pattern.surf", "f 5 ", "f 9 ",
     "face ids must be 0..k-1"),
    ("check-admissible", "pattern.surf", "theta 11 ", "theta 40 ",
     "theta must cover all edges"),
    ("rigidity", "octahedron.poly", "geom 3 ", "geom 6 ",
     "geom records must cover all vertices"),
], ids=["vertex", "negative-vertex", "edge", "face", "theta", "geom"])
def test_id_gaps_name_the_record_outside_the_range(tmp_path, capsys, command,
                                                   name, record, bad,
                                                   message):
    text = (INPUTS / name).read_text()
    assert record in text
    text = text.replace(record, bad, 1)
    line = next(i for i, ln in enumerate(text.splitlines(), start=1)
                if ln.startswith(bad.strip()))
    path = tmp_path / name
    path.write_text(text)
    assert main([command, str(path)]) == 2
    assert "error: line %d: %s\n" % (line, message) in capsys.readouterr().err


def test_rigidity_rejects_mixed_vertex_kinds(tmp_path, capsys):
    from endlab import polysurf
    text = polysurf.serialize_poly(fixtures.ideal_octahedron())
    text = text.replace("geom 0 ideal 1 0 0 1",
                        "geom 0 compact 0 0 0 1", 1)
    path = tmp_path / "mixed.poly"
    path.write_text(text)
    assert main(["rigidity", str(path)]) == 2
    assert "mixed" in capsys.readouterr().err


def test_geometry_error_is_a_usage_error(tmp_path, capsys):
    # two vertices at one ideal point (different decorations) share an edge
    text = (INPUTS / "octahedron.poly").read_text()
    record = "geom 2 ideal 0 1 0 1"
    assert record in text
    path = tmp_path / "same.poly"
    path.write_text(text.replace(record, "geom 2 ideal 2 0 0 2", 1))
    assert main(["rigidity", str(path)]) == 2
    assert capsys.readouterr().err == "error: same ideal point\n"


def test_pak_search_rejects_low_genus(tmp_path, capsys):
    out = tmp_path / "o.txt"
    code = main(["pak-search", "--out", str(out), str(INPUTS / "pattern.surf")])
    captured = capsys.readouterr()
    assert code == 2 and not out.exists() and captured.out == ""
    assert captured.err == "error: pak-search needs genus >= 2 (genus 0)\n"


def test_indeterminate_rank_is_an_undecided_verdict(tmp_path, capsys):
    # at tol-rank 0.8 the octahedron's cut falls between 1 and 0.707: too
    # small a gap to certify a rank, which is a verdict, not bad input
    code, data = run_to_bytes(tmp_path, [
        "rigidity", "--tol-rank", "0.8", str(INPUTS / "octahedron.poly")])
    assert code == 1 and capsys.readouterr().err == ""
    text = data.decode()
    assert "kind: ideal\n[SPECTRUM]\ncount: 6\nsigma-rel 0: 1\n" in text
    assert text.endswith("sigma-rel 5: 0.707107\n[KERNEL]\n"
                         "dim: indeterminate\ngap: 1.41\n"
                         "[VERDICT]\nresult: indeterminate rank\n")


def test_linalg_failure_is_internal_error(monkeypatch, capsys):
    def failing_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    assert main(["rigidity", str(INPUTS / "octahedron.poly")]) == 3
    assert capsys.readouterr().err == "internal error: SVD did not converge\n"


@pytest.mark.parametrize("owner,name,argv,message", [
    ("rigidity", "zero_sum_basis", ["rigidity", "octahedron.poly"],
     "per-vertex shift map is not injective"),
    ("cli", "cmd_schlafli", ["schlafli"],
     "operands could not be broadcast together with shapes (3,) (4,)"),
], ids=["not-injective", "shape-error"])
def test_bare_value_error_is_internal_error(monkeypatch, capsys, owner, name,
                                            argv, message):
    # an unclassified ValueError is a fault of endlab, not bad input
    import importlib

    def failing(*args, **kwargs):
        raise ValueError(message)

    monkeypatch.setattr(importlib.import_module("endlab." + owner), name,
                        failing)
    argv = argv[:1] + [str(INPUTS / a) for a in argv[1:]]
    assert main(argv) == 3
    assert capsys.readouterr().err == "internal error: %s\n" % message


@pytest.mark.parametrize("block,row", [
    ("structured", 0), ("structured", 40), ("structured", -1), ("random", 7),
], ids=["single-edge", "triangle", "vertex-order", "random"])
def test_pak_search_broken_identity_fails(tmp_path, monkeypatch, block, row):
    from endlab import decor
    surface = cellsurf.parse_surf(
        (INPUTS / "genus2_uniform.surf").read_text())
    structured_rows = surface.n_edges + surface.n_faces + 1
    batch_report = decor.batch_report

    def breaking(surface, states, table=None):
        rep = batch_report(surface, states, table)
        if (len(states) == structured_rows) == (block == "structured"):
            rep.identities[row] = False
        return rep

    monkeypatch.setattr(decor, "batch_report", breaking)
    code, data = run_to_bytes(tmp_path, [
        "pak-search", "--seed", "7", "--samples", "50", "--structured",
        str(INPUTS / "genus2_uniform.surf")])
    assert code == 1
    text = data.decode()
    assert "result: counting identities BROKEN\n" in text
    assert ("counting-identities: BROKEN" in text) == (block == "random")



def test_broken_euler_count_is_internal_error(monkeypatch, capsys):
    # an odd 2 - b - chi can only come from a counting fault in endlab
    from endlab import decor
    counts = decor._component_counts

    def one_more_boundary_cycle(surface, st):
        nv, ne, nf, eb, nb = counts(surface, st)
        return nv, ne, nf, eb, nb + (nf > 0)

    monkeypatch.setattr(decor, "_component_counts", one_more_boundary_cycle)
    assert main(["pak-search", "--samples", "10",
                 str(INPUTS / "genus2_uniform.surf")]) == 3
    assert capsys.readouterr().err == (
        "internal error: component has inconsistent Euler data\n")

@pytest.mark.parametrize("argv,flag", [
    (["check-admissible", "--max-cycle", "0", "pattern.surf"], "--max-cycle"),
    (["check-admissible", "--max-cycle", "-3", "pattern.surf"], "--max-cycle"),
    (["pak-search", "--samples", "-5", "genus2_uniform.surf"], "--samples")])
def test_nothing_to_check_is_bad_input(tmp_path, capsys, argv, flag):
    # a search bound below one cycle edge, or a negative sample count,
    # would check nothing and still print a verdict
    out = tmp_path / "out.txt"
    code = main(argv[:-1] + [str(INPUTS / argv[-1]), "--out", str(out)])
    assert (code, out.exists()) == (2, False)
    assert "argument %s: must be at least" % flag in capsys.readouterr().err


@pytest.mark.parametrize("cut", ["nan", "inf", "-1", "0", "1", "2"])
def test_undefined_rank_cut_is_bad_input(tmp_path, capsys, cut):
    # the cut sigma / sigma_max must lie strictly between 0 and 1; nan, inf
    # and 2 used to print "dim: 12" and "gap: inf" and exit 0
    out = tmp_path / "out.txt"
    code = main(["rigidity", "--tol-rank", cut, "--out", str(out),
                 str(INPUTS / "octahedron.poly")])
    assert (code, out.exists()) == (2, False)
    assert ("argument --tol-rank: must be a finite number in (0, 1) (got %s)"
            % cut) in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["pattern.surf"], ["pattern_bad.surf"], ["genus2_uniform.surf"],
    ["--all-cycles", "--max-cycle", "6", "genus2_uniform.surf"]])
def test_fixture_labels_change_no_byte(tmp_path, argv):
    # --fixture-labels is accepted and ignored, on any surface
    argv = ["check-admissible", *argv[:-1], str(INPUTS / argv[-1])]
    plain = run_to_bytes(tmp_path, argv, "plain.txt")
    assert run_to_bytes(tmp_path, argv + ["--fixture-labels"],
                        "flagged.txt") == plain


def test_admissible_genus3_cover_gets_a_verdict(tmp_path):
    cover, _ = double_cover()
    path = tmp_path / "cover.surf"
    path.write_text(cellsurf.serialize_surf(
        cover.with_theta(np.full(cover.n_edges, 2 * np.pi / 3))))
    code, data = run_to_bytes(tmp_path, ["check-admissible", str(path)])
    assert code in (0, 1)
    assert b"contractible-non-facial-checked: " in data


def test_render_without_decorations_still_renders(tmp_path):
    # rescaled decorations change lengths but not face planes: same SVG
    from endlab import polysurf
    a = tmp_path / "a.poly"
    b = tmp_path / "b.poly"
    a.write_text(polysurf.serialize_poly(fixtures.ideal_octahedron()))
    b.write_text(polysurf.serialize_poly(
        fixtures.ideal_octahedron([0.3, -0.2, 0.1, 0.0, 0.25, -0.15])))
    _, svg_a = run_to_bytes(tmp_path, ["render", str(a)], "a.svg")
    _, svg_b = run_to_bytes(tmp_path, ["render", str(b)], "b.svg")
    assert svg_a == svg_b


def test_shipped_fixture_data_matches_builder():
    shipped = fixtures.genus2_surface_file().read_text()
    built = cellsurf.serialize_surf(genus2_complex().surface)
    assert shipped == built


def test_stdout_path(capsys):
    code = main(["schlafli"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("# endlab report")
    assert "result: pass" in out
