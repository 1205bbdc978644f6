"""End-to-end CLI tests running main() in-process."""

import inspect
import json
import re

import pytest

from covernum.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def write_graph(tmp_path, text):
    path = tmp_path / "g.txt"
    path.write_text(text)
    return str(path)


def test_gen_known_graph6(capsys):
    code, out, _ = run(capsys, "gen", "complete:4")
    assert code == 0
    assert out.strip() == "C~"


def test_gen_bad_family(capsys):
    code, _, err = run(capsys, "gen", "dodecahedron")
    assert code == 2
    assert "error" in err


def test_gen_capacity(capsys):
    code, _, err = run(capsys, "gen", "hypercube:8")
    assert code == 3
    assert "capacity" in err


@pytest.mark.parametrize("spec, code, message", [
    ("cycle:100000000", 3, "capacity: vertex count 100000000 outside 0..64"),
    ("complete:30000", 3, "capacity: vertex count 30000 outside 0..64"),
    ("multipartite:100000000", 3, "capacity: vertex count 100000000 outside 0..64"),
    ("far:1,100000000", 2, "far graph needs l <= 2, got 100000000"),
], ids=["cycle", "complete", "multipartite", "far"])
def test_gen_checks_size_before_it_allocates(spec, code, message):
    # a child under a 2 GB address-space limit: a generator that built its
    # edges before the size check would die of MemoryError or run on, so
    # these sizes are never generated in the test process itself
    import os
    import subprocess
    import sys

    import covernum

    src = os.path.dirname(os.path.dirname(covernum.__file__))
    child = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
             f"from covernum.cli import main; sys.exit(main(['gen', {spec!r}]))")
    proc = subprocess.run([sys.executable, "-S", "-c", child], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
                          text=True, timeout=20)
    assert (proc.returncode, proc.stdout) == (code, "")
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_invariant_k4(capsys, tmp_path):
    path = write_graph(tmp_path, "C~")
    code, data, _ = run_json(capsys, "invariant", path)
    assert code == 0
    assert data["chi"] == 4
    assert data["omega"] == 4
    assert sorted(data["clique"]) == [0, 1, 2, 3]


def test_invariant_single_flag(capsys, tmp_path):
    path = write_graph(tmp_path, "C~")
    code, data, _ = run_json(capsys, "invariant", "--chi", path)
    assert code == 0
    assert "chi" in data and "omega" not in data


def test_invariant_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("C~\n"))
    code, data, _ = run_json(capsys, "invariant")
    assert code == 0
    assert data["chi"] == 4


def test_invariant_edge_list_format(capsys, tmp_path):
    path = write_graph(tmp_path, "3 2\n0 1\n1 2\n")
    code, data, _ = run_json(capsys, "invariant", path)
    assert code == 0
    assert data["chi"] == 2


def test_invariant_dimacs(capsys, tmp_path):
    path = write_graph(tmp_path, "c triangle\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    code, data, _ = run_json(capsys, "invariant", path)
    assert code == 0
    assert data["chi"] == 3


def test_format_override_failure(capsys, tmp_path):
    path = write_graph(tmp_path, "3 2\n0 1\n1 2\n")
    code, _, err = run(capsys, "invariant", "--format", "dimacs", path)
    assert code == 2
    assert "error" in err


def test_recognize_c5_perfect(capsys, tmp_path):
    path = write_graph(tmp_path, "Dhc")  # C5
    code, data, _ = run_json(capsys, "recognize", "--class", "perfect", path)
    assert code == 0
    assert data["member"] is False
    assert data["witness"]["kind"] == "odd-hole"
    assert data["witness"]["vertices"] == [0, 1, 2, 3, 4]


def test_recognize_perfect_tests_perfection_once(capsys, tmp_path, monkeypatch):
    import covernum.cli
    import covernum.recognizers

    calls = []
    original = covernum.recognizers.is_perfect

    def counted(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(covernum.recognizers, "is_perfect", counted)
    monkeypatch.setattr(covernum.cli, "is_perfect", counted)
    path = write_graph(tmp_path, "Dhc")  # C5
    code, data, _ = run_json(capsys, "recognize", "--class", "perfect", path)
    assert code == 0 and data["member"] is False
    assert len(calls) == 1


def c5_with_isolated_vertices():
    """C5 plus the edge 5-6 on 30 vertices: 7 vertices with an edge."""
    from covernum import emit_graph6, make_graph

    return emit_graph6(make_graph(30, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (5, 6)]))


def test_recognize_perfect_cap_skips_isolated_vertices(capsys, tmp_path):
    path = write_graph(tmp_path, c5_with_isolated_vertices())
    code, data, _ = run_json(capsys, "recognize", "--class", "perfect", path)
    assert code == 0
    assert data["member"] is False
    assert data["witness"] == {"kind": "odd-hole", "vertices": [0, 1, 2, 3, 4]}


def test_solve_perfect_cap_skips_isolated_vertices(capsys, tmp_path):
    path = write_graph(tmp_path, c5_with_isolated_vertices())
    code, data, _ = run_json(capsys, "solve", "--class", "perfect", path)
    assert code == 0
    assert data["value"] == 2


def test_recognize_2k4_unipolar(capsys, tmp_path):
    from covernum import emit_graph6, kKl

    path = write_graph(tmp_path, emit_graph6(kKl(2, 4)))
    code, data, _ = run_json(capsys, "recognize", "--class", "unipolar", path)
    assert code == 0
    assert data["member"] is True
    assert "clique_side" in data["witness"]


def test_recognize_k5_co_unipolar(capsys, tmp_path):
    from covernum import complete, emit_graph6

    path = write_graph(tmp_path, emit_graph6(complete(5)))
    code, data, _ = run_json(capsys, "recognize", "--class", "co-unipolar", path)
    assert code == 0
    assert data["member"] is True


def test_recognize_bad_class(capsys, tmp_path):
    path = write_graph(tmp_path, "C~")
    code, _, err = run(capsys, "recognize", "--class", "chordal", path)
    assert code == 2


def test_cover_k4_bipartite(capsys, tmp_path):
    path = write_graph(tmp_path, "C~")
    code, data, _ = run_json(capsys, "cover", "--class", "bipartite", path)
    assert code == 0
    assert data["formula"] == 2
    assert len(data["parts"]) == 2


def test_cover_edgeless(capsys, tmp_path):
    path = write_graph(tmp_path, "D??")  # 5 isolated vertices
    code, data, _ = run_json(capsys, "cover", "--class", "bipartite", path)
    assert code == 0
    assert data["parts"] == []


def test_cover_non_constructive_class(capsys, tmp_path):
    path = write_graph(tmp_path, "C~")
    code, _, err = run(capsys, "cover", "--class", "perfect", path)
    assert code == 4
    assert "solve" in err


def test_cover_chi_eq_omega(capsys, tmp_path):
    path = write_graph(tmp_path, "Dhc")  # C5: chi 3, omega 2
    code, data, _ = run_json(capsys, "cover", "--class", "chi-eq-omega", path)
    assert code == 0
    assert data["class"] == "chi-eq-omega"
    assert data["formula"] == 2
    assert len(data["parts"]) == 2


def test_cover_base_past_ssize_t(capsys, monkeypatch):
    import io

    # omega 4, so the digit base is 4 ** 40, far past a C ssize_t
    monkeypatch.setattr("sys.stdin", io.StringIO("Fj~mo\n"))
    code, data, _ = run_json(capsys, "cover", "--class", "chi-le-f:pow:40", "-")
    assert code == 0
    assert data["formula"] == 1
    assert len(data["parts"]) == 1


def test_cover_complete_64_bipartite(capsys, monkeypatch):
    import io

    # K64's 2,016 edges in six bipartite parts, one per binary digit of
    # the 64 colours: every edge lies in the parts where its ends' digits
    # differ
    monkeypatch.setattr("sys.stdin", io.StringIO(run(capsys, "gen", "complete:64")[1]))
    code, data, _ = run_json(capsys, "cover", "--class", "bipartite", "-")
    assert code == 0
    assert data["formula"] == 6
    parts = [{tuple(e) for e in part} for part in data["parts"]]
    assert set().union(*parts) == {(u, v) for u in range(64) for v in range(u + 1, 64)}
    assert [len(p) for p in parts] == [1024] * 6
    for part, witness in zip(parts, data["witnesses"]):
        left = set(witness["sides"][0])
        assert all((u in left) != (v in left) for u, v in part)


def test_f_omega_past_int_str_digit_limit(capsys, monkeypatch):
    import io
    import sys

    # omega 4, so f_omega is 4 ** 8000: 4,817 digits, past the default
    # limit of 4,300 on int-to-str conversion (absent before Python 3.10.7)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for cmd in ("recognize", "solve"):
        monkeypatch.setattr("sys.stdin", io.StringIO("Fj~mo\n"))
        code, out, _ = run(capsys, cmd, "--class", "chi-le-f:pow:8000", "-")
        assert code == 0
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            data = json.loads(out)
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        witness = data["witness"] if cmd == "recognize" else data["certificate"]["witnesses"][0]
        assert witness["f_omega"] == 4**8000


def test_solve_c5_bipartite(capsys, tmp_path):
    path = write_graph(tmp_path, "Dhc")
    code, data, _ = run_json(capsys, "solve", "--class", "bipartite", path)
    assert code == 0
    assert data["value"] == 2
    assert data["certificate"]["formula"] == 2


def test_solve_2k4_co_unipolar(capsys, tmp_path):
    from covernum import emit_graph6, kKl

    path = write_graph(tmp_path, emit_graph6(kKl(2, 4)))
    code, data, _ = run_json(capsys, "solve", "--class", "co-unipolar", path)
    assert code == 0
    assert data["value"] == 2


def test_solve_decision_mode(capsys, tmp_path):
    from covernum import emit_graph6, hypercube

    path = write_graph(tmp_path, emit_graph6(hypercube(3)))
    code, data, _ = run_json(capsys, "solve", "--class", "unipolar", "--decision", "3", path)
    assert code == 0
    assert data["present"] is True
    code, data, _ = run_json(capsys, "solve", "--class", "unipolar", "--decision", "1", path)
    assert code == 0
    assert data["present"] is False
    assert data["certificate"] is None


def test_solve_budget_exit(capsys, tmp_path):
    from covernum import emit_graph6, hypercube

    # unipolar has no upper bound, so a non-member host is swept
    path = write_graph(tmp_path, emit_graph6(hypercube(4)))  # 32 edges
    code, _, err = run(capsys, "solve", "--class", "unipolar", path)
    assert code == 5
    assert "budget" in err
    path = write_graph(tmp_path, emit_graph6(hypercube(3)))  # 12 edges
    code, _, err = run(capsys, "solve", "--class", "unipolar", "--max-edges", "11", path)
    assert code == 5
    assert "budget" in err
    code, data, _ = run_json(
        capsys, "solve", "--class", "unipolar", "--max-edges", "12", path
    )
    assert code == 0
    assert data["value"] == 2


def test_solve_budget_exit_when_the_bounds_cannot_meet(capsys, tmp_path):
    from covernum import emit_graph6
    from covernum.generators import random_graphs

    # 1,009 edges: the sweep is over budget and the bounds cannot meet
    path = write_graph(tmp_path, emit_graph6(random_graphs(64, 1, 5)[0]))
    for argv in (("--class", "gsp"), ("--class", "unipolar", "--decision", "3")):
        code, _, err = run(capsys, "solve", *argv, path)
        assert code == 5
        assert "budget" in err


def test_solve_formula_past_the_edge_budget(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(run(capsys, "gen", "complete:12")[1]))
    code, data, _ = run_json(capsys, "solve", "--class", "bipartite", "-")
    assert code == 0
    assert data["value"] == 4
    assert data["method"] == "formula"
    assert (data["family_size"], data["nodes"]) == (0, 0)
    assert len(data["certificate"]["parts"]) == 4


def test_solve_perfect_bounds_past_the_perfection_cap(capsys, tmp_path):
    from covernum import cycle, emit_graph6

    # C27: both bounds are 2, but witnessing a part perfect meets the cap
    path = write_graph(tmp_path, emit_graph6(cycle(27)))
    code, _, err = run(capsys, "solve", "--class", "perfect", path)
    assert code == 3
    assert "capacity" in err


def test_parse_error_exit(capsys, tmp_path):
    path = write_graph(tmp_path, "not a graph at all {}")
    code, _, err = run(capsys, "invariant", path)
    assert code == 2


def test_verify_gaps(capsys):
    code, data, err = run_json(capsys, "verify", "gaps")
    assert code == 0
    assert data["passed"] is True
    assert err.startswith("# suite gaps")


def test_verify_unknown_suite(capsys):
    # the last four are suites folded into chibound and gaps
    for name in ("paradox", "hhm", "far3", "hypercube", "arithmetic"):
        code, out, err = run(capsys, "verify", name)
        assert (code, out) == (2, "")
        assert err == f"error: unknown suite '{name}', have chain, chibound, gaps, inclusion\n"


def test_verify_stdout_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "gaps")
    code2, out2, _ = run(capsys, "verify", "gaps")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_accepts_corpus_flags(capsys):
    code, data, _ = run_json(capsys, "verify", "chibound", "--n-max", "3", "--seed", "5")
    assert code == 0
    assert data["params"]["n_max"] == 3
    assert data["params"]["seed"] == 5
    code, data, _ = run_json(capsys, "verify", "chain", "--n-max", "3", "--samples", "0")
    assert (code, data["instances"]) == (0, 12)


def test_verify_rejects_negative_corpus_sizes(capsys):
    # a corpus of no graphs would pass having checked nothing
    for flags, msg in ((("--n-max", "-1"), "n_max -1, samples 200"),
                       (("--samples", "-3"), "n_max 7, samples -3")):
        code, out, err = run(capsys, "verify", "chibound", *flags)
        assert (code, out) == (2, "")
        assert err == f"error: corpus sizes must be >= 0, got {msg}\n"


def test_verify_rejects_flags_the_suite_does_not_read(capsys):
    for argv, unread in ((("gaps", "--samples", "3"), "samples"),
                         (("gaps", "--n-max", "3"), "n_max"),
                         (("gaps", "--seed", "5"), "seed"),
                         (("gaps", "--n-max", "3", "--samples", "7"), "n_max, samples")):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: suite {argv[0]} does not read {unread}\n"


def test_solve_rejects_a_negative_edge_budget(capsys, tmp_path):
    # K4 is co-unipolar, so it answers without the budget; C5 is not unipolar
    for text, cls in (("C~", "co-unipolar"), ("Dhc", "unipolar")):
        path = write_graph(tmp_path, text)
        code, out, err = run(capsys, "solve", "--class", cls, "--max-edges", "-1", path)
        assert (code, out) == (2, "")
        assert err == "error: edge budget must be >= 0, got -1\n"


def test_cover_and_solve_agree_where_no_member_covers_an_edge(capsys, tmp_path):
    # no member of these classes has an edge, so every command rejects
    # them at parse time, on K2 and on an edgeless host alike
    table = ("error: bad class spec 'chi-le-f:table:1': bad f spec 'table:1': "
             "table form needs at least 2, got 1\n")
    for text in ("A_", "A?"):
        path = write_graph(tmp_path, text)
        for command in ("cover", "solve", "recognize"):
            for cls, msg in (("chi-le:1", "error: chi-le requires k >= 2\n"),
                             ("chi-le-f:table:1", table)):
                assert run(capsys, command, "--class", cls, path) == (2, "", msg)


def test_help_lists_every_class_and_suite(capsys, monkeypatch):
    from covernum.recognizers import CLASSES
    from covernum.verify import SUITES

    monkeypatch.setenv("COLUMNS", "200")  # one help line per option, no wrapping
    helps = {}
    for command in ("recognize", "cover", "verify"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        helps[command] = capsys.readouterr().out
    for kind, entry in CLASSES.items():
        form = kind if entry.param is None else f"{kind}:<{entry.param}>"
        assert f" {form} " in helps["recognize"] or f" {form}\n" in helps["recognize"], kind
        assert (form in helps["cover"]) == (entry.f is not None), kind
    for suite in SUITES:
        assert f" {suite} " in helps["verify"] or f" {suite}\n" in helps["verify"], suite
    # each corpus flag's help names exactly the suites that read it
    lines = helps["verify"].splitlines()
    for flag, param in (("--n-max", "n_max"), ("--samples", "samples"), ("--seed", "seed")):
        line = next(ln for ln in lines if ln.lstrip().startswith(flag))
        named = {s for s in SUITES if re.search(rf"\b{s}\b", line)}
        readers = {s for s, fn in SUITES.items() if param in inspect.signature(fn).parameters}
        assert named == readers, flag


def test_closed_pipe_exits_quietly():
    # stdout is a pipe whose read end is already closed, as when the reader
    # exits first: no traceback, and not the verification failure status 1
    import os
    import subprocess
    import sys

    import covernum

    src = os.path.dirname(os.path.dirname(covernum.__file__))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "covernum.cli", "gen", "complete:5"],
                              stdout=write, stderr=subprocess.PIPE,
                              env=dict(os.environ, PYTHONPATH=src), timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")
