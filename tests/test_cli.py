import hashlib
import importlib.resources
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pathsystems import __version__, cli, generators, jsonio
from pathsystems.cli import main
from pathsystems.core import Graph, PathSystem, is_consistent
from pathsystems.metrize import induce_system
from pathsystems.rational import Q

from test_core import line_system


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(jsonio.dumps(doc))
    return str(path)


@pytest.fixture
def line4(tmp_path):
    return write(tmp_path, "line4.json", jsonio.system_to_json(line_system(4)))


def test_check_roundtrip(capsys, tmp_path, line4):
    g = write(tmp_path, "g.json", jsonio.graph_to_json(Graph(4, [(1, 2), (2, 3), (3, 4)])))
    code, out = run(capsys, "check", line4, "--graph", g)
    assert code == 0
    doc = json.loads(out)
    assert doc == {"consistent": True, "diameter": 3, "neighborly": True}


def test_check_inconsistent_exit_1(capsys, tmp_path):
    sys = PathSystem(4, [(1, 2), (1, 2, 3), (1, 3, 4), (2, 3), (2, 3, 4), (3, 4)])
    assert not is_consistent(sys)
    path = write(tmp_path, "bad.json", jsonio.system_to_json(sys))
    code, out = run(capsys, "check", path)
    assert code == 1
    assert json.loads(out)["consistent"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ["metrize", "test"],
        ["metrize", "test", "--mode", "metric"],
        ["metrize", "realize"],
        ["resume", "extract"],
        ["resume", "all"],
        ["vc", "family"],
    ],
    ids=lambda argv: "-".join(a.lstrip("-") for a in argv),
)
def test_inconsistent_input_reports_violation(capsys, tmp_path, argv):
    sys = PathSystem(4, [(1, 2), (1, 2, 3), (1, 3, 4), (2, 3), (2, 3, 4), (3, 4)])
    path = write(tmp_path, "bad.json", jsonio.system_to_json(sys))
    _, checked = run(capsys, "check", path)
    expected = json.loads(checked)
    del expected["diameter"]
    code, out = run(capsys, *argv, path)
    assert code == 1
    assert json.loads(out) == expected
    assert expected["violation"] == {
        "pair_a": [1, 4],
        "pair_b": [1, 3],
        "reason": "concatenation check failed",
    }


def test_check_tsv(capsys, line4):
    code, out = run(capsys, "--tsv", "check", line4)
    assert code == 0
    assert "consistent\ttrue" in out.splitlines()


@pytest.mark.parametrize("n", [0, 1])
def test_check_system_without_paths(capsys, tmp_path, n):
    # No pair, no path: consistent, with diameter 0 like a one-vertex graph.
    path = write(tmp_path, "empty.json", {"n": n, "paths": []})
    code, out = run(capsys, "check", path)
    assert code == 0
    assert json.loads(out) == {"consistent": True, "diameter": 0}
    code, out = run(capsys, "--tsv", "check", path)
    assert code == 0
    assert out.splitlines() == ["consistent\ttrue", "diameter\t0"]


def test_resume_roundtrip(capsys, tmp_path, line4):
    code, out = run(capsys, "resume", "extract", line4)
    assert code == 0
    resume_path = write(tmp_path, "resume.json", json.loads(out))
    code, out = run(capsys, "resume", "recover", resume_path)
    assert code == 0
    assert jsonio.system_from_json(json.loads(out)) == line_system(4)


def test_resume_recover_error_exit_1(capsys, tmp_path):
    doc = {"n": 3, "entries": [{"pair": [1, 2], "via": 3}, {"pair": [1, 3], "via": 2}]}
    path = write(tmp_path, "cyclic.json", doc)
    code, out = run(capsys, "resume", "recover", path)
    assert code == 1
    assert json.loads(out)["recovered"] is False


def test_resume_all(capsys, line4):
    code, out = run(capsys, "resume", "all", line4)
    assert code == 0
    assert json.loads(out)["count"] == 2


def test_metrize_test_modes(capsys, line4):
    for mode in ("metric", "strict", "pseudo"):
        code, out = run(capsys, "metrize", "test", line4, "--mode", mode)
        assert code == 0
        doc = json.loads(out)
        assert doc.get("metric", doc.get("strictly_metric")) is True
    # "strict" is an alias of "pseudo": same verdict, same pseudometric.
    # A strictly metric system's colinear set is its own closure, so
    # "metric" answers with the same pseudometric.
    fixtures = importlib.resources.files("pathsystems") / "fixtures"
    for name in ("line4", "c4", "k3"):
        path = str(fixtures / f"{name}.json")
        outs = [run(capsys, "metrize", "test", path, "--mode", m) for m in ("strict", "pseudo")]
        assert outs[0] == outs[1]
        doc = json.loads(outs[0][1])
        assert doc["strictly_metric"] is True and "pseudometric" in doc
        metric = json.loads(run(capsys, "metrize", "test", path, "--mode", "metric")[1])
        assert metric["metric"] is True and metric["pseudometric"] == doc["pseudometric"]


def test_metrize_witness_roundtrip(capsys, tmp_path):
    import importlib.resources

    fixture = importlib.resources.files("pathsystems") / "fixtures" / "paper_example.json"
    path = write(tmp_path, "s.json", json.loads(fixture.read_text()))
    code, out = run(capsys, "metrize", "witness", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["realizable"] is False
    assert doc["witness_verified"] is True
    # Round trip: the emitted witness re-verifies against the triple set.
    from pathsystems.metrize import verify_witness

    ts = jsonio.tripleset_from_json(json.loads(fixture.read_text()))
    alpha = jsonio.witness_from_json(doc["witness"])
    assert verify_witness(ts, alpha)


def test_metrize_realize_and_induce_roundtrip(capsys, tmp_path, line4):
    code, out = run(capsys, "metrize", "realize", line4)
    assert code == 0
    weights_path = write(tmp_path, "w.json", json.loads(out))
    code, out = run(capsys, "induce", weights_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["unique"] is True
    assert jsonio.system_from_json(doc["system"]) == line_system(4)


def test_closure_roundtrip(capsys, tmp_path):
    doc = {"n": 4, "triples": [{"pair": [1, 3], "point": 2}]}
    path = write(tmp_path, "ts.json", doc)
    code, out = run(capsys, "closure", path)
    assert code == 0
    cl = jsonio.tripleset_from_json(json.loads(out))
    assert (1, 3, 2) in cl


def test_gen_diam2(capsys, tmp_path):
    g = write(
        tmp_path, "c4.json", jsonio.graph_to_json(Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]))
    )
    code, out = run(capsys, "gen", "diam2", g)
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == "4" and len(doc["systems"]) == 4
    for s in doc["systems"]:
        assert is_consistent(jsonio.system_from_json(s))


@pytest.mark.parametrize(
    "graph",
    [Graph(4, [(1, 2), (2, 3), (3, 4)]), Graph(4, [(1, 2), (3, 4)])],
    ids=["p4_diameter_3", "disconnected"],
)
def test_gen_diam2_without_diameter_2(capsys, tmp_path, graph):
    # Some non-adjacent pair has no common neighbor: no system, count 0.
    g = write(tmp_path, "g.json", jsonio.graph_to_json(graph))
    code, out = run(capsys, "gen", "diam2", g)
    assert code == 0
    assert json.loads(out) == {"total": "0", "systems": []}


def test_gen_bipartite(capsys):
    code, out = run(capsys, "--seed", "2", "gen", "bipartite", "--half-n", "3")
    assert code == 0
    doc = json.loads(out)
    w = jsonio.weights_from_json(doc["weights"])
    res = induce_system(w)
    assert res.unique
    assert jsonio.system_from_json(doc["system"]) == res.system


def test_gen_bipartite_induces_once(capsys, monkeypatch):
    # The system printed is the one gen_bipartite certified; seed 2 at
    # half-n 3 is certified on its first noise draw.
    calls = []

    def counted(w):
        calls.append(w)
        return induce_system(w)

    monkeypatch.setattr(generators, "induce_system", counted)
    monkeypatch.setattr(cli, "induce_system", counted)
    code, _ = run(capsys, "--seed", "2", "gen", "bipartite", "--half-n", "3")
    assert code == 0 and len(calls) == 1


def test_version_prints_the_package_version(capsys):
    # One rational type, so the version line names no backend.
    assert Q is Fraction
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert capsys.readouterr().out == f"pathsystems {__version__}\n"


def test_python_m_pathsystems_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "pathsystems", "--version"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert out.stdout == f"pathsystems {__version__}\n"


def test_gen_gnp_matching(capsys):
    code, out = run(capsys, "--seed", "3", "gen", "gnp-matching", "--n", "12", "--p", "3/5")
    assert code == 0
    doc = json.loads(out)
    w = jsonio.weights_from_json(doc["weights"])
    assert induce_system(w).unique


def test_gen_monotone_and_join(capsys):
    code, out = run(capsys, "gen", "monotone", "--n", "3", "--limit", "1000")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["matrices"]) == 10
    assert doc["matrices"][0]["rows"][0][0] is None
    code, out = run(capsys, "gen", "join", "--n", "3")
    assert code == 0
    assert jsonio.graph_from_json(json.loads(out)).n == 6


def test_count_commands(capsys, tmp_path):
    g = write(
        tmp_path, "c4.json", jsonio.graph_to_json(Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]))
    )
    checks = [
        (("count", "d2", g), "4"),
        (("count", "consistent", "--n", "3"), "4"),
        (("count", "boxed", "-r", "2", "-s", "2", "-t", "2"), "20"),
        (("count", "sym", "-r", "2", "-t", "2"), "10"),
        (("count", "monotone", "--n", "3"), "10"),
    ]
    for argv, expected in checks:
        code, out = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["count"] == expected


def test_vc_commands(capsys, tmp_path, line4):
    code, out = run(capsys, "vc", "family", line4)
    assert code == 0
    fam_path = write(tmp_path, "fam.json", json.loads(out))
    code, out = run(capsys, "vc", "dim", fam_path)
    assert code == 0
    assert json.loads(out)["dim"] == 2
    code, out = run(capsys, "vc", "build", "--n", "8", "--d", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["maximum_class"] is True
    fam = jsonio.setsystem_from_json(doc["family"])
    from pathsystems.vc import is_maximum_class

    assert is_maximum_class(fam, 2)


def test_verify_budget_inconclusive(capsys):
    code, out = run(capsys, "--budget", "0", "verify", "paper-example")
    assert code == 1
    doc = json.loads(out)
    assert doc["integral_witness"] == "inconclusive"
    assert doc["nodes_explored"] == 0
    assert doc["fractional_identity"] is True


TRIPLES_4 = {"n": 4, "triples": [{"pair": [1, 3], "point": 2}]}


def triples_doc(pair):
    """A triple set of [4] whose one triple has the given "pair" and point 3."""
    return {"n": 4, "triples": [{"pair": pair, "point": 3}]}


def weights_doc(num, den, edge=(1, 2)):
    weight = {"edge": list(edge), "num": num, "den": den}
    return {"graph": {"n": 2, "edges": [[1, 2]]}, "weights": [weight]}


def triangle_weights(second_edge):
    """{1,2} and {2,3} weigh 1; [1,3] weighs 5, then `second_edge` weighs 1."""
    weights = [
        {"edge": e, "num": num, "den": "1"}
        for e, num in [([1, 2], "1"), ([2, 3], "1"), ([1, 3], "5"), (second_edge, "1")]
    ]
    return {"graph": {"n": 3, "edges": [[1, 2], [2, 3], [1, 3]]}, "weights": weights}


def resume_doc(second_pair):
    return {"n": 4, "entries": [{"pair": [1, 3], "via": 2}, {"pair": second_pair, "via": 4}]}


def run_bad_input(capsys, *argv):
    with pytest.raises(SystemExit) as e:
        main(list(argv))
    captured = capsys.readouterr()
    assert e.value.code == 2 and captured.out == ""
    return captured.err


def test_malformed_json_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    err = run_bad_input(capsys, "check", str(bad))
    assert err.startswith(f"error: {bad}:1:") and err.count("\n") == 1
    # Nesting deeper than the parser's recursion limit is bad input too.
    bad.write_text("[" * 100_000 + "]" * 100_000)
    err = run_bad_input(capsys, "check", str(bad))
    assert err.startswith(f"error: {bad}: maximum recursion depth") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (("check",), None, "No such file or directory"),
        (("check",), {"n": 3}, "missing key 'paths'"),
        (("check",), {"n": 3, "paths": 5}, "not iterable"),
        (("closure",), [3], "has no attribute"),
        (("check",), {"n": 3, "paths": [{"vertices": [1, 2]}]}, "no path for pairs"),
        (("check",), {"n": 2000, "paths": []}, "no path for pairs (1, 2), (1, 3), (1, 4), ..."),
        (("closure",), {"n": 3.5, "triples": []}, "vertex count 3.5 is not"),
        (("metrize", "witness"), {"n": 3.5, "triples": []}, "vertex count 3.5 is not"),
        (("resume", "recover"), {"n": 3.5, "entries": []}, "vertex count 3.5 is not"),
        (("resume", "recover"), {"n": -2, "entries": []}, "vertex count -2 is not"),
        (("count", "d2"), {"n": True, "edges": []}, "vertex count True is not"),
        (("closure",), {"n": 4, "triples": [{"pair": [True, 3], "point": 2}]}, "vertex True"),
        (("closure",), triples_doc([1]), "pair [1] is not a list of two vertices"),
        (("closure",), triples_doc([1, 2, 3]), "pair [1, 2, 3] is not a list of two vertices"),
        (("metrize", "witness"), triples_doc([1]), "pair [1] is not a list of two vertices"),
        (("metrize", "witness"), triples_doc([1, 2, 3]), "pair [1, 2, 3] is not a list"),
        (("closure",), {**TRIPLES_4, "label_base": True}, "label_base True is not 0 or 1"),
        (("closure",), {**TRIPLES_4, "label_base": 1.5}, "label_base 1.5 is not 0 or 1"),
        (("metrize", "witness"), {**TRIPLES_4, "label_base": 2}, "label_base 2 is not 0 or 1"),
        (("induce",), weights_doc(1.5, "1"), "numerator 1.5 is not an integer"),
        (("induce",), weights_doc(True, "1"), "numerator True is not an integer"),
        (("induce",), weights_doc("3", 2.0), "denominator 2.0 is not an integer"),
        (("induce",), weights_doc("3", "0"), "has denominator 0"),
        (("induce",), weights_doc("3/4", "1"), "numerator '3/4' is not an integer"),
        (("vc", "dim"), {"n": 3, "sets": [[True]]}, "vertex True not in 1..3"),
        (("vc", "dim"), {"n": -3, "sets": []}, "vertex count -3 is not"),
        (("vc", "dim"), {"n": 3, "sets": [[4]]}, "vertex 4 not in 1..3"),
        (("induce",), triangle_weights([3, 1]), "two different weights on edge (1, 3)"),
        (("induce",), triangle_weights([1, 3]), "two different weights on edge (1, 3)"),
        (("resume", "recover"), resume_doc([3, 1]), "two different résumé values for pair (1, 3)"),
        (("resume", "recover"), resume_doc([1, 3]), "two different résumé values for pair (1, 3)"),
        (("resume", "recover"), resume_doc([1, 99]), "vertex 99 not in 1..4"),
        (("resume", "recover"), resume_doc([True, 3]), "vertex True not in 1..4"),
        (("induce",), weights_doc("1", "1", edge=(True, 2)), "vertex True not in 1..2"),
        (("induce",), weights_doc("1", "1", edge=(1.0, 2)), "vertex 1.0 not in 1..2"),
    ],
    ids=[
        "missing_file",
        "missing_key",
        "wrong_type",
        "wrong_document_type",
        "bad_value",
        "no_paths_n_2000",
        "fractional_n_closure",
        "fractional_n_witness",
        "fractional_n_resume",
        "negative_n_resume",
        "bool_n_graph",
        "bool_vertex_closure",
        "one_vertex_pair_closure",
        "three_vertex_pair_closure",
        "one_vertex_pair_witness",
        "three_vertex_pair_witness",
        "bool_label_base",
        "fractional_label_base",
        "label_base_2_witness",
        "float_numerator",
        "bool_numerator",
        "float_denominator",
        "zero_denominator",
        "slash_numerator",
        "bool_vc_element",
        "negative_n_vc",
        "out_of_range_vc_element",
        "conflicting_weights_reversed",
        "conflicting_weights_same_orientation",
        "conflicting_resume_reversed",
        "conflicting_resume_same_orientation",
        "out_of_range_resume_pair",
        "bool_resume_pair",
        "bool_weight_edge",
        "float_weight_edge",
    ],
)
def test_malformed_input_exit_2(capsys, tmp_path, argv, doc, message):
    path = tmp_path / "input.json" if doc is None else write(tmp_path, "input.json", doc)
    err = run_bad_input(capsys, *argv, str(path))
    assert err.startswith(f"error: {path}: ") and message in err
    assert err.count("\n") == 1 and len(err) - len(str(path)) < 300


def test_induce_disconnected_exit_2(capsys, tmp_path):
    doc = {**weights_doc("1", "1"), "graph": {"n": 3, "edges": [[1, 2]]}}
    path = write(tmp_path, "w.json", doc)
    assert main(["induce", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: weight function's graph is disconnected\n"


@pytest.mark.parametrize("n", [0, 1])
def test_induce_without_pairs(capsys, tmp_path, n):
    path = write(tmp_path, "w.json", {"graph": {"n": n, "edges": []}, "weights": []})
    code, out = run(capsys, "induce", path)
    assert code == 0
    assert json.loads(out) == {"unique": True, "system": {"n": n, "paths": []}}


@pytest.mark.parametrize(
    "argv, message",
    [
        ("gen join --n 3 --gamma 2", "gamma must lie strictly between 0 and 1"),
        ("gen join --n 3 --gamma abc", "abc"),
        ("count boxed -r -1 -s 1 -t 1", "dimensions must be non-negative"),
        ("count sym -r 2 -t -1", "dimensions must be non-negative"),
        ("count consistent --n 9", "exceeds the enumeration cap"),
        ("count consistent --n -3", "vertex count -3 is not a non-negative integer"),
        ("--budget nan verify paper-example", "--budget must be finite and non-negative"),
        ("--budget -1 verify paper-example", "--budget must be finite and non-negative"),
        ("gen monotone --n 9", "exceeds the enumeration cap"),
        ("gen monotone --n -3", "n=-3 is negative"),
        ("count monotone --n -3", "n=-3 is negative"),
        ("vc build --n 4 --d 0", "--d 0 is below 1"),
        ("vc build --n 4 --d -1", "--d -1 is below 1"),
        ("gen gnp-matching --n 3", "odd number of vertices"),
        ("gen gnp-matching --n 4 --p 0", "no perfect matching"),
        ("gen gnp-matching --n 4 --p 3/2", "probability must lie in [0, 1]"),
        ("gen gnp-matching --n 0 --p 5", "probability must lie in [0, 1]"),
        ("gen gnp-matching --n 1 --p 5", "probability must lie in [0, 1]"),
        ("gen gnp-matching --n 4 --p 1/0", "has denominator 0"),
        ("gen gnp-matching --n 4 --p 0.5", "numerator '0.5' is not an integer"),
        ("vc build --n 4 --d 2 --p 1/0", "has denominator 0"),
        ("gen join --n 3 --gamma 1/0", "has denominator 0"),
        ("gen join --n -3", "n=-3 is negative"),
        ("gen bipartite --half-n -1", "half_n=-1 is negative"),
        ("vc build --n 4 --d 5", "VC dimension d=5 exceeds n=4"),
        ("vc build --n 0 --d 1", "VC dimension d=1 exceeds n=0"),
        ("gen monotone --n 3 --limit -2", "--limit -2 is negative"),
    ],
)
def test_invalid_argument_value_exit_2(capsys, argv, message):
    code = main(argv.split())
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_unknown_flag_exit_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["check", "--bogus"])
    assert e.value.code == 2


# Exit code and sha256 of stdout for the fixture commands; default output
# must stay byte-stable, so a change that moves a pin names it.
PINNED_OUTPUT = {
    "verify paper-example":
        (0, "52307778a3f10277507c6d732f81e395eff757c579a333acf572aeba2b1629e6"),
    "closure paper_example.json":
        (0, "63daa6ee139365c2f5de688330db6bf9d550894a30fdb560af9b36d2107c1519"),
    "metrize witness paper_example.json":
        (0, "6c161eca589c3e7f8de3aaad1433aeb2261d17385d1140afab7f6a40640b9473"),
    "metrize test line4.json":
        (0, "9b3f3569dae4dae5f35a030fd7cd25c520b452eae0bb2c4a170d22e739252e50"),
    "metrize test line4.json --mode metric":
        (0, "244a07e858229377d3aa464d96e8e0b931035a10564230da16a52aa2771776f8"),
    "metrize realize line4.json":
        (0, "ea225513fe8f3c9130764dffc89cb2161acd80ff5b800e7524053694fe2e8be7"),
    "check line4.json":
        (0, "7961978ad4504cec340d81b72352cf242f0014fdd46cb4ee78d60a5aa495c7ae"),
    "metrize test c4.json":
        (0, "3a02137767744780d7e5ae155fe7322c7550ec7e16f1940118a73d10139b704f"),
    "metrize test c4.json --mode metric":
        (0, "21035e3bfbbde4195ceb42e53f7377514d7ca6fdbba8e3c86cbca00532b1aee4"),
    "metrize realize c4.json":
        (0, "1af4a7a4900fea26a5e5819ad0dd87271d151349ed39a359e19d222ee92d8f5b"),
    "check c4.json":
        (0, "a32e16abb41445be9cb6717e1bc4c5879060734600caa719fa01ce38991bcaa6"),
    "metrize test k3.json":
        (0, "8cfc565bf36b05a2f47682204c9403572b1aba25e8f5173de96d883286b865f9"),
    "metrize test k3.json --mode metric":
        (0, "c26dcfc64fb5b3a6297ac8a93c30f93cc6730735d22b67ff2b2c72ff56fc0645"),
    "metrize realize k3.json":
        (0, "d55ebcb8020a5bb009b5df5065c1daff5f98648a361ad62c2203de00c821636b"),
    "check k3.json":
        (0, "1cd44b2e5f75644b7765109fa67d501e9e708727abf8fd1c728511831e661be3"),
    "metrize test nonmetric7.json":
        (0, "b3d98ed89de2bedd94385c39feeaa18f9bae2493bce86e099e84acb8af129946"),
    "metrize test nonmetric7.json --mode metric":
        (0, "ded6eb7e2034cd90213ad8a72d0ab04dccb40e2f6bbd15abcc719ba3ea691e12"),
    "--seed 5 gen bipartite --half-n 3":
        (0, "6a3c3b977545559daf55f6171d91743346d775f4c701d82ee4e7b840a4a774cf"),
    "--version":
        (0, "b25b1ef6d5dcdcfcff84d974d7e9fcb37328e7aff07f4704ac011be3b560ebad"),
}


@pytest.mark.parametrize("command", sorted(PINNED_OUTPUT))
def test_default_output_is_pinned(capsys, command):
    argv = [str(cli.FIXTURES / a) if a.endswith(".json") else a for a in command.split()]
    try:
        code = main(argv)
    except SystemExit as e:  # --version exits from the parser
        code = e.code
    out = capsys.readouterr().out.encode()
    assert (code, hashlib.sha256(out).hexdigest()) == PINNED_OUTPUT[command]


def test_count_sym_expected_value():
    from pathsystems.counting import sym_count

    assert sym_count(2, 2) == 10
