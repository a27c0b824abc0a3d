"""The command-line front end: parsing, reports, exit codes, round trips."""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcdiv.cli import main
from mcdiv.errors import InputError
from mcdiv.io import parse_document

GLUE_DOC = {
    "format": 1,
    "complex": {
        "vertices": [{"name": "s", "oracle": {"type": "p1", "field": "Q"}}],
        "edges": [],
    },
    "complex2": {
        "vertices": [{"name": "t", "oracle": {"type": "p1", "field": "Q"}}],
        "edges": [],
    },
    "glue": {
        "x1": {"vertex": "s", "point": {"x": "1"}},
        "x2": {"vertex": "t", "point": {"x": "2"}},
        "length": "1",
    },
    "divisors": {"D1": {"curves": {"s": [[{"x": "0"}, 2]]}}},
}

# GLUE_DOC whose first piece has an edge, so that x1 can be an interior
# edge point or the marked point of s
GLUE_EDGE_DOC = dict(GLUE_DOC, complex={
    "vertices": [{"name": "s", "oracle": {"type": "p1", "field": "Q"},
                  "marks": {"e:0": {"x": "0"}}},
                 {"name": "w"}],
    "edges": [{"name": "e", "ends": ["s", "w"], "length": "1"}],
})

THETA_DOC = {
    "format": 1,
    "seed": 0,
    "complex": {
        "vertices": [
            {
                "name": "u",
                "oracle": {"type": "p1", "field": "Q"},
                "marks": {"e1:0": {"x": "0"}, "e2:0": {"x": "1"}, "e3:0": {"x": "2"}},
            },
            {
                "name": "v",
                "oracle": {"type": "p1", "field": "Q"},
                "marks": {"e1:1": {"x": "0"}, "e2:1": {"x": "1"}, "e3:1": {"x": "2"}},
            },
        ],
        "edges": [
            {"name": "e1", "ends": ["u", "v"], "length": "1"},
            {"name": "e2", "ends": ["u", "v"], "length": "1"},
            {"name": "e3", "ends": ["u", "v"], "length": "1"},
        ],
    },
    "divisors": {
        "K": {
            "curves": {
                "u": [[{"inf": True}, -2], [{"x": "0"}, 1], [{"x": "1"}, 1], [{"x": "2"}, 1]],
                "v": [[{"inf": True}, -2], [{"x": "0"}, 1], [{"x": "1"}, 1], [{"x": "2"}, 1]],
            }
        },
        "D1": {"graph": [[{"edge": "e1", "offset": "1/2"}, 1]]},
    },
    "weighted_graphs": {
        "W": {
            "vertices": [{"name": "a"}, {"name": "b"}],
            "edges": [{"name": "e", "ends": ["a", "b"], "length": "1"}],
            "weights": {"a": 1},
            "divisors": {"D": [[{"vertex": "a"}, 2]]},
        }
    },
}

LIMIT_DOC = {
    "format": 1,
    "complex": {
        "vertices": [
            {"name": "Y", "oracle": {"type": "p1", "field": "Q"}, "marks": {"n0:0": {"x": "0"}}},
            {"name": "Z", "oracle": {"type": "p1", "field": "Q"}, "marks": {"n0:1": {"x": "0"}}},
        ],
        "edges": [{"name": "n0", "ends": ["Y", "Z"], "length": "1"}],
    },
    "divisors": {},
    "limit_series": {
        "L": {
            "root": "Y",
            "degree": 2,
            "rank": 1,
            "aspects": {
                "Y": {
                    "divisor": [[{"inf": True}, 2]],
                    "basis": [{"num": ["1"]}, {"num": ["0", "1"]}],
                },
                "Z": {
                    "divisor": [[{"inf": True}, 2]],
                    "basis": [{"num": ["0", "1"]}, {"num": ["0", "0", "1"]}],
                },
            },
        }
    },
}


THETA_JSON = Path(__file__).resolve().parents[1] / "scripts" / "theta.json"

# (divisor, base, reduced divisor, witness breakpoints, witness curve shifts)
REDUCE_REPORTS = [
    ("D1", "u", '{"curves": {}, "graph": [[{"edge": "e1", "offset": "1/2"}, 1]]}', 2, 0),
    ("D2", "v", '{"curves": {"u": [[{"x": "0"}, 1]], "v": [[{"x": "0"}, 1]]}, "graph": []}', 3, 0),
    ("D2", "e2:1/3", '{"curves": {}, "graph": [[{"edge": "e2", "offset": "1/3"}, 1], '
                     '[{"edge": "e2", "offset": "2/3"}, 1]]}', 5, 2),
    ("K", "e2:1/3", '{"curves": {}, "graph": [[{"edge": "e2", "offset": "1/3"}, 1], '
                    '[{"edge": "e2", "offset": "2/3"}, 1]]}', 4, 2),
]


# every command once: (document, argv after the file name, exit code)
REPORT_CASES = {
    "rank": ("theta", ["rank", "--divisor", "K"], 0),
    "reduce": ("theta", ["reduce", "--divisor", "D2", "--base", "e2:1/3"], 0),
    "rr-check": ("theta", ["rr-check", "--divisor", "D1"], 0),
    "clifford-check": ("theta", ["clifford-check", "--divisor", "K"], 0),
    "eta": ("theta", ["eta", "--divisor", "D1", "--point", "e1:1/4", "--k", "2"], 0),
    "wrank": ("theta", ["wrank", "--weighted", "W", "--divisor", "D", "--audit"], 0),
    "glue-rank": ("glue", ["glue-rank", "--divisor", "D1", "--audit"], 0),
    "limit-check": ("limit", ["limit-check", "--series", "L"], 0),
    "canonical": ("theta", ["canonical"], 0),
    "moderator-audit": ("theta", ["moderator-audit", "--budget", "4"], 0),
    "bn-search": ("theta", ["bn-search", "--d", "2", "--r", "1"], 0),
    "bn-search-budget-spent": ("theta", ["bn-search", "--d", "2", "--r", "1", "--budget", "1"], 1),
    "weierstrass": ("theta", ["weierstrass", "--point", "e1:1/2"], 0),
}


def _doc_file(name, tmp_path):
    if name == "theta":
        return str(THETA_JSON)
    f = tmp_path / f"{name}.json"
    f.write_text(json.dumps({"glue": GLUE_DOC, "limit": LIMIT_DOC}[name]))
    return str(f)


@pytest.fixture
def theta_file(tmp_path):
    f = tmp_path / "theta.json"
    f.write_text(json.dumps(THETA_DOC))
    return str(f)


@pytest.fixture
def limit_file(tmp_path):
    f = tmp_path / "limit.json"
    f.write_text(json.dumps(LIMIT_DOC))
    return str(f)


class TestParsing:
    def test_negative_length_rejected_with_path(self):
        bad = json.loads(json.dumps(THETA_DOC))
        bad["complex"]["edges"][0]["length"] = "-1"
        with pytest.raises(InputError, match="edges"):
            parse_document(json.dumps(bad))

    def test_mark_collision_names_vertex(self):
        bad = json.loads(json.dumps(THETA_DOC))
        bad["complex"]["vertices"][0]["marks"]["e2:0"] = {"x": "0"}
        with pytest.raises(InputError, match="u"):
            parse_document(json.dumps(bad))

    def test_negative_seed_rejected_with_path(self):
        bad = json.loads(json.dumps(THETA_DOC))
        bad["seed"] = -1
        with pytest.raises(InputError, match=r"^seed: must be at least 0, got -1$"):
            parse_document(json.dumps(bad))

    def test_minimal_document(self):
        doc = parse_document(
            json.dumps(
                {
                    "format": 1,
                    "complex": {
                        "vertices": [{"name": "s", "oracle": {"type": "p1", "field": "Q"}}],
                        "edges": [],
                    },
                }
            )
        )
        assert doc.complex.genus() == 0


class TestCommands:
    def test_rank(self, theta_file, capsys):
        assert main(["rank", theta_file, "--divisor", "K"]) == 0
        out = capsys.readouterr().out
        assert "rank: 1" in out

    def test_rank_json_format(self, theta_file, capsys):
        assert main(["rank", theta_file, "--divisor", "K", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rank"] == 1

    def test_rr_check(self, theta_file, capsys):
        assert main(["rr-check", theta_file, "--divisor", "K"]) == 0
        assert "identity: ok" in capsys.readouterr().out

    def test_clifford(self, theta_file, capsys):
        assert main(["clifford-check", theta_file, "--divisor", "K"]) == 0
        assert "bound: ok" in capsys.readouterr().out

    def test_reduce(self, capsys):
        # the full report on scripts/theta.json for each row
        for divisor, base, reduced, breakpoints, shifts in REDUCE_REPORTS:
            assert main(["reduce", str(THETA_JSON), "--divisor", divisor, "--base", base]) == 0
            assert capsys.readouterr().out == (
                f"reduced: {reduced}\n"
                f"witness-breakpoints: {breakpoints}\n"
                f"witness-curve-shifts: {shifts}\n"
                "identity: ok\n"
            ), (divisor, base)

    def test_canonical(self, theta_file, capsys):
        assert main(["canonical", theta_file]) == 0
        assert "degree: 2" in capsys.readouterr().out

    def test_eta(self, theta_file, capsys):
        assert main(["eta", theta_file, "--divisor", "D1", "--point", "e1:1/4", "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert "eta(0): 0" in out and "eta(1): 2" in out

    def test_wrank(self, theta_file, capsys):
        assert main(["wrank", theta_file, "--weighted", "W", "--divisor", "D", "--audit"]) == 0
        out = capsys.readouterr().out
        assert "weighted-rank: 1" in out and "agreement: ok" in out

    def test_moderator_audit(self, theta_file, capsys):
        assert main(["moderator-audit", theta_file, "--budget", "6"]) == 0
        assert "status: ok" in capsys.readouterr().out

    @pytest.mark.parametrize("budget", [1, 2])
    def test_reduce_budget(self, budget, tmp_path, capsys):
        # each chip reaches u in a burn event of its own: two events
        doc = {
            "format": 1,
            "complex": {"vertices": [{"name": "u"}, {"name": "w"}],
                        "edges": [{"name": "e", "ends": ["u", "w"], "length": "1"}]},
            "divisors": {"D": {"graph": [[{"edge": "e", "offset": "1/3"}, 1],
                                         [{"edge": "e", "offset": "2/3"}, 1]]}},
        }
        f = tmp_path / "segment.json"
        f.write_text(json.dumps(doc))
        argv = ["reduce", str(f), "--divisor", "D", "--base", "u", "--budget", str(budget)]
        assert main(argv) == (1 if budget == 1 else 0)
        out, err = capsys.readouterr()
        if budget == 1:
            assert err == "computation error: reduction exceeded 1 events\n"
        else:
            assert out.startswith('reduced: {"curves": {}, "graph": [[{"vertex": "u"}, 2]]}\n')

    def test_bn_search(self, theta_file, capsys):
        assert main(["bn-search", theta_file, "--d", "2", "--r", "1"]) == 0
        assert "found: yes" in capsys.readouterr().out

    @pytest.mark.parametrize("budget", ["0", "-3"])
    @pytest.mark.parametrize("command", [
        ["reduce", "--divisor", "D2", "--base", "u"],
        ["moderator-audit"],
        ["bn-search", "--d", "2", "--r", "1"],
    ], ids=lambda command: command[0])
    def test_budget_below_one_exits_2(self, command, budget, capsys):
        argv = [command[0], str(THETA_JSON), *command[1:], "--budget", budget]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("input error: --budget")

    @pytest.mark.parametrize("argv, flag", [
        (["bn-search", "--d", "-1", "--r", "1"], "--d"),
        (["eta", "--divisor", "D1", "--point", "e1:1/4", "--k", "-2"], "--k"),
        (["bn-search", "--d", "2", "--r", "-3"], "--r"),
        (["rank", "--divisor", "D1", "--seed", "-1"], "--seed"),
    ], ids=["d", "k", "r", "seed"])
    def test_negative_count_exits_2(self, argv, flag, capsys):
        assert main([argv[0], str(THETA_JSON), *argv[1:]]) == 2
        assert capsys.readouterr().err.startswith(f"input error: {flag}: ")

    @pytest.mark.parametrize("argv, message", [
        (["eta", "--divisor", "D1", "--point", "e1:abc", "--k", "1"],
         "--point: not a rational: 'abc'"),
        (["weierstrass", "--point", "e9:1/2"], "--point: unknown edge e9"),
        (["weierstrass", "--point", 'w@{"x": "0"}'], "--point: w carries no curve"),
        (["eta", "--divisor", "D1", "--point", "u", "--k", "1"],
         "--point: u carries a curve; give VERTEX@{json point}"),
        (["weierstrass", "--point", "v"], "--point: v carries a curve; give VERTEX@{json point}"),
        (["reduce", "--divisor", "D1", "--base", "e9:1/2"], "--base: unknown edge e9"),
        (["reduce", "--divisor", "D1", "--base", "e1:1/x"], "--base: not a rational: '1/x'"),
        (["reduce", "--divisor", "D1", "--base", "w"], "--base: unknown vertex w"),
    ], ids=["point-rational", "point-edge", "point-curve", "point-eta-oracle-vertex",
            "point-weierstrass-oracle-vertex", "base-edge", "base-rational", "base-vertex"])
    def test_point_errors_name_their_flag(self, argv, message, capsys):
        assert main([argv[0], str(THETA_JSON), *argv[1:]]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"

    def test_weierstrass(self, theta_file, capsys):
        assert main(["weierstrass", theta_file, "--point", "e1:1/2"]) == 0
        assert "weierstrass: yes" in capsys.readouterr().out

    def test_limit_check(self, limit_file, capsys):
        assert main(["limit-check", limit_file, "--series", "L"]) == 0
        out = capsys.readouterr().out
        assert "crude-limit: ok" in out and "biconditional: ok" in out

    def test_limit_check_on_a_cycle_exits_2(self, tmp_path, capsys):
        # Y and Z joined by two nodes: no tree, so no limit-series check
        doc = json.loads(json.dumps(LIMIT_DOC))
        doc["complex"]["vertices"][0]["marks"]["n1:0"] = {"x": "1"}
        doc["complex"]["vertices"][1]["marks"]["n1:1"] = {"x": "1"}
        doc["complex"]["edges"].append({"name": "n1", "ends": ["Y", "Z"], "length": "1"})
        f = tmp_path / "cycle.json"
        f.write_text(json.dumps(doc))
        assert main(["limit-check", str(f), "--series", "L"]) == 2
        assert "tree dual graph" in capsys.readouterr().err

    def test_unknown_divisor_exit_2(self, theta_file, capsys):
        assert main(["rank", theta_file, "--divisor", "NOPE"]) == 2

    def test_missing_file_exit_2(self, capsys):
        assert main(["rank", "/nonexistent.json", "--divisor", "K"]) == 2

    def test_deterministic_output(self, theta_file, capsys):
        main(["rank", theta_file, "--divisor", "K"])
        first = capsys.readouterr().out
        main(["rank", theta_file, "--divisor", "K"])
        second = capsys.readouterr().out
        assert first == second

    def test_calls_in_a_row_keep_their_own_flags(self, theta_file, capsys):
        # one parser serves every call; no flag of a call outlives it
        assert main(["rank", theta_file, "--divisor", "K", "--format", "json", "--audit"]) == 0
        assert json.loads(capsys.readouterr().out) == {"degree": 2, "genus": 2, "rank": 1}
        assert main(["rank", theta_file, "--divisor", "D1"]) == 0
        assert capsys.readouterr().out == "rank: 0\ndegree: 1\ngenus: 2\n"

    def test_glue_rank(self, tmp_path, capsys):
        f = tmp_path / "glue.json"
        f.write_text(json.dumps(GLUE_DOC))
        assert main(["glue-rank", str(f), "--divisor", "D1", "--audit"]) == 0
        out = capsys.readouterr().out
        assert "formula-rank: 2" in out and "agreement: ok" in out

    @pytest.mark.parametrize("glue, where", [
        ([], "glue"),
        ({"x1": 5, "x2": GLUE_DOC["glue"]["x2"]}, "glue.x1"),
        (dict(GLUE_DOC["glue"], length="0"), "glue.length"),
        (dict(GLUE_DOC["glue"], length="-2"), "glue.length"),
        (dict(GLUE_DOC["glue"], x1={"vertex": "s"}), "glue.x1"),
    ])
    def test_glue_not_an_object_exits_2(self, tmp_path, capsys, glue, where):
        f = tmp_path / "glue.json"
        f.write_text(json.dumps(dict(GLUE_DOC, glue=glue)))
        assert main(["glue-rank", str(f), "--divisor", "D1"]) == 2
        assert capsys.readouterr().err.startswith(f"input error: {where}: ")

    @pytest.mark.parametrize("doc, command, message", [
        (dict(GLUE_EDGE_DOC, glue=dict(GLUE_DOC["glue"], x1={"edge": "e", "offset": "1/2"})),
         "glue-rank", "glue.x1: attach at a model vertex or a curve point\n"),
        (dict(GLUE_EDGE_DOC, glue=dict(GLUE_DOC["glue"], x1={"vertex": "s", "point": {"x": "0"}})),
         "glue-rank", "glue.x1: attachment point collides with a marked point at s\n"),
        (dict(GLUE_EDGE_DOC, glue=dict(GLUE_DOC["glue"], x1={"edge": "e", "offset": "1/2"})),
         "canonical", "glue.x1: "),
        ({k: v for k, v in GLUE_DOC.items() if k != "complex2"}, "glue-rank", "glue: "),
        (dict(GLUE_DOC, glue=dict(GLUE_DOC["glue"], x1={"vertex": [], "point": {"x": "1"}})),
         "glue-rank", "glue.x1: "),
    ], ids=["interior-edge-point", "marked-point", "canonical-reads-glue", "no-complex2",
            "vertex-not-a-name"])
    def test_glue_attachment_checked_when_read(self, tmp_path, capsys, doc, command, message):
        f = tmp_path / "glue.json"
        f.write_text(json.dumps(doc))
        assert main([command, str(f), "--divisor", "D1"]) == 2
        assert capsys.readouterr().err.startswith(f"input error: {message}")

    def test_glue_edge_doc_attaches_off_its_marks(self, tmp_path, capsys):
        for x1 in ({"vertex": "s", "point": {"x": "1"}}, {"vertex": "w"}):
            f = tmp_path / "glue.json"
            f.write_text(json.dumps(dict(GLUE_EDGE_DOC, glue=dict(GLUE_DOC["glue"], x1=x1))))
            assert main(["glue-rank", str(f), "--divisor", "D1", "--audit"]) == 0, x1
            assert "agreement: ok" in capsys.readouterr().out


class TestReports:
    @pytest.mark.parametrize("case", sorted(REPORT_CASES))
    def test_text_and_json_reports_agree(self, case, tmp_path, capsys):
        doc, argv, code = REPORT_CASES[case]
        argv = [argv[0], _doc_file(doc, tmp_path), *argv[1:]]
        assert main(argv) == code
        block = capsys.readouterr().out.split("\n\n")[0].splitlines()
        assert main([*argv, "--format", "json"]) == code
        report = json.loads(capsys.readouterr().out.splitlines()[0])
        assert dict(line.split(": ", 1) for line in block) == {k: str(v) for k, v in report.items()}


# mutations of scripts/theta.json that used to end in a traceback, with the
# document path the error message must start with
MALFORMED = {
    "seed-not-int": (lambda d: d.update(seed="abc"), "seed"),
    "one-edge-end": (lambda d: d["complex"]["edges"][0].update(ends=["u"]), "complex.edges[0].ends"),
    "vertices-not-list": (lambda d: d["complex"].update(vertices=5), "complex"),
    "graph-coeff-not-int": (lambda d: d["divisors"]["D1"]["graph"][0].__setitem__(1, "x"),
                            "divisors.D1.graph[0]"),
    "weighted-coeff-not-int": (
        lambda d: d["weighted_graphs"]["W"]["divisors"]["D"][0].__setitem__(1, "x"),
        "weighted_graphs.W.divisors.D[0]"),
    "divisor-as-list": (lambda d: d["divisors"].update(D1=[[{"vertex": "u"}, 1]]), "divisors.D1"),
    "elliptic-p-not-int": (
        lambda d: d["complex"]["vertices"][0].update(
            oracle={"type": "elliptic", "p": "x", "a": 1, "b": 1}),
        "complex.vertices[0].oracle"),
    "field-not-prime": (lambda d: d["complex"]["vertices"][0]["oracle"].update(field=4),
                        "complex.vertices[0].oracle.field"),
    "glue-not-object": (lambda d: d.update(glue=[]), "glue"),
    # floats and booleans are refused, not truncated to integers
    "graph-coeff-float": (lambda d: d["divisors"]["D1"]["graph"][0].__setitem__(1, 1.5),
                          "divisors.D1.graph[0]"),
    "weight-float": (lambda d: d["weighted_graphs"]["W"]["weights"].update(a=1.9),
                     "weighted_graphs.W.weights.a"),
    "edge-length-bool": (lambda d: d["complex"]["edges"][0].update(length=True),
                         "complex.edges[0].length"),
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats()
    | st.text("ab01:/-", max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("abxy", max_size=2), inner, max_size=3),
    max_leaves=6,
)


def _node_paths(obj, path=()):
    """The key paths of every value below obj."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for k, v in items:
        yield path + (k,)
        yield from _node_paths(v, path + (k,))


def _run_canonical(doc, where):
    f = where / "mutated.json"
    f.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["canonical", str(f)])
    return code, err.getvalue()


class TestMalformedDocuments:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_known_mutations_exit_2_with_path(self, case, tmp_path):
        mutate, where = MALFORMED[case]
        doc = json.loads(THETA_JSON.read_text())
        mutate(doc)
        code, err = _run_canonical(doc, tmp_path)
        assert code == 2
        assert err.startswith(f"input error: {where}: ")

    @pytest.mark.parametrize("edges, message", [
        ([["f", "u", "v"], ["e~a", "u", "v"], ["e", "u", "u"]],
         "loop e: its split half collides with edge e~a"),
        ([["e", "u", "u"], ["e~a", "u", "v"], ["f", "u", "v"]], "duplicate edge name e~a"),
        ([["e", "u", "u"], ["e", "u", "v"]], "duplicate edge name e"),
    ], ids=["half-first", "loop-first", "loop-then-edge"])
    def test_loop_split_collision_exits_2(self, tmp_path, edges, message):
        doc = {"format": 1, "complex": {
            "vertices": [{"name": "u"}, {"name": "v"}],
            "edges": [{"name": n, "ends": [a, b], "length": "1"} for n, a, b in edges]}}
        assert _run_canonical(doc, tmp_path) == (2, f"input error: complex: {message}\n")

    def test_point_json_that_does_not_parse_exits_2(self, capsys):
        code = main(["eta", str(THETA_JSON), "--divisor", "D1", "--point", "u@{bad", "--k", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("input error: --point: ")

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_theta_never_raises(self, tmp_path_factory, data):
        _mutate_and_check(data, json.loads(THETA_JSON.read_text()), tmp_path_factory.getbasetemp())

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_glue_doc_never_raises(self, tmp_path_factory, data):
        _mutate_and_check(data, json.loads(json.dumps(GLUE_DOC)), tmp_path_factory.getbasetemp())


def _mutate_and_check(data, doc, where):
    """Delete or replace one drawn value of doc, then run `canonical` on it."""
    path = data.draw(st.sampled_from(sorted(_node_paths(doc), key=repr)))
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(JSON_VALUES)
    code, err = _run_canonical(doc, where)
    # a mutation may leave a valid document; otherwise the error names
    # where in the document it lies
    assert code in (0, 2), err
    if code == 2:
        assert re.match(
            r"input error: (document|format|seed|complex|complex2|divisors|weighted_graphs|glue)"
            r"\S*: ", err), err
