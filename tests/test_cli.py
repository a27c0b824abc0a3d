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
from mcdiv.io import parse_document, serialize_document

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
    def test_roundtrip(self):
        doc = parse_document(json.dumps(THETA_DOC))
        again = parse_document(serialize_document(doc))
        assert again.complex.genus() == doc.complex.genus()
        assert sorted(again.divisors) == sorted(doc.divisors)
        # the reparsed divisor carries fresh oracle objects; compare shape
        assert again.divisors["K"].key() == doc.divisors["K"].key()

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

    def test_reduce(self, theta_file, capsys):
        assert main(["reduce", theta_file, "--divisor", "D1", "--base", "u"]) == 0
        out = capsys.readouterr().out
        assert "identity: ok" in out

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

    def test_bn_search(self, theta_file, capsys):
        assert main(["bn-search", theta_file, "--d", "2", "--r", "1"]) == 0
        assert "found: yes" in capsys.readouterr().out

    def test_weierstrass(self, theta_file, capsys):
        assert main(["weierstrass", theta_file, "--point", "e1:1/2"]) == 0
        assert "weierstrass: yes" in capsys.readouterr().out

    def test_limit_check(self, limit_file, capsys):
        assert main(["limit-check", limit_file, "--series", "L"]) == 0
        out = capsys.readouterr().out
        assert "crude-limit: ok" in out and "biconditional: ok" in out

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

    def test_glue_rank(self, tmp_path, capsys):
        doc = {
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
        f = tmp_path / "glue.json"
        f.write_text(json.dumps(doc))
        assert main(["glue-rank", str(f), "--divisor", "D1", "--audit"]) == 0
        out = capsys.readouterr().out
        assert "formula-rank: 2" in out and "agreement: ok" in out

    def test_threads_env_same_result(self, theta_file, capsys, monkeypatch):
        main(["rank", theta_file, "--divisor", "K"])
        base = capsys.readouterr().out
        monkeypatch.setenv("MCDIV_THREADS", "3")
        main(["rank", theta_file, "--divisor", "K"])
        threaded = capsys.readouterr().out
        assert base == threaded


THETA_JSON = Path(__file__).resolve().parents[1] / "scripts" / "theta.json"

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

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_theta_never_raises(self, tmp_path_factory, data):
        doc = json.loads(THETA_JSON.read_text())
        path = data.draw(st.sampled_from(sorted(_node_paths(doc), key=repr)))
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(JSON_VALUES)
        code, err = _run_canonical(doc, tmp_path_factory.getbasetemp())
        # a mutation may leave a valid document; otherwise the error names
        # where in the document it lies
        assert code in (0, 2), err
        if code == 2:
            assert re.match(r"input error: (document|format|seed|complex|divisors|weighted_graphs)\S*: ", err), err
