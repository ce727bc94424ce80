import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from toystab import bvc
from toystab.cli import main


@pytest.fixture
def run(capsys):
    def _run(*argv, expect=0):
        code = main(list(argv))
        out = capsys.readouterr()
        assert code == expect, out.err or out.out
        return json.loads(out.out) if code == 0 else out.err
    return _run


def test_state_validate(run):
    rep = run("state", "validate", "+XZ\\n+ZX")
    assert rep["ok"] and rep["n"] == 2 and rep["pure"]


def test_state_validate_rejects_quantum_set(run):
    err = run("state", "validate", "+XX\\n+ZZ\\n-YY", expect=2)
    assert "negative identity" in err


def test_state_print(run):
    rep = run("state", "print", "+XX\\n+ZZ")
    assert rep["rank"] == 2 and rep["size"] == 4


def test_identity_lines_give_the_flat_state(run, tmp_path):
    for text, n in (("+II", 2), ("+I\\n+I", 1)):
        rep = run("state", "print", text)
        assert rep == {"generators": [], "n": n, "rank": 0, "size": 1}
    rep = run("purify", "+II")
    assert rep["input"] == {"generators": [], "n": 2}
    assert rep["purification"]["generators"] == ["+XIXI", "+ZIZI",
                                                 "+IXIX", "+IZIZ"]
    assert rep["round_trip_ok"]
    spec = tmp_path / "h.json"
    spec.write_text(json.dumps([{"site": 1, "perm": "H"}, {"cz": [1, 2]}]))
    rep = run("perm", "apply", str(spec), "+II")
    assert rep["output"] == {"generators": [], "n": 2}


@pytest.mark.parametrize("text, message", [
    ("+II\\n+ZZ", "linearly dependent"),
    ("+ZZ\\n+II", "linearly dependent"),
    ("-II", "negative identity"),
    ("+II\\n-II", "negative identity"),
])
def test_identity_lines_beside_others_are_reported(run, text, message):
    err = run("state", "print", "--", text, expect=2)
    assert message in err


def test_parse_error_exit_code(run):
    run("no-such-command", expect=1)


@pytest.mark.parametrize("argv", [
    ("bvc", "simulate", "--line=--"),
    ("share", "reconstruct", "--players=--"),
    ("ec", "demo", "--secret=--"),
    ("measure", "+Z", "--", "--"),
])
def test_double_dash_value_is_a_usage_error(run, argv):
    err = run(*argv, expect=1)
    assert "expected one value, got '--'" in err


def test_ontic_dump(run):
    rep = run("ontic", "dump", "+Z")
    assert rep["numerators"] == [1, 1, 0, 0]
    assert rep["denominator_log2"] == 1


def test_ontic_cap(run):
    err = run("ontic", "dump", "+" + "Z" * 7, expect=2)
    assert "cap" in err.lower() or "7" in err


def test_measure_deterministic(run):
    rep = run("measure", "+Z", "+Z")
    assert rep["outcome"] == 0
    assert rep["probability"] == {"num": 1, "den": 1}


def test_measure_seeded_reproducible(run):
    a = run("measure", "+Z", "+X", "--seed", "9")
    b = run("measure", "+Z", "+X", "--seed", "9")
    assert a == b


def test_measure_impossible_force(run):
    err = run("measure", "+Z", "+Z", "--force", "1", expect=2)
    assert "probability zero" in err


def test_perm_apply(run, tmp_path):
    spec = tmp_path / "h.json"
    spec.write_text(json.dumps([{"site": 1, "perm": "H"}]))
    rep = run("perm", "apply", str(spec), "+X")
    assert rep["output"]["generators"] == ["+Z"]


def test_trace(run):
    rep = run("trace", "+XX\\n+ZZ", "--keep", "1")
    assert rep["output"]["generators"] == []


@pytest.mark.parametrize("argv, message", [
    (("trace", "+XX\\n+ZZ", "--keep", "9"), "site 9 out of range"),
    (("trace", "+XX\\n+ZZ", "--keep", "0"), "site 0 out of range"),
    (("trace", "+XX\\n+ZZ", "--keep", "1,1"), "site 1 listed twice"),
    (("ec", "demo", "--erase", "1,1"), "site 1 listed twice"),
    (("share", "reconstruct", "--players", "1,3,9"), "site 9 out of range"),
])
def test_bad_site_lists_rejected(run, argv, message):
    err = run(*argv, expect=2)
    assert message in err


def test_trace_reports_the_order_it_keeps(run):
    rep = run("trace", "+XI\\n+IZ", "--keep", "2,1")
    assert rep["kept_sites"] == [1, 2]
    assert rep["output"]["generators"] == ["+XI", "+IZ"]


def test_readme_perm_example_applies(run, tmp_path):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    factors = re.search(r"`perm apply` takes.*?`(\[.*?\])`",
                        readme.read_text(), re.S).group(1)
    spec = tmp_path / "factors.json"
    spec.write_text(factors)
    rep = run("perm", "apply", str(spec), "+XX\\n+ZZ")
    assert rep["output"]["n"] == 2


# bad factor lists and the error of each on one system
BAD_SPECS = [
    ([{"site": 1, "perm": "Q"}], "unknown permutation 'Q'"),
    ([{"site": 1}], "has no 'perm' key"),
    ({"site": 1}, "JSON list of factors"),
    ([5], "not an object"),
    ([{"site": "1", "perm": "H"}], "malformed sites"),
    ([{"cx": [1]}], "malformed sites"),
    ([{"site": 0, "perm": "H"}], "site 0 out of range 1..1"),
    ([{"site": 3, "perm": "H"}], "site 3 out of range 1..1"),
    ([{"cz": [1, 3]}], "site 3 out of range 1..1"),
    ([{"cy": [1, 1]}], "both at site 1"),
    ([{"cw": [1, 2]}], "unknown controlled kind 'cw'"),
    ([{"site": 1, "perm": True}], "malformed perm"),
    ([{"site": 1, "perm": 2.0}], "malformed perm"),
    ([{"site": 1, "perm": [True, 0, 2, 3]}], "malformed perm"),
]


@pytest.mark.parametrize("spec, message", BAD_SPECS)
def test_perm_apply_rejects_bad_spec(run, tmp_path, spec, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    err = run("perm", "apply", str(path), "+X", expect=2)
    assert message in err


@pytest.mark.parametrize("spec, message", BAD_SPECS)
def test_exact_factor_deviation_rejects_bad_spec(run, tmp_path, spec,
                                                 message):
    # the factor file is parsed for the pattern's size before the walk
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    err = run("bvc", "simulate", "--line", "0", "--mode", "verified",
              "--deviation", str(path), "--exact", expect=2)
    assert message in err


def test_exact_factor_deviation_keeps_one_based_sites(run, tmp_path):
    # the declared support is 0-based, the file's sites are not
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"site": 4, "perm": "H"}]))
    err = run("bvc", "simulate", "--line", "0,1,0", "--mode", "verified",
              "--deviation", str(path), "--exact", expect=2)
    assert err == "error: site 4 out of range 1..3\n"
    path.write_text(json.dumps([{"site": 3, "perm": "H"}]))
    rep = run("bvc", "simulate", "--line", "0,1,0", "--mode", "verified",
              "--deviation", str(path), "--exact", "--sample-rounds", "0")
    assert rep["exact"] is True


@pytest.mark.parametrize("perm", [True, 2.0, [True, 0, 2, 3]])
def test_factor_deviation_rejects_a_non_integer_perm(run, tmp_path, perm):
    path = tmp_path / "dev.json"
    path.write_text(json.dumps([{"site": 1, "perm": perm}]))
    err = run("bvc", "simulate", "--line", "0,1,0", "--deviation", str(path),
              expect=2)
    assert "malformed perm" in err


def test_purify(run):
    rep = run("purify", "+ZI")
    assert rep["round_trip_ok"]
    assert rep["purification"]["n"] == 4


def test_bc_demo(run, tmp_path):
    enc = tmp_path / "enc.txt"
    enc.write_text("+ZZ\n+XX\n\n+ZZ\n-XX\n")
    rep = run("bc", "demo", "--encoding", str(enc), "--partition", "1")
    assert rep["acceptance_probability"] == {"num": 1, "den": 1}


def test_ec_demo(run):
    rep = run("ec", "demo", "--code", "five", "--error", "Y@2")
    assert rep["success"]
    assert rep["recovered"]["generators"] == ["+Z"]


def test_ec_demo_erasure(run):
    rep = run("ec", "demo", "--code", "five", "--erase", "1,4")
    assert rep["success"]


@pytest.mark.parametrize("error", ["X@3", "Y@1", "Z@4"])
def test_ec_demo_four_reports_a_detected_error(run, error):
    rep = run("ec", "demo", "--code", "four", "--error", error)
    assert rep["detected"] is True and rep["success"] is False
    assert rep["syndrome"] != [0, 0] and "recovered" not in rep
    rep = run("ec", "demo", "--code", "four", "--error", "I@2")
    assert rep["success"] and "detected" not in rep


@pytest.mark.parametrize("spec, message", [
    ("Q@1", "bad error spec 'Q@1': unknown symbol 'Q'"),
    ("@1", "bad error spec '@1': unknown symbol ''"),
    ("X@0", "bad error spec 'X@0': site 0 out of range 1..5"),
    ("X@6", "bad error spec 'X@6': site 6 out of range 1..5"),
])
def test_ec_demo_rejects_bad_error_spec(run, spec, message):
    err = run("ec", "demo", "--error", spec, expect=2)
    assert message in err


def test_share_flow(run):
    rep = run("share", "reconstruct", "--players", "1,3,5", "--seed", "3")
    assert rep["match"]
    err = run("share", "reconstruct", "--players", "1,2", expect=2)
    assert "no information" in err
    rep = run("share", "reconstruct", "--players", "1,2,3,4,5")
    assert rep["match"]


def test_mbtc_run(run, tmp_path):
    pat = tmp_path / "p.json"
    pat.write_text(json.dumps({
        "graph": {"nodes": [0, 1], "edges": [[0, 1]]},
        "inputs": [0], "outputs": [1], "angles": {"0": 0},
        "gflow": "auto"}))
    rep = run("mbtc", "run", str(pat), "--input", "+Z", "--branches", "all")
    assert rep["deterministic"]
    assert rep["results"][0]["output_state"]["generators"] == ["+X"]


@pytest.mark.parametrize("spec, message", [
    ([0, 1], "a pattern is a JSON object with a 'graph' object"),
    ({"graph": {"nodes": [0, [1]], "edges": []}, "angles": {}},
     "pattern nodes must be a list of integers"),
    ({"graph": {"nodes": [0, 1], "edges": [[0, 1, 2]]}, "angles": {}},
     "pattern edges must be a list of node pairs"),
    ({"graph": {"nodes": [0, 1], "edges": [[0, 1]]}, "outputs": 1,
      "angles": {}}, "pattern outputs must be a list of integers"),
    ({"graph": {"nodes": [0, 1], "edges": [[0, 1]]}, "outputs": [1],
      "angles": {"0": "1"}}, "pattern angles must map node numbers to integers"),
    ({"graph": {"nodes": [0, 1], "edges": [[0, 1]]}, "outputs": [1],
      "angles": {"0": 1}, "gflow": 3}, "gflow must be 'auto' or an object"),
    ({"graph": {"nodes": [0, 1], "edges": [[0, 1]]}, "inputs": [0, 0],
      "outputs": [1], "angles": {"0": 1}}, "an input is listed twice"),
    ({"graph": {"nodes": [0, 1, 2, 3],
                "edges": [[0, 1], [0, 1], [0, 1], [1, 2], [2, 3]]},
      "inputs": [0], "outputs": [3], "angles": {"0": 0, "1": 0, "2": 0}},
     "edge (0, 1) is listed twice"),
    ({"graph": {"nodes": [0, 1, 2], "edges": [[0, 1], [1, 2], [2, 1]]},
      "outputs": [2], "angles": {"0": 0, "1": 0}},
     "edge (2, 1) is listed twice"),
    ({"graph": {"nodes": [0, 1], "edges": [[0, 1]]}, "outputs": [1],
      "angles": {"0": 0, "1": 1, "7": 2}},
     "angles for vertices that are not nodes: [7]"),
    ({"graph": {"nodes": [0, 1, 2], "edges": [[0, 1], [1, 2]]},
      "outputs": [2], "angles": {"0": 0, "1": 1},
      "gflow": {"g": {"0": [1], "1": [2]}, "layers": {"2": 0}}},
     "the flow's layer misses vertices [0, 1]"),
    ({"graph": {"nodes": [0, 1, 2], "edges": [[0, 1], [1, 2]]},
      "outputs": [2], "angles": {"0": 0, "1": 1},
      "gflow": {"g": {"0": [1, 9], "1": [2]},
                "layers": {"0": 2, "1": 1, "2": 0, "9": 3}}},
     "correction set of 0 holds non-vertices [9]"),
])
def test_mbtc_run_rejects_bad_pattern(run, tmp_path, spec, message):
    pat = tmp_path / "p.json"
    pat.write_text(json.dumps(spec))
    err = run("mbtc", "run", str(pat), expect=2)
    assert message in err


def test_mbtc_run_rejects_an_input_state_without_inputs(run, tmp_path):
    pat = tmp_path / "p.json"
    pat.write_text(json.dumps({
        "graph": {"nodes": [0, 1], "edges": [[0, 1]]},
        "inputs": [], "outputs": [1], "angles": {"0": 0}}))
    for mode in ("all", "sample"):
        err = run("mbtc", "run", str(pat), "--input=+ZZ", "--branches", mode,
                  expect=2)
        assert "an input state needs a graph with inputs" in err


def test_bvc_simulate_exact(run):
    rep = run("bvc", "simulate", "--line", "0,1,0", "--mode", "verified",
              "--deviation", "extremal:1", "--exact", "--sample-rounds", "2")
    assert rep["p_fail"] == {"num": 5, "den": 6}
    assert rep["bound"] == {"num": 5, "den": 6}


def test_bvc_simulate_exact_on_seven_nodes(run):
    rep = run("bvc", "simulate", "--line", "0,1,0,2,3,1,0", "--mode",
              "verified", "--deviation", "extremal:1", "--exact",
              "--sample-rounds", "0")
    assert rep["p_fail"] == rep["bound"] == {"num": 13, "den": 14}


@pytest.mark.parametrize("site", (3, -1))
def test_bvc_simulate_exact_rejects_an_extremal_site_out_of_range(run, site):
    err = run("bvc", "simulate", "--line", "0,1,0", "--mode", "verified",
              "--deviation", f"extremal:{site}", "--exact", expect=2)
    assert f"site {site} out of range for n=3" in err


def test_bvc_simulate_honest_blind(run):
    rep = run("bvc", "simulate", "--line", "0,1,0", "--mode", "blind",
              "--seed", "4")
    assert len(rep["instructions"]) == 3
    rep2 = run("bvc", "simulate", "--line", "0,1,0", "--mode", "blind",
               "--seed", "4")
    assert rep == rep2


def test_bvc_monte_carlo_is_tagged(run):
    rep = run("bvc", "simulate", "--line", "0,1,0", "--deviation", "honest",
              "--trials", "50", "--sample-rounds", "2", "--seed", "1")
    assert rep["p_fail"]["is_estimate"] is True
    assert rep["p_fail"]["estimate"] == 0.0


def test_bvc_rejects_bad_counts(run):
    err = run("bvc", "simulate", "--trials", "0", expect=2)
    assert "trials" in err
    err = run("bvc", "simulate", "--sample-rounds", "-1", expect=2)
    assert "sample-rounds" in err


def _bvc_pattern(tmp_path, **spec):
    path = tmp_path / "bvc.json"
    path.write_text(json.dumps({"graph": {"nodes": [0, 1, 2],
                                          "edges": [[0, 1], [1, 2]]},
                                "outputs": [2], **spec}))
    return str(path)


_BVC_MODES = (("--mode", "delegated"), ("--mode", "blind"),
              ("--mode", "verified", "--exact"),
              ("--mode", "verified", "--trials", "5"))


@pytest.mark.parametrize("mode", _BVC_MODES)
def test_bvc_output_needs_an_angle(run, tmp_path, mode):
    path = _bvc_pattern(tmp_path, angles={"0": 0, "1": 1})
    err = run("bvc", "simulate", "--pattern", path, *mode, expect=2)
    assert err == ("error: vertices without angles: [2]; a delegated round "
                   "measures every vertex, outputs included\n")


@pytest.mark.parametrize("mode", _BVC_MODES)
def test_bvc_pattern_with_inputs_rejected(run, tmp_path, mode):
    path = _bvc_pattern(tmp_path, inputs=[0], angles={"0": 0, "1": 1, "2": 0})
    err = run("bvc", "simulate", "--pattern", path, *mode, expect=2)
    assert err == "error: delegated rounds take no quantum inputs\n"


@pytest.mark.parametrize("mode", _BVC_MODES)
def test_bvc_angle_on_a_non_node_rejected(run, tmp_path, mode):
    path = _bvc_pattern(tmp_path, angles={"0": 0, "1": 1, "2": 0, "7": 2})
    err = run("bvc", "simulate", "--pattern", path, *mode, expect=2)
    assert err == "error: angles for vertices that are not nodes: [7]\n"


@pytest.mark.parametrize("mode", [("--exact",), ("--trials", "5")])
def test_bvc_verified_needs_a_vertex(run, tmp_path, mode):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"graph": {"nodes": [], "edges": []},
                                "angles": {}}))
    err = run("bvc", "simulate", "--pattern", str(path), "--mode",
              "verified", *mode, expect=2)
    assert err == "error: a verified round needs at least one vertex\n"


def test_seed_defaults_to_the_environment(run, monkeypatch):
    # the parser is built once, so each call reads its own environment
    for seed in ("7", "12"):
        monkeypatch.setenv("TOYSTAB_SEED", seed)
        assert run("measure", "+Z", "+X")["seed"] == int(seed)
        assert run("bvc", "simulate", "--mode", "blind")["seed"] == int(seed)
    assert run("measure", "+Z", "+X", "--seed", "3")["seed"] == 3
    monkeypatch.delenv("TOYSTAB_SEED")
    assert run("measure", "+Z", "+X")["seed"] == 0


def test_bad_seed_in_the_environment(run, monkeypatch):
    monkeypatch.setenv("TOYSTAB_SEED", "abc")
    for argv in (("measure", "+Z", "+X"), ("ec", "demo"),
                 ("share", "deal"), ("bvc", "simulate", "--mode", "blind")):
        err = run(*argv, expect=2)
        assert err == "error: TOYSTAB_SEED must be an integer, got 'abc'\n"
    # commands that take no seed, or are given one, ignore it
    assert run("state", "print", "+Z")["rank"] == 1
    assert run("selftest")["ok"]
    assert run("measure", "+Z", "+X", "--seed", "4")["seed"] == 4


def test_selftest(run):
    rep = run("selftest")
    assert rep["ok"]
    assert rep["probabilities"]["+X"] == {"num": 1, "den": 2}


def test_unknown_deviation(run):
    run("bvc", "simulate", "--deviation", "mystery", expect=2)


# -- fuzz: every run ends in success, a usage error or a domain error ----------

_GENERATOR_TEXT = st.text(alphabet="+-IXYZQ# ", min_size=0, max_size=5)
_STATE_TEXT = st.lists(_GENERATOR_TEXT, max_size=4).map("\\n".join)
_SITE_LIST = st.one_of(
    st.lists(st.integers(-2, 8), max_size=4).map(
        lambda sites: ",".join(map(str, sites))),
    st.text(alphabet="0123456789,-a ", max_size=6))
_SITE = st.one_of(st.integers(-2, 6), st.sampled_from(["1", None, 1.5, True]))
_FACTOR = st.one_of(
    st.fixed_dictionaries({"site": _SITE, "perm": st.one_of(
        st.sampled_from(["I", "X", "Y", "Z", "H", "P", "B", "Q"]),
        st.integers(-2, 30), st.lists(st.integers(0, 4), max_size=5))}),
    st.dictionaries(st.sampled_from(["cx", "cy", "cz", "cw", "site", "perm"]),
                    st.lists(_SITE, max_size=3), max_size=2),
    st.integers(), st.text(max_size=3))
_PERM_SPEC = st.one_of(st.lists(_FACTOR, max_size=4), _FACTOR)
_LINE_SPEC = st.one_of(
    st.lists(st.integers(-2, 5), min_size=1, max_size=3).map(
        lambda angles: ",".join(map(str, angles))),
    st.text(alphabet="0123,-x ", max_size=5))
_DEVIATION = st.one_of(
    st.sampled_from(["honest", "flip-all"]),
    st.integers(-2, 5).map("extremal:{}".format),
    st.text(alphabet="abxyz:-01 ", max_size=6))
_ERROR_SPEC = st.one_of(
    st.builds("{}@{}".format,
              st.sampled_from(["X", "Y", "Z", "I", "+X", "-Z", "Q", ""]),
              st.integers(-1, 7)),
    st.text(alphabet="XYZQ@0123+-", max_size=5))
_STATE = st.one_of(
    st.sampled_from(["+Z", "-X", "+Y", "+ZI\\n+IX", "-XX", "+XX\\n+ZZ",
                     "+II", "+I\\n+I"]),
    _STATE_TEXT)


_NODE = st.one_of(st.integers(-1, 4), st.sampled_from(["0", None, 1.5, [0]]))
_NODE_LIST = st.one_of(st.lists(_NODE, max_size=4), _NODE)
_EDGE = st.one_of(st.lists(_NODE, min_size=2, max_size=2),
                  st.lists(_NODE, max_size=3), _NODE)
_ANGLES = st.one_of(
    st.dictionaries(st.one_of(st.integers(-1, 4).map(str), st.just("x")),
                    st.one_of(st.integers(-2, 5), st.sampled_from(
                        ["1", None, 1.5, [1]])), max_size=4),
    st.lists(st.integers(0, 3), max_size=2))
_GFLOW = st.one_of(
    st.just("auto"), st.sampled_from(["none", None, 3, []]),
    st.fixed_dictionaries({
        "g": st.dictionaries(st.integers(-1, 4).map(str),
                             st.one_of(st.lists(_NODE, max_size=2), _NODE),
                             max_size=4),
        "layers": st.dictionaries(st.integers(-1, 4).map(str),
                                  st.one_of(st.integers(-1, 3), _NODE),
                                  max_size=5)}),
    st.dictionaries(st.sampled_from(["g", "layers"]), _NODE, max_size=2))


def _mostly(draw, valid, junk):
    """``valid``, or a draw from ``junk`` one time in four."""
    return draw(junk) if draw(st.sampled_from([0, 0, 0, 1])) else valid


@st.composite
def _pattern_files(draw):
    """Pattern JSON: mostly well-formed line graphs on up to five nodes,
    with junk mixed in at every level."""
    n = draw(st.integers(1, 5))
    line = {"nodes": _mostly(draw, list(range(n)), _NODE_LIST),
            "edges": _mostly(draw, [[i, i + 1] for i in range(n - 1)],
                             st.one_of(st.lists(_EDGE, max_size=5), _NODE))}
    spec = {"graph": _mostly(draw, line, _NODE),
            "inputs": _mostly(draw, [0], _NODE_LIST),
            "outputs": _mostly(draw, [n - 1], _NODE_LIST),
            "angles": _mostly(draw, {str(i): draw(st.integers(0, 3))
                                     for i in range(n - 1)}, _ANGLES),
            "gflow": _mostly(draw, "auto", _GFLOW)}
    if draw(st.sampled_from([0, 0, 0, 0, 1])):
        del spec[draw(st.sampled_from(sorted(spec)))]
    return json.dumps(_mostly(draw, spec, st.one_of(_NODE, _ANGLES)))


@st.composite
def _encoding_files(draw):
    """Two generator blocks, sometimes one or three, for bc demo."""
    blocks = _mostly(draw, draw(st.sampled_from([
        ["+ZZ\\n+XX", "+ZZ\\n-XX"], ["+ZI", "+XI"],
        ["+ZZI\\n+XXI\\n+IIZ", "+ZZI\\n-XXI\\n+IIX"]])),
        st.lists(_STATE_TEXT, min_size=1, max_size=3))
    return "\n\n".join(b.replace("\\n", "\n") for b in blocks)


def _seed(draw):
    return ["--seed", str(draw(st.integers(0, 9)))]


def _optional_secret(draw):
    return [f"--secret={draw(_STATE)}"] if draw(st.booleans()) else []


@st.composite
def _cli_runs(draw):
    """(argv, file text or None) for state, measure, trace, perm apply,
    purify, ec demo, share, bvc simulate, mbtc run, bc demo or ontic dump;
    a file's text is written to a file whose path replaces FILE."""
    command = draw(st.sampled_from(["validate", "print", "measure", "trace",
                                    "perm", "bvc", "purify", "ec", "share",
                                    "mbtc", "bc", "ontic"]))
    if command == "mbtc":
        argv = ["mbtc", "run", "FILE", "--branches",
                draw(st.sampled_from(["all", "sample"]))]
        if draw(st.booleans()):
            argv.append(f"--input={draw(_STATE)}")
        return argv + _seed(draw), draw(_pattern_files())
    if command == "bc":
        partition = _mostly(draw, draw(st.sampled_from(["1", "2", "1,3"])),
                            _SITE_LIST)
        argv = ["bc", "demo", "--encoding", "FILE", f"--partition={partition}",
                "--mode", draw(st.sampled_from(["perfect", "imperfect"]))]
        return argv, draw(_encoding_files())
    if command == "ontic":
        argv = ["ontic", "dump", f"--cap={draw(st.integers(-1, 6))}"]
        return argv + ["--", draw(_STATE)], None
    if command == "ec":
        argv = ["ec", "demo", "--code", draw(st.sampled_from(["five", "four"]))]
        argv.append(draw(st.one_of(
            _ERROR_SPEC.map("--error={}".format),
            _SITE_LIST.map("--erase={}".format))))
        return argv + _optional_secret(draw) + _seed(draw), None
    if command == "share":
        argv = ["share", draw(st.sampled_from(["deal", "reconstruct"])),
                f"--players={draw(_SITE_LIST)}"]
        return argv + _optional_secret(draw) + _seed(draw), None
    if command == "bvc":
        argv = ["bvc", "simulate", f"--line={draw(_LINE_SPEC)}",
                f"--deviation={draw(_DEVIATION)}",
                "--mode", draw(st.sampled_from(["delegated", "blind",
                                                "verified"])),
                "--trials", str(draw(st.integers(1, 20))),
                "--sample-rounds", str(draw(st.integers(0, 3))),
                "--seed", str(draw(st.integers(0, 9)))]
        return argv + (["--exact"] if draw(st.booleans()) else []), None
    state = draw(_STATE)
    if command == "purify":
        return ["purify", state], None
    if command in ("validate", "print"):
        return ["state", command, state], None
    if command == "measure":
        argv = ["measure", state, draw(_GENERATOR_TEXT),
                "--seed", str(draw(st.integers(0, 9)))]
        force = draw(st.sampled_from([None, "0", "1", "2"]))
        return argv + (["--force", force] if force else []), None
    if command == "trace":
        return ["trace", state, "--keep", draw(_SITE_LIST)], None
    return ["perm", "apply", "FILE", state], json.dumps(draw(_PERM_SPEC))


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.txt"


@settings(max_examples=300, deadline=None)
@given(_cli_runs())
def test_cli_fuzz_never_fails_internally(spec_path, case):
    argv, text = case
    if text is not None:
        spec_path.write_text(text)
        argv[argv.index("FILE")] = str(spec_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), err.getvalue()
    if code == 0:
        json.loads(out.getvalue())


# -- seeded bvc runs stay byte-identical ---------------------------------------

def _bvc_corpus():
    """Seeded ``bvc simulate`` runs: exact and Monte Carlo verified rounds,
    blind and delegated rounds, each honest, flip-all and extremal, under
    two seeds, and one run that ends in an error."""
    runs = []
    for seed in ("3", "11"):
        for deviation in ("honest", "flip-all", "extremal:1"):
            common = ("bvc", "simulate", "--line", "0,1,0,2", "--seed", seed,
                      "--deviation", deviation)
            runs += [
                common + ("--mode", "verified", "--exact",
                          "--sample-rounds", "6"),
                common + ("--mode", "verified", "--trials", "40",
                          "--sample-rounds", "6"),
                common + ("--mode", "blind"),
                common + ("--mode", "delegated"),
            ]
        runs.append(("bvc", "simulate", "--line", "2,3,1", "--seed", seed,
                     "--mode", "verified", "--deviation", "extremal:2",
                     "--exact"))
        runs.append(("bvc", "simulate", "--line", "0,1,0", "--seed", seed,
                     "--mode", "verified", "--deviation", "extremal:7"))
    return runs


# the corpus's sha256, recorded before the functions that run rounds took
# one plan per round; a refactor of them must leave every byte as it is
_BVC_CORPUS_SHA256 = (
    "2317f5cb5768f604453017933ad8e261b7d791a323d2c7e3d9374bba9b5c0c6f")


def test_seeded_bvc_runs_are_byte_identical(capsys):
    digest = hashlib.sha256()
    for argv in _bvc_corpus():
        code = main(list(argv))
        out = capsys.readouterr()
        digest.update(json.dumps([list(argv), code, out.out, out.err])
                      .encode())
    assert digest.hexdigest() == _BVC_CORPUS_SHA256


@pytest.mark.parametrize("deviation", ["honest", "flip-all", "extremal:1"])
def test_a_verified_run_builds_one_plan_per_trap(capsys, built_plans,
                                                 deviation):
    # the audit and the sampled rounds share each trap's plan, which the
    # pattern keeps; built apart, they made up to 6 per call
    for audit in (["--exact"], ["--trials", "50"]):
        built_plans.clear()
        assert main(["bvc", "simulate", "--line", "1,2,3", "--seed", "4",
                     "--deviation", deviation, *audit]) == 0
        capsys.readouterr()
        assert sorted(built_plans) == [0, 1, 2], audit


# -- seeded mbtc runs stay byte-identical --------------------------------------

_MBTC_PATTERNS = {
    # a 5-line with a derived flow
    "line": {"graph": {"nodes": [0, 1, 2, 3, 4],
                       "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]},
             "inputs": [0], "outputs": [4],
             "angles": {"0": 1, "1": 2, "2": 3, "3": 1}},
    # the CX pattern with its flow given
    "cx": {"graph": {"nodes": [0, 1, 2, 3],
                     "edges": [[1, 2], [2, 3], [0, 2]]},
           "inputs": [0, 1], "outputs": [0, 3], "angles": {"1": 0, "2": 0},
           "gflow": {"g": {"1": [2], "2": [3]},
                     "layers": {"0": 0, "1": 2, "2": 1, "3": 0}}},
    # a 2x3 grid with its flow given and one output measured
    "grid": {"graph": {"nodes": [0, 1, 2, 3, 4, 5],
                       "edges": [[0, 1], [1, 2], [3, 4], [4, 5], [0, 3],
                                 [1, 4], [2, 5]]},
             "inputs": [0, 3], "outputs": [2, 5],
             "angles": {"0": 1, "1": 3, "3": 2, "4": 1, "5": 0},
             "gflow": {"g": {"0": [1], "1": [2], "3": [4], "4": [5]},
                       "layers": {"0": 2, "1": 1, "2": 0, "3": 2, "4": 1,
                                  "5": 0}}},
    # no inputs, a derived flow
    "open": {"graph": {"nodes": [0, 1, 2], "edges": [[0, 1], [1, 2]]},
             "outputs": [2], "angles": {"0": 3, "1": 1}},
}


def _mbtc_corpus():
    """Seeded ``mbtc run`` calls: every pattern with ``--branches all`` and
    ``sample``, with and without ``--input``, under two seeds, and one
    input on a pattern without inputs, which ends in an error."""
    inputs = {"line": "+Y", "cx": "+XZ\\n+ZY", "grid": "+ZX\\n-XY",
              "open": "+Z"}
    runs = []
    for seed in ("5", "17"):
        for name in _MBTC_PATTERNS:
            for branches in ("all", "sample"):
                common = ("mbtc", "run", name, "--seed", seed,
                          "--branches", branches)
                runs += [common, common + ("--input", inputs[name])]
    return runs


# the corpus's sha256, recorded before each pattern kept its schedule;
# the schedule and marginal changes must leave every byte as it is
_MBTC_CORPUS_SHA256 = (
    "a51a5214fff07391a9a2832992fa3ea7309b5f8c8e668f2cb9245fdf7284d376")


def test_seeded_mbtc_runs_are_byte_identical(capsys, tmp_path):
    for name, spec in _MBTC_PATTERNS.items():
        (tmp_path / name).write_text(json.dumps(spec))
    digest = hashlib.sha256()
    for argv in _mbtc_corpus():
        path = str(tmp_path / argv[2])
        code = main([*argv[:2], path, *argv[3:]])
        out = capsys.readouterr()
        digest.update(json.dumps([list(argv), code, out.out,
                                  out.err.replace(path, argv[2])]).encode())
    assert digest.hexdigest() == _MBTC_CORPUS_SHA256
