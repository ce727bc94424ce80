import json

import pytest

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


def test_parse_error_exit_code(run):
    run("no-such-command", expect=1)


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


@pytest.mark.parametrize("spec, message", [
    ([{"site": 1, "perm": "Q"}], "unknown permutation 'Q'"),
    ([{"site": 1}], "has no 'perm' key"),
    ({"site": 1}, "JSON list of factors"),
    ([5], "not an object"),
    ([{"site": "1", "perm": "H"}], "malformed sites"),
    ([{"cx": [1]}], "malformed sites"),
])
def test_perm_apply_rejects_bad_spec(run, tmp_path, spec, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    err = run("perm", "apply", str(path), "+X", expect=2)
    assert message in err


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


def test_share_flow(run):
    rep = run("share", "reconstruct", "--players", "1,3,5", "--seed", "3")
    assert rep["match"]
    err = run("share", "reconstruct", "--players", "1,2", expect=2)
    assert "no information" in err


def test_mbtc_run(run, tmp_path):
    pat = tmp_path / "p.json"
    pat.write_text(json.dumps({
        "graph": {"nodes": [0, 1], "edges": [[0, 1]]},
        "inputs": [0], "outputs": [1], "angles": {"0": 0},
        "gflow": "auto"}))
    rep = run("mbtc", "run", str(pat), "--input", "+Z", "--branches", "all")
    assert rep["deterministic"]
    assert rep["results"][0]["output_state"]["generators"] == ["+X"]


def test_bvc_simulate_exact(run):
    rep = run("bvc", "simulate", "--line", "0,1,0", "--mode", "verified",
              "--deviation", "extremal:1", "--exact", "--sample-rounds", "2")
    assert rep["p_fail"] == {"num": 5, "den": 6}
    assert rep["bound"] == {"num": 5, "den": 6}


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


def test_selftest(run):
    rep = run("selftest")
    assert rep["ok"]
    assert rep["probabilities"]["+X"] == {"num": 1, "den": 2}


def test_unknown_deviation(run):
    run("bvc", "simulate", "--deviation", "mystery", expect=2)
