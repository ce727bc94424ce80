"""Command-line front end.

All machine-readable output is JSON on stdout with sorted keys, so a
fixed invocation (including the seed) is byte-reproducible.  Exact
probabilities are serialized as {"num": ..., "den": ...} pairs; floats
appear only in Monte-Carlo reports and carry an "is_estimate" tag.

Exit codes: 0 success, 1 argument/parse error, 2 domain-validation
error, 3 internal failure.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import islice

from . import bvc, codes, crypto
from .algebra import Element, Group
from .dynamics import Permutation, measure_element, partial_trace, purify
from .mbtc import OpenGraph, Pattern, enumerate_branches, run_pattern
from .oracle import DEFAULT_CAP, Distribution, check_cap


class ParseError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)

    def parse_args(self, args=None, namespace=None):
        ns = super().parse_args(args, namespace)
        # argparse reads the value "--" (as in --line=--) as an empty list
        for name, value in vars(ns).items():
            if isinstance(value, list):
                self.error(f"argument {name}: expected one value, got '--'")
        return ns


def _rat(x) -> dict:
    f = Fraction(x)
    return {"num": f.numerator, "den": f.denominator}


def _emit(report: dict) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def _parse_state(text: str) -> Group:
    """Accept inline generators; literal backslash-n works as a newline."""
    text = text.replace("\\n", "\n")
    if os.path.isfile(text):
        with open(text) as fh:
            text = fh.read()
    return Group.parse(text)


def _group_json(g: Group) -> dict:
    return {"n": g.n, "generators": [str(e) for e in g.canonical]}


def _sites(text: str, n: int) -> list[int]:
    """Comma-separated 1-based site list -> 0-based indices."""
    out = []
    for part in text.split(","):
        s = int(part)
        if not 1 <= s <= n:
            raise ValueError(f"site {s} out of range 1..{n}")
        if s - 1 in out:
            raise ValueError(f"site {s} listed twice")
        out.append(s - 1)
    return out


# --------------------------------------------------------------------------
# subcommand handlers
# --------------------------------------------------------------------------

def _cmd_state(args) -> dict:
    g = _parse_state(args.state)
    if args.action == "validate":
        bad = g.violations()
        if bad:
            raise ValueError("; ".join(bad))
        return {"ok": True, "n": g.n, "pure": len(g.canonical) == g.n,
                "generators": [str(e) for e in g.canonical]}
    g.require_valid()
    report = _group_json(g)
    report["rank"] = len(g.canonical)
    report["size"] = 2 ** len(g.canonical)
    return report


def _cmd_ontic(args) -> dict:
    g = _parse_state(args.state).require_valid()
    check_cap(g.n, args.cap)
    dist = Distribution.from_group(g)
    report = dist.to_json()
    report["support_size"] = len(dist.support)
    return report


def _cmd_measure(args) -> dict:
    g = _parse_state(args.state).require_valid()
    e = Element.parse(args.observable)
    if e.n != g.n:
        raise ValueError("observable size does not match state")
    rng = random.Random(args.seed)
    outcome, post, prob = measure_element(
        g, e, rng=rng, force=args.force)
    if post is None:
        raise ValueError("forced outcome has probability zero")
    return {"seed": args.seed, "observable": str(e), "outcome": outcome,
            "probability": _rat(prob), "post": _group_json(post)}


def _cmd_perm(args) -> dict:
    g = _parse_state(args.state).require_valid()
    with open(args.perm) as fh:
        spec = json.load(fh)
    perm = Permutation.from_json(g.n, spec)
    out = perm.conjugate(g)
    return {"input": _group_json(g), "output": _group_json(out)}


def _cmd_trace(args) -> dict:
    g = _parse_state(args.state).require_valid()
    keep = sorted(_sites(args.keep, g.n))  # the order of the marginal
    out = partial_trace(g, keep)
    return {"kept_sites": [s + 1 for s in keep], "output": _group_json(out)}


def _cmd_purify(args) -> dict:
    g = _parse_state(args.state).require_valid()
    out = purify(g)
    back = partial_trace(out, range(g.n))
    return {"input": _group_json(g), "purification": _group_json(out),
            "round_trip_ok": back == g}


def _cmd_bc(args) -> dict:
    with open(args.encoding) as fh:
        blocks = [b for b in fh.read().split("\n\n") if b.strip()]
    if len(blocks) != 2:
        raise ValueError("encoding file needs two generator blocks")
    s0 = Group.parse(blocks[0]).require_valid()
    s1 = Group.parse(blocks[1]).require_valid()
    a_sites = _sites(args.partition, s0.n)
    if args.mode == "perfect":
        res = crypto.bc_cheat_perfect(s0, s1, a_sites)
        return {"mode": "perfect", "epsilon": _rat(0),
                "cheat_distance": _rat(0),
                "acceptance_probability": _rat(res["acceptance_probability"]),
                "flip": res["flip"].to_json()}
    res = crypto.bc_cheat_imperfect(s0, s1, a_sites)
    return {"mode": "imperfect", "epsilon": _rat(res["epsilon"]),
            "cheat_distance": _rat(res["cheat_distance"]),
            "acceptance_probability": _rat(1),
            "beats_naive_bound": res["beats_naive_bound"],
            "naive_bound": res["naive_bound"]}


def _parse_error(text: str, n: int) -> Element:
    """Error spec W@site with a 1-based site, e.g. X@3."""
    try:
        sym, site = text.split("@")
        site = int(site)
        if not 1 <= site <= n:
            raise ValueError(f"site {site} out of range 1..{n}")
        return Element.single(n, site - 1, sym.lstrip("+"))
    except (ValueError, IndexError) as exc:
        raise ValueError(f"bad error spec {text!r}: {exc}")


def _cmd_ec(args) -> dict:
    code = codes.five_system_code() if args.code == "five" \
        else codes.four_system_code()
    secret = (_parse_state(args.secret) if args.secret
              else Group.parse("\n".join(["+" + "Z" + "I" * (code.k - 1)])))
    if secret.n != code.k:
        raise ValueError(f"secret must be on {code.k} system(s)")
    encoded = code.encode(secret.require_valid())
    rng = random.Random(args.seed)
    report = {"code": code.name, "seed": args.seed,
              "secret": _group_json(secret), "encoded": _group_json(encoded)}
    if args.erase:
        sites = _sites(args.erase, code.n)
        damaged = code.apply_erasure(encoded, sites)
        syndrome, fixed = code.correct(damaged, rng=rng, erasure=sites)
        report["erased_sites"] = [s + 1 for s in sites]
    else:
        err = _parse_error(args.error, code.n)
        damaged = code.apply_error(encoded, err)
        syndrome, measured = code.measure_syndrome(damaged, rng=rng)
        fix = code.syndrome_table().get(syndrome)
        report["error"] = str(err)
        if fix is None:
            # the code detects this error but cannot correct it
            report.update(syndrome=list(syndrome), detected=True,
                          success=False)
            return report
        fixed = code.apply_error(measured, fix)
    report["syndrome"] = list(syndrome)
    report["recovered"] = _group_json(code.decode(fixed))
    report["success"] = fixed == encoded
    return report


def _cmd_share(args) -> dict:
    scheme = codes.SharingScheme(codes.five_system_code())
    secret = (_parse_state(args.secret) if args.secret
              else Group.parse("+Z")).require_valid()
    dealt = scheme.deal(secret)
    report = {"players": scheme.n, "threshold": scheme.threshold,
              "privacy": scheme.privacy, "seed": args.seed,
              "secret": _group_json(secret), "dealt": _group_json(dealt)}
    if args.action == "reconstruct":
        holders = _sites(args.players, scheme.n)
        rng = random.Random(args.seed)
        recovered = scheme.reconstruct(dealt, holders, rng=rng)
        report["holders"] = [h + 1 for h in holders]
        report["recovered"] = _group_json(recovered)
        report["match"] = recovered == secret
    return report


def _is_int(v) -> bool:
    return type(v) is int


def _is_ints(v) -> bool:
    return isinstance(v, list) and all(map(_is_int, v))


def _ints(value, what: str) -> list:
    if not _is_ints(value):
        raise ValueError(f"pattern {what} must be a list of integers")
    return value


def _node_map(value, what: str, ok, kind: str) -> dict:
    """A JSON object keyed by node numbers, each value passing ``ok``."""
    if isinstance(value, dict):
        try:
            out = {int(k): v for k, v in value.items()}
        except ValueError:
            out = None
        if out is not None and all(map(ok, out.values())):
            return out
    raise ValueError(f"pattern {what} must map node numbers to {kind}")


def _load_pattern(path: str) -> Pattern:
    with open(path) as fh:
        spec = json.load(fh)
    if not (isinstance(spec, dict) and isinstance(spec.get("graph"), dict)):
        raise ValueError("a pattern is a JSON object with a 'graph' object")
    edges = spec["graph"]["edges"]
    if not (isinstance(edges, list) and all(
            _is_ints(e) and len(e) == 2 for e in edges)):
        raise ValueError("pattern edges must be a list of node pairs")
    graph = OpenGraph(
        tuple(_ints(spec["graph"]["nodes"], "nodes")),
        tuple(map(tuple, edges)),
        tuple(_ints(spec.get("inputs", []), "inputs")),
        tuple(_ints(spec.get("outputs", []), "outputs")))
    angles = _node_map(spec["angles"], "angles", _is_int, "integers")
    flow = None
    gflow = spec.get("gflow", "auto")
    if gflow != "auto":
        if not isinstance(gflow, dict):
            raise ValueError("pattern gflow must be 'auto' or an object")
        g = _node_map(gflow["g"], "gflow g", _is_ints, "lists of integers")
        layers = _node_map(gflow["layers"], "gflow layers", _is_int,
                           "integers")
        flow = ({u: frozenset(K) for u, K in g.items()}, layers)
    return Pattern(graph, angles, flow)


def _branch_json(res: dict) -> dict:
    out = {"outcomes": {str(v): b for v, b in res["outcomes"].items()},
           "probability": _rat(res["probability"]),
           "output_bits": {str(v): b for v, b in res["output"].items()}}
    if res["output_state"] is not None:
        out["output_state"] = _group_json(res["output_state"])
    return out


def _cmd_mbtc(args) -> dict:
    pattern = _load_pattern(args.pattern)
    input_group = (_parse_state(args.input).require_valid()
                   if args.input else None)
    report = {"seed": args.seed, "branches": args.branches}
    if args.branches == "all":
        branches = enumerate_branches(pattern, input_group)
        report["results"] = [_branch_json(b) for b in branches]
        outs = {b["output_state"].canonical if b["output_state"] is not None
                else tuple(sorted(b["output"].items())) for b in branches}
        report["deterministic"] = len(outs) == 1
    else:
        rng = random.Random(args.seed)
        report["results"] = [_branch_json(
            run_pattern(pattern, input_group, rng=rng))]
    return report


def _line_pattern(spec: str) -> Pattern:
    angles = [int(a) for a in spec.split(",")]
    n = len(angles)
    graph = OpenGraph(tuple(range(n)), tuple((i, i + 1) for i in range(n - 1)),
                      inputs=(), outputs=(n - 1,))
    return Pattern(graph, dict(enumerate(angles)))


def _parse_deviation(text: str, n: int) -> bvc.Deviation | None:
    if text == "honest":
        return None
    if text == "flip-all":
        return bvc.flip_all_deviation()
    if text.startswith("extremal:"):
        return bvc.extremal_deviation(int(text.split(":", 1)[1]))
    if os.path.isfile(text):
        with open(text) as fh:
            return bvc.deviation_from_factors(json.load(fh), n)
    raise ValueError(f"unknown deviation {text!r}")


def _cmd_bvc(args) -> dict:
    if args.sample_rounds < 0:
        raise ValueError(
            f"--sample-rounds must be at least 0, got {args.sample_rounds}")
    pattern = (_load_pattern(args.pattern) if args.pattern
               else _line_pattern(args.line))
    deviation = _parse_deviation(args.deviation, len(pattern.graph.nodes))
    report = {"seed": args.seed, "mode": args.mode,
              "deviation": args.deviation}
    rng = random.Random(args.seed)
    if args.mode == "verified":
        report["bound"] = _rat(bvc.trap_bound(pattern))
        if args.exact:
            report["p_fail"] = _rat(bvc.exact_pfail(pattern, deviation))
            report["exact"] = True
        else:
            est = bvc.estimate_pfail(pattern, deviation, rng=rng,
                                     trials=args.trials)
            report["p_fail"] = est
        rounds = bvc.verified_rounds(pattern, rng=rng, deviation=deviation)
        accepts = sum(res.accept
                      for _, res in islice(rounds, args.sample_rounds))
        report["accept_rate"] = {"accepted": accepts,
                                 "rounds": args.sample_rounds,
                                 "is_estimate": True}
    else:
        runner = bvc.run_blind if args.mode == "blind" else bvc.run_delegated
        res = runner(pattern, rng=rng, deviation=deviation)
        report["instructions"] = [[str(v), d] for v, d in res.deltas]
        report["raw_outcomes"] = list(res.raw)
        report["output_bits"] = {str(v): b for v, b in res.output}
        report["alice_operations"] = res.alice_ops
    return report


def _cmd_selftest(args) -> dict:
    """Worked single-system fixture, end to end."""
    g = Group.parse("+Z").require_valid()
    dist = Distribution.from_group(g)
    expected = (Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0))
    checks = {"distribution": dist.probs == expected}
    probs = {}
    for sym, neg in (("Z", False), ("Z", True), ("X", False), ("X", True)):
        e = Element.single(1, 0, sym, neg)
        probs[str(e)] = dist.projector_probability(Group(1, [e]))
    checks["certain"] = probs["+Z"] == 1 and probs["-Z"] == 0
    checks["balanced"] = probs["+X"] == probs["-X"] == Fraction(1, 2)
    for force in (0, 1):
        _, post, p = measure_element(g, Element.parse("+X"), force=force)
        checks[f"post_x_{force}"] = (
            p == Fraction(1, 2)
            and post == Group(1, [Element.single(1, 0, "X", bool(force))]))
    ok = all(checks.values())
    if not ok:
        raise AssertionError(f"selftest failed: {checks}")
    return {"ok": True, "checks": {k: bool(v) for k, v in checks.items()},
            "probabilities": {k: _rat(v) for k, v in probs.items()}}


# --------------------------------------------------------------------------
# wiring
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The argument parser, built once: it does not read the environment.
    A ``--seed`` left out parses as None (see :func:`_default_seed`)."""
    top = _Parser(prog="toystab", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("state", help="validate or print a stabilizer state")
    p.add_argument("action", choices=["validate", "print"])
    p.add_argument("state")
    p.set_defaults(fn=_cmd_state)

    p = sub.add_parser("ontic", help="dump the exact epistemic distribution")
    p.add_argument("action", choices=["dump"])
    p.add_argument("state")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.set_defaults(fn=_cmd_ontic)

    p = sub.add_parser("measure", help="measure one observable")
    p.add_argument("state")
    p.add_argument("observable")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--force", type=int, choices=[0, 1], default=None)
    p.set_defaults(fn=_cmd_measure)

    p = sub.add_parser("perm", help="apply a permutation file to a state")
    p.add_argument("action", choices=["apply"])
    p.add_argument("perm", help="JSON factor list")
    p.add_argument("state")
    p.set_defaults(fn=_cmd_perm)

    p = sub.add_parser("trace", help="partial trace onto kept sites")
    p.add_argument("state")
    p.add_argument("--keep", required=True, help="1-based sites, e.g. 1,3")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("purify", help="purify a mixed state")
    p.add_argument("state")
    p.set_defaults(fn=_cmd_purify)

    p = sub.add_parser("bc", help="bit-commitment cheating demo")
    p.add_argument("action", choices=["demo"])
    p.add_argument("--encoding", required=True,
                   help="file with two generator blocks (commitments 0, 1)")
    p.add_argument("--partition", required=True,
                   help="1-based sites held by the committing party")
    p.add_argument("--mode", choices=["perfect", "imperfect"],
                   default="perfect")
    p.set_defaults(fn=_cmd_bc)

    p = sub.add_parser("ec", help="error-correction demo")
    p.add_argument("action", choices=["demo"])
    p.add_argument("--code", choices=["five", "four"], default="five")
    p.add_argument("--error", default="X@3", help="W@site, 1-based")
    p.add_argument("--erase", default=None, help="1-based sites to erase")
    p.add_argument("--secret", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=_cmd_ec)

    p = sub.add_parser("share", help="secret sharing deal/reconstruct")
    p.add_argument("action", choices=["deal", "reconstruct"])
    p.add_argument("--players", default="1,2,3",
                   help="1-based share holders (reconstruct)")
    p.add_argument("--secret", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=_cmd_share)

    p = sub.add_parser("mbtc", help="run a measurement pattern")
    p.add_argument("action", choices=["run"])
    p.add_argument("pattern", help="pattern JSON file")
    p.add_argument("--input", default=None, help="input state file/text")
    p.add_argument("--branches", choices=["all", "sample"], default="sample")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=_cmd_mbtc)

    p = sub.add_parser("bvc", help="delegated computation simulator")
    p.add_argument("action", choices=["simulate"])
    p.add_argument("--pattern", default=None, help="pattern JSON file")
    p.add_argument("--line", default="0,1,0",
                   help="line-graph quarter angles, e.g. 0,1,0")
    p.add_argument("--mode", choices=["delegated", "blind", "verified"],
                   default="verified")
    p.add_argument("--deviation", default="honest",
                   help="honest, flip-all, extremal:SITE with a 0-based "
                   "site, or a factor file")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--sample-rounds", type=int, default=20)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=_cmd_bvc)

    p = sub.add_parser("selftest", help="run the worked single-system fixture")
    p.set_defaults(fn=_cmd_selftest)

    return top


def _default_seed() -> int:
    """The seed of a command run without ``--seed``: ``TOYSTAB_SEED``,
    or 0 when it is unset."""
    text = os.environ.get("TOYSTAB_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(
            f"TOYSTAB_SEED must be an integer, got {text!r}") from None


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except ParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    try:
        if "seed" in args and args.seed is None:
            args.seed = _default_seed()
        report = args.fn(args)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        sys.stderr.write(f"internal error: {exc}\n")
        return 3
    _emit(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
