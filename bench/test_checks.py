"""Each benchmark check must reject a deliberately wrong answer.

Run from the repository root:  python3 -m pytest -q bench/test_checks.py
"""

import os
import random
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle as o  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


def _workload(name, tmp_path, seed=7):
    bc, cli = run.import_program()
    return wl.WORKLOADS[name](bc, cli, random.Random(f"bicomm-{name}-{seed}"), str(tmp_path))


def _results(workload, pick):
    """(job, canonical output) for the jobs chosen by pick, run once."""
    return [(job, job.canon(job.fn())) for job in workload.jobs if pick(job)]


def _replace(results, index, value):
    out = list(results)
    out[index] = (out[index][0], value)
    return out


def test_words_rejects_a_missing_monomial_and_a_wrong_product(tmp_path):
    w = _workload("words", tmp_path)
    results = _results(w, lambda j: j.meta == ("slice", 2, 3) or
                       (j.kind == "triple" and j is w.jobs[-1]))
    assert w.check(results) == []
    k = next(i for i, (j, _) in enumerate(results) if j.kind == "slice")
    job, out = results[k]
    assert "slice d=2 n=3" in w.check(_replace(results, k, out[1:]))[0]
    last = len(results) - 1
    job, out = results[last]
    wrong = ("0",) + out[1:]
    assert any("identity" in e for e in w.check(_replace(results, last, wrong)))


def test_chains_rejects_a_corrupted_certificate_and_a_moved_index(tmp_path):
    w = _workload("chains", tmp_path)
    first_chain = w.jobs[0].meta
    results = _results(w, lambda j: (j.meta is first_chain) or
                       (j.kind == "query" and j.meta[0] is first_chain))
    assert w.check(results) == []
    q = next(i for i, (j, _) in enumerate(results) if j.kind == "query")
    member, mu, span, cofactors = results[q][1]
    i, text = cofactors[0]
    corrupted = (member, mu, span, ((i, text + " + y1*z1^9"),) + cofactors[1:])
    assert any("does not recompute" in e for e in w.check(_replace(results, q, corrupted)))
    ext = next(i for i, (j, _) in enumerate(results) if j.kind == "extended")
    assert any("after appending" in e for e in w.check(_replace(results, ext, "99")))
    # the first chain has linear parts, and its last query a nonzero mu
    assert first_chain["linear"]
    member, mu, span, cofactors = results[-1][1]
    (i, c), rest = mu[0], mu[1:]
    wrong_mu = (member, ((i, str(2 * Fraction(c))),) + rest, span, cofactors)
    assert any("does not recompute" in e for e in w.check(_replace(results, -1, wrong_mu)))


def test_closure_rejects_an_off_by_one_bucket_rank(tmp_path):
    w = _workload("closure", tmp_path)
    job = next(j for j in w.jobs if j.meta == ("comm", (4, 4)))
    results = [(job, job.canon(job.fn()))]
    assert w.check(results) == []
    dims, rows = results[0][1]
    (key, rank), rest = dims[-1], dims[:-1]
    errors = w.check([(job, (rest + ((key, rank + 1),), rows))])
    assert any("rank" in e for e in errors)


def test_closure_rejects_a_wrong_lift_and_a_wrong_verdict(tmp_path):
    w = _workload("closure", tmp_path)
    lift = next(j for j in w.jobs if j.kind == "lift")
    member = next(j for j in w.jobs if j.kind == "member")
    results = [(lift, lift.canon(lift.fn())), (member, member.canon(member.fn()))]
    assert w.check(results) == []
    assert w.check([(lift, "y1*z1")]) and w.check([(member, not results[1][1])])


def test_cli_rejects_a_wrong_normal_form_and_accepts_the_mended_faults(tmp_path):
    w = _workload("cli", tmp_path)
    job = w.jobs[0]
    code, out, err = job.fn()
    assert w.check([(job, (code, out, err))]) == []
    assert w.check([(job, (code, out.replace("y", "z", 1), err))])
    deep, nofield = w.jobs[-2], w.jobs[-1]
    assert w.check([(deep, (0, "y1*z1^1200\n", ""))]) == []
    assert w.check([(deep, (0, "y1*z1^1199\n", ""))])
    assert w.check([(nofield, (3, "", "error: algebra JSON has no field\n"))]) == []
    assert w.check([(nofield, (0, "Holds\n", ""))])


def test_a_job_that_raises_is_wrong_unless_it_names_a_known_fault(tmp_path):
    raised = wl.Failed(RuntimeError("boom"))
    chains = _workload("chains", tmp_path)
    assert any("raised" in e for e in wl.judge(chains, [(chains.jobs[0], raised)]))
    cli = _workload("cli", tmp_path)
    assert any("raised" in e for e in wl.judge(cli, [(cli.jobs[0], raised)]))
    deep, nofield = cli.jobs[-2], cli.jobs[-1]
    assert deep.fault and nofield.fault
    assert wl.judge(cli, [(deep, raised), (nofield, raised)]) == []
    assert [j for j in cli.jobs if j.fault] == [deep, nofield]


def test_oracle_certificate_and_witness():
    g = o.parse_elem("y1*z1", 0)
    f = o.parse_elem("y1^2*z1", 0)
    gb = o.monomial_groebner(next(iter(p)) for p in o.module_generators([g], "two", 1, 0))
    good = ({}, {}, [(1, {o.ONE: Fraction(1)})])  # basis: y1*z1^2 < y1^2*z1
    assert o.certificate_holds(f, [g], "two", good, gb, 0)
    assert not o.certificate_holds(f, [g], "two", ({}, {0: Fraction(1)}, []), gb, 0)
    # the least right-commutativity witness on the three-step Witt algebra
    assert o.first_failing_tuple(wl.RIGHT_COMM, 3, o.witt_table(3), 0) == (1, 0, 1)
    assert o.first_failing_tuple(wl.LEFT_COMM, 3, o.witt_table(3), 0) is None


@pytest.mark.parametrize("text", ["-y2*z1 + y1*z2", "3/2*y1^2*z3 - x2 + 2*x5", "0"])
def test_oracle_parse_and_format_round_trip(text):
    assert o.format_elem(o.parse_elem(text, 0), 0) == text


def test_tracing_wraps_every_binding_site(tmp_path):
    import tracing

    bc, _ = run.import_program()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # polynomials binds weight_key through "from .orders import weight_key"
        assert bc.polynomials.weight_key is bc.orders.weight_key is not bc.weight_key.__wrapped__
        tracer.begin_round()
        qq = bc.Field(0)
        p = bc.Poly(qq, {bc.parse_monomial("y1*z2"): qq.one, bc.parse_monomial("y2*z1"): qq.one})
        p.mul(p).leading()
        tracer.end_round()
    finally:
        tracer.uninstall()
    counts = tracer.rounds[0][2]
    assert counts["orders.weight_key_calls"] >= 3 and counts["monomials.mul_calls"] == 4
    assert tracer.layer_metrics(0.0)["polynomials.mul_calls"] == 1
    assert not hasattr(bc.polynomials.weight_key, "__wrapped__")
