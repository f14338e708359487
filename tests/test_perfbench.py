"""Smoke run of the benchmark: its oracles must accept every op, and its
Monte Carlo replay must reproduce the estimators."""

import json
import subprocess
import sys

import pytest

import quivergauge as qg

from conftest import REPO


@pytest.mark.parametrize(
    "workload, trace",
    [("triangle_pipeline", "0"), ("wide_mc", "0"), ("exact_band", "0"), ("exact_band", "1")],
    ids=["triangle_pipeline", "wide_mc", "exact_band", "exact_band-traced"],
)
def test_pass_is_correct(workload, trace):
    # every op is checked by an oracle: wide_mc ends with the Metropolis estimate
    # against the exact curve, exact_band balances the torus loop equations; the
    # traced pass also replays the layers through the package's public calls
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", trace],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True


@pytest.fixture(scope="module")
def replay_ctx():
    # the benchmark's modules import one another by bare name
    sys.path.insert(0, str(REPO / "perfbench"))
    try:
        import replay
        import tracing
    finally:
        sys.path.remove(str(REPO / "perfbench"))
    return replay, tracing.PassContext(traced=True)


def test_replay_reproduces_the_estimators(replay_ctx):
    # the traced Monte Carlo layers of triangle_pipeline and wide_mc replay
    # the estimators' draws through the package's public names
    replay, ctx = replay_ctx
    job = qg.load_job("builtin:triangle@3")
    table = qg.expand_action(job.quiver, job.action)
    word, samples, seed = job.loops[0], 500, 3
    est = qg.estimate_wilson(job.network, table, word, samples=samples, seed=seed)
    got = replay.reweighted(ctx, job.network, table, seed, samples, [word.steps], lambda tr: tr[0])
    assert replay.rel_dev(got["mean"], est.mean) <= 1e-9

    eq = qg.generate_loop_equation(job.quiver, table, word, "e1")
    res = qg.check_loop_equation(job.network, table, eq, samples=samples, seed=seed)
    words = list(dict.fromkeys(
        [w.steps for t in eq.lhs for w in t.words] + [t.word.steps for t in eq.rhs]
    ))
    pos = {w: k for k, w in enumerate(words)}

    def combine(tr):
        lhs = sum(t.coeff * tr[pos[t.words[0].steps]] * tr[pos[t.words[1].steps]] for t in eq.lhs)
        return lhs - sum(float(eq.rhs_coefficient(table, t)) * tr[pos[t.word.steps]] for t in eq.rhs)

    got = replay.reweighted(ctx, job.network, table, seed, samples, words, combine)
    assert replay.rel_dev(got["mean"], res.residual) <= 1e-9
