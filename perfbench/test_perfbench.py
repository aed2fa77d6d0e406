"""Tests of the benchmark's own machinery.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses

import pytest

from seqaccel import bench, problems
from seqaccel.core import EntryStatus, StaircaseEntry
from seqaccel.problems import parse_problem
from seqaccel.transforms import apply, parse_transform

import make_fixtures
import run
import worker
from spans import ATTR, NAME, Tracer, per_pass, self_times
from workloads import WORKLOADS

WRAPPED = [(bench, name) for name in ("run", "generate", "reference", "apply_transform",
                                      "staircase_entry", "check_fixture", "render")]
WRAPPED.append((problems, "reference"))


def originals():
    return {(module.__name__, name): getattr(module, name) for module, name in WRAPPED}


@pytest.fixture(scope="module")
def paper():
    return worker.build("paper-fixtures", 1)


def test_traced_run_restores_bindings(paper):
    before = originals()
    tracer = Tracer()
    with tracer.installed(bench, problems):
        assert all(getattr(m, n) is not before[(m.__name__, n)] for m, n in WRAPPED)
        result = worker.run_pass(paper.matrices, tracer)
    assert result.failed == 0
    assert originals() == before


def test_bindings_restored_after_exception(paper):
    before = originals()
    with pytest.raises(RuntimeError):
        with Tracer().installed(bench, problems):
            raise RuntimeError("boom")
    assert originals() == before
    worker.allocation_pass(paper.matrices[:1])
    assert originals() == before


def test_traced_csv_bytes_equal_untraced(paper):
    untraced = worker.run_pass(paper.matrices)
    tracer = Tracer()
    with tracer.installed(bench, problems):
        traced = worker.run_pass(paper.matrices, tracer)
        config = paper.matrices[0].config
        traced_text = bench.render(bench.run(config), "csv")
    assert traced.csv_digest == untraced.csv_digest
    assert traced_text.encode() == bench.render(bench.run(config), "csv").encode()
    names = {s[NAME] for s in tracer.spans}
    assert names == {"matrix", "bench.run", "problems.generate", "problems.reference",
                     "transforms.apply", "core.staircase_entry", "bench.check_fixture",
                     "bench.render"}


def test_self_times_subtract_direct_children():
    # [id, parent, pass, matrix, name, attr, start, end]
    spans = [
        [0, -1, 0, "m", "bench.run", "", 0, 100],
        [1, 0, 0, "m", "transforms.apply", "epsilon", 10, 50],
        [2, 1, 0, "m", "inner", "", 20, 30],
        [3, 0, 0, "m", "core.staircase_entry", "fallback", 60, 70],
    ]
    assert self_times(spans) == [50, 30, 10, 10]
    totals = per_pass(spans)[0]
    assert totals["bench.run.self_ms"] == pytest.approx(50e-6)
    assert totals["transforms.apply.epsilon.calls"] == 1
    assert totals["core.staircase_entry.fallback.calls"] == 1


def candidate_top(table, budget):
    """The highest order staircase_entry considers, by its own candidate walk."""
    k, top = 0, None
    while budget - table.width(k) - table.lookback >= 0:
        top = k
        k += table.approximant_step
    return top


@pytest.mark.parametrize("kind", ["epsilon", "seps", "iterated-theta", "levin-v"])
def test_fallback_flag_matches_candidate_walk(kind):
    spec = dataclasses.replace(parse_problem("alt-ln2"), count=61)
    table = apply(parse_transform(kind), problems.generate(spec))
    tracer = Tracer()
    with tracer.installed(bench, problems):
        entries = [bench.staircase_entry(table, b) for b in range(4, 61)]
    flags = [s[ATTR] == "fallback" for s in tracer.spans]
    assert flags == [e.k < candidate_top(table, b) for e, b in zip(entries, range(4, 61))]


def test_inputs_follow_the_seed():
    a, b, again = (worker.build("lozenge-n400", s) for s in (1, 7, 1))
    assert [m.config for m in a.matrices] == [m.config for m in again.matrices]
    assert list(a.slices.values()) == list(again.slices.values())
    assert [m.config for m in a.matrices] != [m.config for m in b.matrices]
    for inputs in (a, b):
        assert all(m.fixture for m in inputs.matrices)
        assert len(inputs.matrices) == 3 * 7
        assert len(inputs.cold_targets) == 2 * 7


def test_unstable_rows_fail_large_n_matrices_only(paper, monkeypatch):
    large = min(worker.build("lozenge-n400", 1).matrices, key=lambda m: len(m.fixture))
    original = bench.staircase_entry

    def unstable(table, budget):
        entry = original(table, budget)
        return StaircaseEntry(entry.k, entry.n, entry.value, EntryStatus.UNSTABLE)

    monkeypatch.setattr(bench, "staircase_entry", unstable)
    result = worker.run_pass([large])
    assert result.failed == len(large.fixture)
    assert result.attempted == 1 + len(large.fixture)
    assert worker.run_pass(paper.matrices).failed == 0


def test_fixture_rows_must_survive_perturbation():
    assert make_fixtures.stable(1e-5, 1e-3, [1.2e-5, 0.9e-5])
    assert not make_fixtures.stable(1e-5, 1e-3, [1e-5, 4e-5])       # drifts a decade half
    assert not make_fixtures.stable(1e-5, 1e-3, [1e-5, None])       # turns unstable
    assert not make_fixtures.stable(5.6e22, 1e-3, [5.6e22])         # worse than raw and 1
    assert not make_fixtures.stable(0.0, 1e-3, [0.0])               # no decade to check
    assert make_fixtures.stable(1e-16, 1e-3, [0.0, 5e-16])          # roundoff floor, wider


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_cold_tail_is_at_least_p75(name):
    _, percentile = run.tail([float(i) for i in range(WORKLOADS[name].cold_samples)])
    assert percentile >= 75.0
