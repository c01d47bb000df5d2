"""Tests of the benchmark's own helpers: python3 -m pytest perfbench"""

import json
import sys
import types
from pathlib import Path

import pytest

from harness import Variant, checksum_mismatch, closed_loop, rounded, tail_percentile
from tracer import Span, Tracer, by_name, calls_under, installed, self_times

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    """Advances by `step` on every reading."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


# --- tail percentile --------------------------------------------------------

def test_tail_omitted_below_twenty_samples():
    assert tail_percentile(range(19)) is None


@pytest.mark.parametrize("n, q", [(20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
                                  (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0)])
def test_tail_is_highest_percentile_with_ten_above(n, q):
    samples = [float(x) for x in reversed(range(n))]
    got_q, value, beyond = tail_percentile(samples)
    assert got_q == q
    assert beyond >= 10
    assert sum(1 for x in samples if x > value) == beyond


# --- self time ----------------------------------------------------------------

def spans(*rows):
    return [Span(0, sid, parent, name, start, end) for sid, parent, name, start, end in rows]


def test_self_time_nested_children():
    s = spans((0, None, "a", 0.0, 10.0), (1, 0, "b", 1.0, 9.0), (2, 1, "c", 2.0, 5.0))
    assert self_times(s) == {0: 2.0, 1: 5.0, 2: 3.0}


def test_self_time_back_to_back_children():
    s = spans((0, None, "a", 0.0, 10.0), (1, 0, "b", 1.0, 4.0), (2, 0, "c", 4.0, 8.0))
    assert self_times(s) == {0: 3.0, 1: 3.0, 2: 4.0}


def test_self_times_partition_the_root():
    s = spans((0, None, "op", 0.0, 10.0), (1, 0, "m.f", 1.0, 4.0), (2, 1, "m.g", 2.0, 3.0),
              (3, 0, "m.g", 4.0, 8.0))
    assert sum(self_times(s).values()) == 10.0
    assert by_name(s) == {"op": (1, 3.0), "m.f": (1, 2.0), "m.g": (2, 5.0)}
    assert calls_under(s, "m.g", "m.f") == 1


def test_tracer_records_calls_through_every_binding_and_restores_them():
    pkg = types.ModuleType("fakepkg")
    sub = types.ModuleType("fakepkg.sub")

    def inner(x):
        return x + 1

    def outer(x):
        return sub.inner(x) * 2

    pkg.inner = sub.inner = inner
    pkg.outer = outer
    sys.modules.update({"fakepkg": pkg, "fakepkg.sub": sub})
    try:
        tracer = Tracer(clock=FakeClock())
        observed = []
        targets = [("sub.inner", inner, None),
                   ("pkg.outer", outer, lambda counts, a, k, out: observed.append(out))]
        assert pkg.outer(1) == 4  # untraced call
        with installed(tracer, "fakepkg", targets):
            pkg.outer(1)  # outside an op: not recorded
            with tracer.op(7):
                assert pkg.outer(1) == 4
                assert pkg.inner(1) == 2
        assert pkg.inner is inner and sub.inner is inner and pkg.outer is outer
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.sub"]
    names = {s.id: s.name for s in tracer.spans}
    assert sorted(names.values()) == ["op", "pkg.outer", "sub.inner", "sub.inner"]
    assert all(s.op == 7 for s in tracer.spans)
    parents = sorted((s.name, names.get(s.parent)) for s in tracer.spans)
    assert parents == [("op", None), ("pkg.outer", "op"), ("sub.inner", "op"),
                       ("sub.inner", "pkg.outer")]
    assert observed == [4]


# --- failure accounting -------------------------------------------------------

def test_raising_and_gate_failing_ops_each_count_once():
    checked = []

    def run(i):
        if i == 1:
            raise ValueError("boom")
        return i

    def check(i, inp, out):
        checked.append(i)
        return "wrong answer" if i == 2 else None

    result = closed_loop(lambda i: i, [Variant("plain", run)], check, seconds=5.0,
                         clock=FakeClock())
    assert result.attempted == 5
    assert [(i, reason.split(":")[0]) for i, _, reason in result.failures] == [
        (1, "raised ValueError"), (2, "wrong answer")]
    assert result.failed == 2
    assert 1 not in checked


def test_variants_alternate_order_and_each_attempt_counts():
    order = []
    variants = [Variant(name, lambda i, name=name: order.append((i, name))) for name in "ab"]
    result = closed_loop(lambda i: i, variants, lambda i, inp, out: None, seconds=4.0,
                         clock=FakeClock())
    assert order == [(0, "a"), (0, "b"), (1, "b"), (1, "a")]
    assert result.attempted == 4


def test_loop_ends_on_a_whole_period():
    result = closed_loop(lambda i: i, [Variant("plain", lambda i: i)], lambda i, inp, out: None,
                         seconds=4.0, period=3, clock=FakeClock())
    assert result.attempted == 6


# --- answer checksums -----------------------------------------------------------

def test_checksum_accepts_rounding_noise_and_rejects_changed_answers():
    expected = rounded([[0.123456789012, 0.5], [[0, 1], [2]], 1.0])
    noisy = rounded([[0.123456789013, 0.5], [[0, 1], [2]], 1.0])
    assert checksum_mismatch(expected, noisy) is None
    assert "differs" in checksum_mismatch(expected, [[0.1235, 0.5], [[0, 1], [2]], 1.0])
    assert "length" in checksum_mismatch(expected, [[0.123456789, 0.5], [[0, 1, 2]], 1.0])
    assert checksum_mismatch(expected, [[0.123456789, 0.5], [[0, 2], [1]], 1.0]).startswith(
        "answer[1][0][1]:")


@pytest.fixture
def workloads():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
        yield workloads
    finally:
        sys.path.remove(str(ROOT / "src"))


def test_perturbed_answer_trips_the_workload_gate(workloads):
    class Echo(workloads.Workload):
        name = "echo"
        default_n = 1

        def gate(self, inp, out):
            return None

        def answer(self, inp, out):
            return out

    wl = Echo(seed=1)
    wl.expected = [[0.25, 0.75]]
    assert wl.check(0, None, [0.25, 0.75]) is None
    assert "op 0 answer" in wl.check(0, None, [0.25, 0.75 + 1e-4])
    assert wl.check(1, None, [9.0]) is None  # no stored answer for op 1


def test_metric_names_match_benchmark_json(workloads):
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
