"""Tests of the benchmark's own helpers: python -m pytest bench"""

import sys
import types

import numpy as np
import pytest

from run import compare_record
from stats import fingerprint, percentile, tail_percentile
from tracing import SpanSpec, Tracer, installed


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture()
def fake_module(monkeypatch):
    module = types.ModuleType("bench_fake_layer")
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module


def test_self_time_of_nested_calls(fake_module):
    clock = FakeClock()

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        fake_module.inner()
        fake_module.inner()
        clock.now += 3.0
        return "done"

    fake_module.inner, fake_module.outer = inner, outer
    tracer = Tracer(clock)
    specs = [SpanSpec("fake.outer", ("bench_fake_layer.outer",)),
             SpanSpec("fake.inner", ("bench_fake_layer.inner",))]
    with installed(tracer, specs) as absent:
        tracer.begin_unit(0)
        assert fake_module.outer() == "done"
        unit = tracer.end_unit()
    assert absent == []
    assert fake_module.outer is outer and fake_module.inner is inner
    assert (unit.spans["fake.outer"].calls, unit.spans["fake.outer"].total_s,
            unit.spans["fake.outer"].self_s) == (1, 8.0, 4.0)
    assert (unit.spans["fake.inner"].calls, unit.spans["fake.inner"].total_s,
            unit.spans["fake.inner"].self_s) == (2, 4.0, 4.0)
    assert unit.edges == {("fake.outer", "fake.inner"): 2}


def test_hook_counts_and_raising_calls(fake_module):
    fake_module.work = lambda items: items[:1]

    def hook(tracer, arguments, result):
        tracer.count("kept", len(result))
        tracer.count("seen", len(arguments["items"]))

    tracer = Tracer()
    specs = [SpanSpec("fake.work", ("bench_fake_layer.work",), hook)]
    with installed(tracer, specs):
        tracer.begin_unit(0)
        fake_module.work([1, 2, 3])
        with pytest.raises(TypeError):
            fake_module.work(None)
        tracer.end_unit()
    totals = tracer.totals()
    assert totals.counts == {"kept": 1, "seen": 3}
    assert totals.spans["fake.work"].calls == 2


def test_hook_error_is_recorded_not_raised(fake_module):
    fake_module.work = lambda items: items

    def hook(tracer, arguments, result):
        arguments["renamed"]

    tracer = Tracer()
    with installed(tracer, [SpanSpec("fake.work", ("bench_fake_layer.work",), hook)]):
        tracer.begin_unit(0)
        assert fake_module.work([1]) == [1]
        tracer.end_unit()
    assert tracer.hook_errors == {"fake.work": 1}


def test_absent_name_is_reported_not_raised(fake_module):
    fake_module.present = lambda: 1
    tracer = Tracer()
    specs = [SpanSpec("fake.gone", ("bench_fake_layer.gone", "bench_no_such_module.f")),
             SpanSpec("fake.present", ("bench_fake_layer.present",))]
    with installed(tracer, specs) as absent:
        tracer.begin_unit(0)
        fake_module.present()
        tracer.end_unit()
    assert absent == ["bench_fake_layer.gone", "bench_no_such_module.f"]
    assert tracer.totals().spans["fake.present"].calls == 1
    assert not hasattr(fake_module, "gone")


def test_calls_outside_a_unit_are_not_recorded(fake_module):
    fake_module.f = lambda: 1
    tracer = Tracer()
    with installed(tracer, [SpanSpec("fake.f", ("bench_fake_layer.f",))]):
        fake_module.f()
    assert tracer.units == []


def test_percentile_matches_numpy():
    rng = np.random.default_rng(0)
    values = list(rng.random(23))
    for p in (0.0, 25.0, 50.0, 90.0, 100.0):
        assert percentile(values, p) == pytest.approx(np.percentile(values, p), abs=1e-15)
    assert percentile([4.0, 1.0, 3.0, 2.0], 50.0) == 2.5
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(5) == 50.0
    assert tail_percentile(20) == 50.0
    assert tail_percentile(99) == 50.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10000) == 99.9


def test_fingerprint_is_stable_and_sensitive():
    config = np.arange(12, dtype=float).reshape(6, 2)
    first = fingerprint(config, -1.25)
    assert fingerprint(config.copy(), -1.25) == first
    assert fingerprint(config, float(np.nextafter(-1.25, 0.0))) != first
    assert fingerprint(config.astype(np.float32), -1.25) != first
    assert fingerprint(config.reshape(2, 6), -1.25) != first


def test_record_flags_a_count_that_differs(tmp_path):
    path = tmp_path / "record.json"
    assert compare_record(path, ["a", "b"], {"x.calls": 3}, "k") == []
    assert compare_record(path, ["a"], {"x.calls": 3}, "k") == []
    assert compare_record(path, ["a", "b", "c"], None, "k") == []
    flags = compare_record(path, ["a", "B"], {"x.calls": 4}, "k")
    assert len(flags) == 2
    assert "unit 1" in flags[0] and "x.calls" in flags[1]
    # a different traced unit list is stored separately, not compared
    assert compare_record(path, ["a"], {"x.calls": 9}, "other") == []
