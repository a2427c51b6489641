"""Self-tests of the tracing arithmetic. Run: python3 -m pytest perfbench"""

import json
import os
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import spans  # noqa: E402


def span(id, name, parent, start, end, thread=1):
    return spans.Span(id, name, parent, thread, "t", start, end)


def test_self_time_subtracts_nested_children():
    tree = [span(1, "stage.sr", None, 0.0, 10.0),
            span(2, "sr.super_resolve", 1, 1.0, 4.0),
            span(3, "raster.gaussian_blur", 2, 1.5, 2.5),
            span(4, "reproject.reproject", 1, 5.0, 9.0)]
    own = spans.self_times(tree)
    assert own[1] == pytest.approx(10.0 - 3.0 - 4.0)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(4.0)


def test_self_time_of_stage_counts_overlapping_pool_spans_once():
    # two pool threads run under one stage span and overlap in [2, 4]
    tree = [span(1, "stage.quality", None, 0.0, 10.0),
            span(2, "quality.ssim", 1, 1.0, 4.0, thread=2),
            span(3, "quality.ssim", 1, 2.0, 6.0, thread=3)]
    own = spans.self_times(tree)
    assert own[1] == pytest.approx(10.0 - 5.0)
    assert own[2] == pytest.approx(3.0) and own[3] == pytest.approx(4.0)


def test_child_outside_parent_interval_is_clipped():
    assert spans.covered([(-1.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(2.0)
    assert spans.covered([], 0.0, 10.0) == 0.0


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert spans.tail([]) == (0.0, 0.0)
    assert spans.tail(list(range(1, 20))) == (100.0, 19)      # 19 samples: the max
    assert spans.tail(list(range(1, 21))) == (50.0, 10)       # rank 10, 10 beyond
    assert spans.tail(list(range(1, 41))) == (75.0, 30)       # rank 30, 10 beyond
    assert spans.tail(list(range(1, 101))) == (90.0, 90)      # rank 90, 10 beyond
    assert spans.tail(list(range(1, 1001))) == (99.0, 990)    # rank 990, 10 beyond
    assert spans.tail(list(range(1, 10001))) == (99.9, 9990)


def test_wrapped_calls_on_pool_threads_attach_to_the_stage_span():
    mod = types.ModuleType("irissr.fake")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    tracer = spans.Tracer("t")
    tracer.wrap(mod, "inner")
    tracer.wrap(mod, "outer")
    with tracer.stage("sr") as stage:
        with ThreadPoolExecutor(max_workers=2) as ex:
            assert list(ex.map(mod.outer, range(4))) == [2, 4, 6, 8]
    tracer.unwrap_all()
    assert mod.outer(1) == 4 and len(tracer.spans) == 9

    by_id = {sp.id: sp for sp in tracer.spans}
    outers = [sp for sp in tracer.spans if sp.name == "fake.outer"]
    inners = [sp for sp in tracer.spans if sp.name == "fake.inner"]
    assert all(sp.parent == stage.id for sp in outers)
    assert all(by_id[sp.parent].name == "fake.outer" for sp in inners)
    assert all(by_id[sp.parent].thread == sp.thread for sp in inners)
    assert {sp.thread for sp in outers} != {threading.get_ident()}


def test_failed_call_is_recorded_and_reraised():
    mod = types.ModuleType("irissr.fake")

    def boom():
        raise RuntimeError("backend exited 1")

    mod.boom = boom
    tracer = spans.Tracer("t")
    tracer.wrap(mod, "boom")
    with pytest.raises(RuntimeError):
        mod.boom()
    tracer.unwrap_all()
    assert [sp.failed for sp in tracer.spans] == [True]


def test_benchmark_json_lists_every_per_layer_metric():
    reported = run.per_layer_metrics([], {}, 0.0)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                        "BENCHMARK.json")
    with open(path) as fh:
        listed = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    assert listed == {name: unit for name, (_value, unit) in reported.items()}
