"""Tests of the benchmark's own code.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import io
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from bmadmm import certify, problems  # noqa: E402
from bmadmm.errors import EigenEstimateError  # noqa: E402
from bmadmm.manifold import ManifoldSpec, random_point  # noqa: E402


def test_er_graph_has_m_distinct_edges_without_self_loops():
    for n, m, seed in ((12, 0, 0), (30, 60, 1), (200, workloads.g1_edges(200), 2), (6, 15, 3)):
        graph = workloads.er_graph(n, m, seed)
        pairs = [(i, j) for i, j, _ in graph.edges]
        assert len(pairs) == m
        assert len(set(pairs)) == m
        assert all(1 <= i < j <= n for i, j in pairs)
        assert all(w == 1.0 for _, _, w in graph.edges)
    with pytest.raises(ValueError):
        workloads.er_graph(5, 11, 0)


def test_g1_density_reproduces_g1():
    assert workloads.g1_edges(800) == 19_176


def test_generators_repeat_for_a_seed():
    assert workloads.er_graph(50, 100, 7).edges == workloads.er_graph(50, 100, 7).edges
    assert workloads.er_graph(50, 100, 7).edges != workloads.er_graph(50, 100, 8).edges
    a = workloads.sparse_gauss(30, 5, 0.2)
    b = workloads.sparse_gauss(30, 5, 0.2)
    assert np.array_equal(a.to_dense(), b.to_dense())


def test_input_files_repeat_for_a_seed_and_differ_across_seeds(tmp_path):
    for name in workloads.WORKLOADS:
        instances = workloads.WORKLOADS[name].tiny
        files = {}
        for label, seed in (("a", 3), ("b", 3), ("c", 4)):
            directory = tmp_path / f"{name}-{label}"
            directory.mkdir()
            inputs = bench.prepare(instances, seed, str(directory))
            files[label] = [(open(p, "rb").read(), s.tobytes()) for _, p, s in inputs]
        assert files["a"] == files["b"]
        assert files["a"] != files["c"]


def test_relabeling_keeps_the_spectrum():
    C = workloads.sparse_gauss(12, 1)
    perm = np.random.default_rng(0).permutation(4)
    P = workloads.relabel_matrix(C, perm, d=3)
    assert np.allclose(
        np.linalg.eigvalsh(C.to_dense()), np.linalg.eigvalsh(P.to_dense())
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_start_moves_with_the_relabeling(tmp_path, name):
    for index, instance in enumerate(workloads.WORKLOADS[name].tiny):
        path, start = workloads.write_input(
            instance, workloads.relabeling(3, index), str(tmp_path)
        )
        built, d = instance.build()
        cost = problems.maxcut_cost(built) if d is None else built
        d = d or 1
        if instance.start == "saddle":
            base = start
        else:
            spec = ManifoldSpec(q=cost.n // d, d=d, r=start.shape[1])
            base = random_point(spec, instance.start_seed)
        relabeled = workloads.load(path).cost
        value = np.vdot(cost.to_dense() @ base, base)
        assert np.vdot(relabeled.to_dense() @ start, start) == pytest.approx(value, rel=1e-12)


def test_self_time_on_a_synthetic_span_tree():
    # 0 [0, 10] -> 1 [1, 4] -> 3 [2, 3]
    #           -> 2 [5, 9]
    # 4 [11, 12] (a second root)
    parent = np.array([-1, 0, 0, 1, -1])
    start = np.array([0.0, 1.0, 5.0, 2.0, 11.0])
    end = np.array([10.0, 4.0, 9.0, 3.0, 12.0])
    own = spans.self_times(parent, end - start)
    assert np.allclose(own, [3.0, 2.0, 4.0, 1.0, 1.0])
    assert own.sum() == pytest.approx(11.0)
    flagged = spans.inside(parent, np.array([False, True, False, False, False]))
    assert flagged.tolist() == [False, False, False, True, False]
    flagged = spans.inside(parent, np.array([True, False, False, False, False]))
    assert flagged.tolist() == [False, True, True, True, False]


def test_tracer_records_nesting_and_failures_and_restores():
    module = type(sys)("fake")
    module.leaf = lambda x: x + 1

    def boom():
        raise RuntimeError("no")

    module.boom = boom
    tracer = spans.Tracer()
    with tracer.patched([(module, "leaf", "leaf", None), (module, "boom", "boom", None)]):
        with tracer.span("outer"):
            assert module.leaf(1) == 2
        with pytest.raises(RuntimeError):
            module.boom()
    assert module.boom is boom
    a = tracer.arrays()
    names = [tracer.names[c] for c in a["name"]]
    assert names == ["outer", "leaf", "boom"]
    assert a["parent"].tolist() == [-1, 0, -1]
    assert a["failed"].tolist() == [0, 0, 1]
    assert np.all(a["end"] >= a["start"])


def _run(tmp_path, name, trace, seed=0):
    args = bench.parse_args(
        ["--workload", name, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    )
    out = io.StringIO()
    result, report = bench.run(args, str(tmp_path), 1, tiny=True, out=out)
    assert json.loads(out.getvalue().splitlines()[-1]) == json.loads(json.dumps(result))
    return result, report


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run(tmp_path, name):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, report = _run(tmp_path, name, trace)
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] >= bench.MIN_PASSES
        assert report["reproducible"]
        expected = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for metric in result["metrics"].values():
            assert np.isfinite(metric["value"])
    ident = report["spmm_identity"]
    assert ident["spmm_identity_holds"] == ident["admm_ops"]
    if name in ("maxcut", "so3"):
        assert ident["admm_ops"] > 0


def test_two_untraced_runs_agree(tmp_path):
    _, first = _run(tmp_path / "a", "curvature_escape", 0, seed=5)
    _, second = _run(tmp_path / "b", "curvature_escape", 0, seed=5)
    assert bench.fingerprint(first["passes"][0]["records"]) == bench.fingerprint(
        second["passes"][0]["records"]
    )


def test_raised_errors_count_as_failed_operations(tmp_path, monkeypatch):
    def failing(*args, **kwargs):
        raise EigenEstimateError("no convergence", estimate=0.0, residual=1.0, iterations=1)

    monkeypatch.setattr(certify, "min_eig_estimate", failing)
    result, report = _run(tmp_path, "maxcut", 0)
    assert result["failed"] == result["attempted"]
    assert result["correct"] is True
    assert report["errors"] == ["EigenEstimateError"]
    assert report["fail_frac"] == 1.0


def test_speed_probe_samples_restores_and_leaves_results_alone(tmp_path):
    import signal

    import hostspeed

    instances = workloads.WORKLOADS["curvature_escape"].tiny
    inputs = bench.prepare(instances, 2, str(tmp_path))
    idle = hostspeed.SpeedProbe()
    plain = bench.run_pass(inputs, {}, idle)
    assert idle.samples == 0
    assert all(r["kernel_samples"] == 0 for r in plain)

    previous = signal.getsignal(signal.SIGALRM)
    probe = hostspeed.SpeedProbe(period=0.001)
    with probe:
        sampled = bench.run_pass(inputs, {}, probe)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.samples > 0
    assert sum(r["kernel_samples"] for r in sampled) == probe.samples
    assert sum(r["kernel_s"] for r in sampled) == pytest.approx(probe.busy)
    assert bench.fingerprint(sampled) == bench.fingerprint(plain)


def test_setup_repeats_keep_to_their_share(tmp_path):
    import time

    import hostspeed

    setup = bench.Setup(workloads.WORKLOADS["so3"].tiny, 1, str(tmp_path), hostspeed.SpeedProbe())
    setup.repeat()
    assert len(setup.scaled) == 1 and setup.scaled[0] > 0
    setup.times[-1] = 0.2  # a repeat that took 0.2 s waits 0.2 / SETUP_SHARE
    wait = 0.2 / bench.SETUP_SHARE
    setup.last = time.perf_counter() - (wait - 0.5)
    setup.between()
    assert len(setup.times) == 1
    setup.last = time.perf_counter() - wait
    setup.between()
    assert len(setup.times) == len(setup.scaled) == 2
    assert sorted(os.listdir(tmp_path)) == ["inputs0"]
