"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The two tests that run the program take about ten seconds together.
"""

import json
import shutil

import numpy as np
import pytest

import run
import tracing
import workloads

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


def test_seed_zero_is_the_fixed_table():
    assert workloads.cli_args("quench-sweep", 0) == [
        "sweep", "--n", "400", "--alphas", "0.2,0.4",
        "--lambdas", "0,0.5,1,1.5,2", "--workers", "2"]
    assert workloads.cli_args("dense-trace", 0) == [
        "otoc", "--n", "400", "--alpha", "0.4", "--lambda", "1.0",
        "--tmax", "2000", "--dt", "0.05", "--plot"]


@pytest.mark.parametrize("seed", range(1, 31))
def test_other_seeds_keep_the_cost(seed):
    opt = workloads.option
    for workload in workloads.WORKLOADS:
        argv, base = workloads.cli_args(workload, seed), workloads.cli_args(workload, 0)
        assert argv == workloads.cli_args(workload, seed) and argv != base
        assert argv[0] == base[0] and opt(argv, "n") == opt(base, "n")

    sweep = workloads.cli_args("quench-sweep", seed)
    alphas = [float(a) for a in opt(sweep, "alphas").split(",")]
    lambdas = [float(v) for v in opt(sweep, "lambdas").split(",")]
    assert len(set(alphas)) == 2 and all(0.1 <= a <= 0.7 for a in alphas)
    assert len(set(lambdas)) == 5 and lambdas[0] == 0.0
    assert all(0.0 < v <= 2.0 for v in lambdas[1:])
    assert opt(sweep, "workers") == "2"
    assert "--tavg" not in sweep and "--dt" not in sweep

    trace = workloads.cli_args("dense-trace", seed)
    assert 0.1 <= float(opt(trace, "alpha")) <= 0.7
    assert 0.0 < float(opt(trace, "lambda")) <= 2.0
    assert (opt(trace, "tmax"), opt(trace, "dt")) == ("2000", "0.05")


def _reference_sweep_outputs(out, ref):
    """An output directory as the seed-0 sweep writes it, from the reference."""
    argv = workloads.cli_args("quench-sweep", 0)
    alphas = [float(a) for a in workloads.option(argv, "alphas").split(",")]
    lambdas = [float(v) for v in workloads.option(argv, "lambdas").split(",")]
    out.mkdir()
    rows = [f"{a!r},{lam!r},{raw!r},{norm!r},1e-05,{(4 - 5 * a) / 2!r}"
            for (a, lam), raw, norm in zip(((a, lam) for a in alphas for lam in lambdas),
                                           ref["fbar_raw"].tolist(), ref["fbar_norm"].tolist())]
    (out / "sweep.csv").write_text(
        "# units: ...\nalpha,lambda,fbar_raw,fbar_norm,halfwidth,lambda_c\n"
        + "\n".join(rows) + "\n")
    (out / "cells.jsonl").write_text("{}\n" * len(rows))
    for name in ("heatmap.dat", "manifest.json"):
        (out / name).write_text("\n")
    return argv


def test_tampered_reference_fails_the_check(tmp_path):
    with np.load(workloads.reference_path(run.REFERENCE_DIR, "quench-sweep")) as ref:
        columns = dict(ref)
    argv = _reference_sweep_outputs(tmp_path / "out", columns)
    assert workloads.check_outputs("quench-sweep", argv, tmp_path / "out", run.REFERENCE_DIR).problems == []

    columns["fbar_raw"][3] += 2 * workloads.ABS_TOL
    (tmp_path / "ref").mkdir()
    np.savez(workloads.reference_path(tmp_path / "ref", "quench-sweep"), **columns)
    check = workloads.check_outputs("quench-sweep", argv, tmp_path / "out", tmp_path / "ref")
    assert [p for p in check.problems if "fbar_raw vs reference" in p]
    assert check.max_abs_dev == pytest.approx(2 * workloads.ABS_TOL)


def test_tampered_reference_counts_in_failed_frac(tmp_path, monkeypatch, capsys):
    ref_dir = tmp_path / "ref"
    shutil.copytree(run.REFERENCE_DIR, ref_dir)
    path = workloads.reference_path(ref_dir, "dense-trace")
    with np.load(path) as ref:
        columns = dict(ref)
    columns["re_f"][12345] += 2 * workloads.ABS_TOL
    np.savez(path, **columns)
    monkeypatch.setattr(run, "REFERENCE_DIR", ref_dir)
    monkeypatch.setattr(run, "TMP_ROOT", tmp_path / "runs")

    code = run.main(["--workload", "dense-trace", "--seed", "0", "--seconds", "1", "--trace", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
    assert "failed_frac [1]: 1  (1 of 1 runs)" in lines
    assert set(result["metrics"]) == {m["name"] for m in json.loads(BENCHMARK_JSON.read_text())["end_to_end"]}
    assert not (tmp_path / "runs").exists()


def test_result_carries_fast_quartile_of_times_and_median_of_the_rest():
    five = [10.0, 4.0, 9.0, 5.0, 6.0]
    metrics = run.report({name: five for name in run.END_TO_END}, run.END_TO_END)
    assert {name: m["value"] for name, m in metrics.items()} == {
        "wall_s": 5.0, "work_per_s": 9.0, "setup_s": 6.0, "peak_rss_mb": 6.0}


def _span(span_id, parent, layer, name, start, end, thread, **attrs):
    return {"id": span_id, "parent": parent, "layer": layer, "name": name,
            "start": start, "end": end, "thread": thread, "run": "r", **attrs}


# cli.main on thread A runs a two-worker sweep (threads B and C), then writes.
SPAN_TREE = [
    _span(1, None, "cli", "main", 0.0, 10.0, "A"),
    _span(2, 1, "analysis", "quench_sweep", 1.0, 9.0, "A"),
    _span(3, 2, "analysis", "quench_fbar", 1.0, 5.0, "B"),
    _span(4, 3, "otoc", "quench_otoc", 1.5, 4.5, "B", dim=401, samples=20001),
    _span(5, 4, "eigensolver", "eigh", 1.5, 2.0, "B"),
    _span(6, 2, "analysis", "quench_fbar", 2.0, 8.0, "C"),
    _span(7, 6, "otoc", "quench_otoc", 2.5, 7.5, "C", dim=401, samples=20001),
    _span(8, 1, "output", "write_csv", 9.0, 9.5, "A", bytes=100),
]


def test_self_times_on_two_worker_threads():
    own = tracing.self_times(SPAN_TREE)
    assert own == pytest.approx({1: 1.5, 2: 1.0, 3: 1.0, 4: 2.5, 5: 0.5,
                                 6: 1.0, 7: 5.0, 8: 0.5})
    # Busy time per thread: A 3 (the sweep's wait on B and C excluded), B 4, C 6.
    assert sum(own.values()) == pytest.approx(13.0)


def test_layer_metrics_on_two_worker_threads():
    m = tracing.layer_metrics(SPAN_TREE, workers=2, dgemm_gflops=50.0)
    flops = 2 * (12 * 401 ** 2 * 20001 + 2 * 401 ** 3)
    assert m == pytest.approx({
        "model.build_calls": 0, "model.build_s": 0.0,
        "eigensolver.eigh_calls": 1, "eigensolver.eigh_s": 0.5,
        "otoc.self_s": 7.5, "otoc.samples": 40002,
        "otoc.nominal_gflops": flops / 7.5 / 1e9,
        "otoc.gemm_efficiency": flops / 7.5 / 1e9 / 50.0,
        "otoc.average_s": 0.0,
        "analysis.self_s": 3.0, "analysis.cell_s_p50": 5.0,
        "analysis.cell_s_p90": 5.8, "analysis.parallel_efficiency": 10.0 / 16.0,
        "output.write_s": 0.5, "output.bytes": 100, "output.files": 1,
        "cli.self_s": 1.5,
    })


def test_metric_names_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert set(run.end_to_end_samples("dense-trace", [])) == set(run.END_TO_END)
    layer_names = set(tracing.layer_metrics(SPAN_TREE, 2, 50.0))
    assert layer_names | {"host.dgemm_gflops", "trace.overhead_frac", "check.max_abs_dev"} == set(run.PER_LAYER)
    records = [{"traced": True, "wall_s": 1.0, "max_abs_dev": 0.0,
                "layers": tracing.layer_metrics(SPAN_TREE, 2, 50.0)},
               {"traced": False, "wall_s": 1.0, "max_abs_dev": 0.0}]
    assert set(run.report(run.per_layer_samples(records, 50.0), run.PER_LAYER)) == set(run.PER_LAYER)


def test_traced_child_wraps_every_binding_and_crosses_threads(tmp_path):
    argv = ["sweep", "--n", "16", "--alphas", "0.4", "--lambdas", "0,1",
            "--tavg", "20", "--workers", "2"]
    proc = run.run_child(argv, tmp_path / "out", tmp_path / "result.json", trace=True)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads((tmp_path / "result.json").read_text())["spans"]
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    # the sweep's cells call eigh through otoc's own binding of it
    assert len(by_name["eigh"]) == 4 and len(by_name["quench_otoc"]) == 2
    sweep = by_name["quench_sweep"][0]
    assert sweep["parent"] == by_name["main"][0]["id"]
    assert all(s["parent"] == sweep["id"] for s in by_name["quench_fbar"])
    assert any(s["thread"] != sweep["thread"] for s in by_name["quench_fbar"])
    assert {s["run"] for s in spans} == {str(tmp_path / "result.json")}

    plain = run.run_child(argv, tmp_path / "plain", tmp_path / "plain.json", trace=False)
    assert plain.returncode == 0, plain.stderr
    assert "spans" not in json.loads((tmp_path / "plain.json").read_text())
