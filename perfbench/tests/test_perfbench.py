"""Tests of the benchmark itself: input determinism, tracer arithmetic,
the checker's power to reject wrong outputs, and the result schema.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from modalkit import apps, modal  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# generator


def _write_all(seed: int, out: Path) -> None:
    for n in (10, 50):
        gen.write_joint(gen.full_joint(n, gen.rng_for(seed, "full", 0, n)), out / f"full{n}.tsv", "tsv")
        gen.write_joint(gen.rank_joint(n, gen.rng_for(seed, "rank", 0, n)), out / f"rank{n}.json", "json")
        gen.write_gauss(gen.gauss_model(n, gen.rng_for(seed, "gauss", 0, n)), out / f"gauss{n}.json")


def test_same_seed_gives_identical_files(tmp_path):
    a, b, c = (tmp_path / d for d in "abc")
    for d in (a, b, c):
        d.mkdir()
    _write_all(7, a)
    _write_all(7, b)
    _write_all(8, c)
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()
        assert (a / name).read_bytes() != (c / name).read_bytes()


def test_oneshot_job_list_is_seeded(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = workloads.oneshot(3, 0, tmp_path / "a")
    second = workloads.oneshot(3, 0, tmp_path / "b")
    assert len(first) >= 100
    assert [j.label for j in first] == [j.label for j in second]
    for p in (tmp_path / "a").iterdir():
        assert p.read_bytes() == (tmp_path / "b" / p.name).read_bytes()


@pytest.mark.parametrize("n", [10, 50, 200])
def test_full_joints_are_full_rank_and_common_info_valid(n):
    table = gen.full_joint(n, gen.rng_for(5, "full", 0, n))
    s, u, v, px, py = checker.spectrum(table)
    assert np.all(table > 0) and abs(table.sum() - 1.0) < 1e-12
    assert s[n - 2] > 1e-6 * s[0]  # every one of the n - 1 modes is present
    f = v[:, : n - 1] / np.sqrt(px)[:, None]
    g = u[:, : n - 1] / np.sqrt(py)[:, None]
    worst = max(np.abs(f).max(), np.abs(g).max())
    assert np.sqrt(s[: n - 1].sum()) * worst <= gen.COMMON_INFO_MARGIN + 1e-9


def test_rank_joints_have_rank_two():
    table = gen.rank_joint(50, gen.rng_for(5, "rank", 0, 50))
    s = checker.spectrum(table)[0]
    assert np.all(table > 0)
    assert s[1] > 1e-3 and s[2] < 1e-12


def test_gauss_models_are_positive_definite():
    model = gen.gauss_model(50, gen.rng_for(5, "gauss", 0, 50))
    cx, cy, cxy = (np.asarray(model[k]) for k in ("cov_x", "cov_y", "cov_xy"))
    stacked = np.block([[cx, cxy], [cxy.T, cy]])
    assert np.array_equal(cx, cx.T) and np.array_equal(cy, cy.T)
    assert np.linalg.eigvalsh(stacked).min() > 0


# ---------------------------------------------------------------------------
# tracer


def _span(name, start, end, parent):
    return tracer.Span(name, start, end, parent, 0)


def test_self_time_subtracts_direct_children():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
        _span("root", 11.0, 12.0, -1),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])
    report = tracer.consistency(spans, start=-0.5, end=12.5)
    assert report["ok"]
    assert report["unattributed_s"] == pytest.approx(0.5 + 1.0 + 0.5)


def test_consistency_flags_overlapping_children():
    spans = [_span("root", 0.0, 10.0, -1), _span("a", 1.0, 6.0, 0), _span("b", 5.0, 9.0, 0)]
    assert not tracer.consistency(spans, 0.0, 10.0)["ok"]


def test_install_wraps_every_binding_and_uninstall_restores(path10):
    original = modal.decompose
    tr = tracer.Tracer()
    assert tr.install() == []
    try:
        assert apps.decompose is modal.decompose is not original
        code, out, _ = workloads.run_cli(["decompose", "--input", path10, "--k", "2"])
        assert code == 0
    finally:
        tr.uninstall()
    assert apps.decompose is modal.decompose is original
    names = [s.name for s in tr.spans]
    assert names.count("cli") == 1 and names.count("linalg.svd") == 1
    assert tr.counts["linalg.svd_cells"] == 100
    assert tr.counts["probability.ingest_rows"] == 100


# ---------------------------------------------------------------------------
# checker


@pytest.fixture(scope="module")
def joint10():
    return gen.full_joint(10, gen.rng_for(2, "full", 0, 0))


@pytest.fixture(scope="module")
def path10(joint10, tmp_path_factory):
    path = tmp_path_factory.mktemp("inputs") / "joint10.tsv"
    gen.write_joint(joint10, path, "tsv")
    return str(path)


def _cli_json(argv):
    code, out, err = workloads.run_cli(argv)
    assert code == 0, err
    return json.loads(out)


def test_checker_rejects_perturbed_sigma(joint10, path10):
    out = _cli_json(["decompose", "--input", path10, "--k", "3"])
    assert checker.check_modes(out, joint10, 3) is None
    out["sigmas"][1] += 1e-6
    assert "sigmas" in checker.check_modes(out, joint10, 3)


def test_checker_rejects_flipped_feature(joint10, path10):
    out = _cli_json(["decompose", "--input", path10, "--k", "3"])
    for sym in out["g"]:
        out["g"][sym][0] *= -1.0
    assert checker.check_modes(out, joint10, 3) is not None


def test_checker_rejects_swapped_ranking(joint10, path10):
    out = _cli_json(["recommend", "--input", path10, "--k", "3", "--user", "x4", "--top", "5"])
    assert checker.check_recommend(out, joint10, 3, 4, "match", 5) is None
    items = out["items"]
    items[0]["item"], items[1]["item"] = items[1]["item"], items[0]["item"]
    assert checker.check_recommend(out, joint10, 3, 4, "match", 5) is not None


def test_checker_rejects_wrong_common_information(joint10, path10):
    out = _cli_json(["common-info", "--input", path10])
    assert checker.check_common_info(out, joint10) is None
    out["value"] *= 1.0 + 1e-6
    assert checker.check_common_info(out, joint10) is not None


def test_checker_rejects_wrong_exceed_count(joint10, path10):
    from modalkit.experiments import derive_seed

    stats = checker.tail_statistics(joint10, "feature", 2, 200, 0, 40, 9, derive_seed)
    delta = float(np.median(stats))  # splits the trials, so a count can move either way
    argv = ["sample-complexity", "--input", path10, "--k", "2", "--experiment", "feature",
            "--n-grid", "200", "--delta-grid", repr(delta), "--trials", "40", "--seed", "9"]
    out = _cli_json(argv)
    args = (joint10, "feature", 2, (200,), (delta,), 40, 9, derive_seed)
    assert checker.check_tail(out, *args) is None
    cell = out["cells"][0]
    assert 0 < cell["exceed_count"] < 40
    cell["exceed_count"] += 1
    cell["frequency"] = cell["exceed_count"] / 40
    assert "exceed_count" in checker.check_tail(out, *args)


def test_checker_rejects_unconverged_ace(joint10, path10):
    out = _cli_json(["ace", "--input", path10, "--k", "3", "--tol", workloads.ACE_TOL])
    assert checker.check_ace_trace(out) is None and checker.check_modes(out, joint10, 3, ace=True) is None
    out["trace"]["converged"] = False
    assert checker.check_ace_trace(out) is not None


def test_checker_rejects_wrong_cca(tmp_path):
    model = gen.gauss_model(10, gen.rng_for(2, "gauss", 0, 0))
    arrays = {k: np.asarray(model[k]) for k in ("cov_x", "cov_y", "cov_xy")}
    path = tmp_path / "g.json"
    gen.write_gauss(model, path)
    out = _cli_json(["cca", "--input", str(path), "--k", "3"])
    assert checker.check_cca(out, arrays, 3) is None
    out["F"][0][0] += 1e-5
    assert checker.check_cca(out, arrays, 3) is not None
    reg = _cli_json(["gauss-regress", "--input", str(path), "--k", "3"])
    assert checker.check_gauss_regress(reg, arrays, 3) is None
    reg["predictor_mmse"][2][1] += 1e-5
    assert checker.check_gauss_regress(reg, arrays, 3) is not None


# ---------------------------------------------------------------------------
# result schema


def test_end_to_end_metrics_match_benchmark_json():
    metrics = run.end_to_end_metrics(
        setup_s=1.0, walls=[2.0, 3.0], lats=[0.001 * i for i in range(1, 101)], peak_rss_mb=50.0
    )
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == spec
    assert metrics["job_p50_ms"][0] == pytest.approx(50.5)
    assert metrics["job_p90_ms"][0] == pytest.approx(90.1)
    assert "setup_s" in spec and all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_speed_scaling_cancels_the_host_speed():
    ref = speed.REFERENCE_S
    assert speed.scale(0.2, ref, ref) == pytest.approx(0.2)
    # a host twice as slow doubles both the job and the probes around it
    assert speed.scale(0.4, 2 * ref, 2 * ref) == pytest.approx(0.2)
    assert speed.scale(0.3, ref, 2 * ref) == pytest.approx(0.2)
    assert speed.probe() > 0


def test_scaled_pass_scales_each_job_by_its_own_probes():
    probes = iter([1.0, 2.0, 4.0])

    class Host:  # speed.py with a scripted probe
        probe = staticmethod(lambda: next(probes))
        scale = staticmethod(speed.scale)

    jobs = [workloads.Job("a", lambda: "x", lambda r: None), workloads.Job("b", lambda: "y", lambda r: None)]
    scaled, raw, results = run.run_scaled_pass(jobs, Host)
    assert results == ["x", "y"]
    assert len(scaled) == len(raw) == 2
    ref = speed.REFERENCE_S
    assert scaled[0] == pytest.approx(raw[0] * ref / 1.5)
    assert scaled[1] == pytest.approx(raw[1] * ref / 3.0)


def test_per_layer_metrics_match_benchmark_json():
    metrics = tracer.layer_metrics(tracer.Tracer(), 1, {"trials": 0, "emit_bytes": 0, "trace_overhead_frac": 0.0})
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: tracer.unit_of(name) for name in metrics} == spec


def test_every_workload_is_listed():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
