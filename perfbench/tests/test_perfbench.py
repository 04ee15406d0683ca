"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import oracle as O     # noqa: E402
import run as R        # noqa: E402
import tracer as T     # noqa: E402
import workloads as W  # noqa: E402


@pytest.fixture
def workdir():
    os.makedirs(R.OUT, exist_ok=True)
    path = tempfile.mkdtemp(prefix="test-", dir=R.OUT)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _jobs(workload, seed, workdir):
    mods = R.import_simphom()
    return mods, W.build(workload, seed, W.Inputs(mods, workdir))


def test_oracle_group_arithmetic():
    rp2, torus = O.FACTORS["rp2"].homology, O.FACTORS["torus"].homology
    assert [str(g) for g in O.kunneth(rp2, rp2)] == ["Z", "Z/2 + Z/2", "Z/2", "Z/2", "0"]
    assert [str(g) for g in O.kunneth(rp2, torus)] == ["Z", "Z^2 + Z/2", "Z + Z/2 + Z/2", "Z/2", "0"]
    assert [str(g) for g in O.cohomology(rp2, O.Z)] == ["Z", "0", "Z/2"]
    assert str(O.group(0, [2, 3, 4])) == "Z/2 + Z/12"
    assert O.product_counts((6, 15, 10), (6, 15, 10)) == (36, 405, 1270, 1500, 600)
    assert str(O.abelianization("<a, b | a b a^-1 b^-1>")) == "Z^2"


def test_oracle_reads_documents_independently(workdir):
    mods, _ = _jobs("combinatorial", 1, workdir)
    inp = W.Inputs(mods, workdir)
    for name in ["rp2", "klein", "circle*rp2", "sphere:2*rp2"]:
        doc = inp.doc(name)
        assert doc.counts == O.space(name).counts
        assert doc.identity_violations() == []
    broken = inp.doc("rp2")
    broken.gens[2][0][0] = (broken.gens[2][0][1][0], ())
    assert broken.identity_violations()


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_seed_fixes_inputs_and_varies_them(workload, workdir):
    def argvs(seed):
        _, jobs = _jobs(workload, seed, workdir)
        return [[os.path.basename(a) for a in j.argv] for j in jobs]

    assert argvs(3) == argvs(3)
    assert any(argvs(s) != argvs(3) for s in (4, 5, 6))


def test_failures_are_counted_and_the_run_goes_on(workdir):
    mods, jobs = _jobs("combinatorial", 1, workdir)
    n = len(jobs)
    jobs[0].check = W.expect(["simphom nonsense"], 0)                  # corrupted expectation
    jobs.append(W.Job("fill raises", ["fill", "--space", "delta:2", "--dim", "2", "--k", "1",
                                      "--faces", "[1,2]"], W.expect([], 0), 5.0, {"counts": [3]}))
    jobs.append(W.Job("over budget", ["homology", "--space", "delta:6"],
                      W.expect([], 0), 1e-4, {"counts": [127]}))
    results = []
    speed = R.SpeedProbe()
    R.run_pass(mods, jobs, None, speed, results)
    for r in results:
        speed.scale(r)
    failed = {r["job"]: r["problems"] for r in results if not r["ok"]}
    assert len(results) == n + 2
    assert set(failed) == {jobs[0].name, "fill raises", "over budget"}
    assert "raised TypeError" in failed["fill raises"][0]
    assert "budget" in failed["over budget"][0]
    values, notes = R.e2e_metrics(results, [dict(results[0])], len(results))
    assert values["ok_frac"] == pytest.approx((n - 1) / (n + 2))
    assert any(note.startswith("failed_frac") and "(3 of" in note for note in notes)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_traced_stdout_is_byte_identical(workload, workdir):
    mods, jobs = _jobs(workload, 2, workdir)
    cli = mods["cli"]
    original_run = cli.run
    untraced = [cli.run(j.argv) for j in jobs]
    tr = T.Tracer()
    tr.install()
    try:
        assert cli.run is not original_run
        traced = [cli.run(j.argv) for j in jobs]
    finally:
        tr.uninstall()
    assert cli.run is original_run
    assert mods["homology"].smith_normal_form is mods["snf"].smith_normal_form
    assert traced == untraced
    assert all(not job.check(lines, status) for job, (lines, status) in zip(jobs, traced))
    totals = tr.layer_totals()
    assert totals["cli"]["calls"] >= len(jobs)
    assert all(rec[T.END] >= rec[T.START] for rec in tr.spans)


def test_tracer_reaches_rebound_names(workdir):
    mods, _ = _jobs("combinatorial", 1, workdir)
    tr = T.Tracer()
    tr.install()
    try:
        for mod in ("homology", "pi1", "snf"):
            assert hasattr(getattr(mods[mod], "smith_normal_form"), "__wrapped__")
        assert hasattr(mods["operators"].Subquotient.reduce, "__wrapped__")
        assert hasattr(mods["cli"].COMMANDS["homology"], "__wrapped__")
    finally:
        tr.uninstall()
    assert not hasattr(mods["pi1"].smith_normal_form, "__wrapped__")


def test_refuses_to_run_without_the_library():
    os.makedirs(R.OUT, exist_ok=True)
    root = tempfile.mkdtemp(prefix="bare-", dir=R.OUT)
    try:
        shutil.copytree(BENCH, os.path.join(root, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), root)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "combinatorial",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=root, capture_output=True, text=True, timeout=120)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_result_line_has_the_contract_keys(capsys, monkeypatch):
    monkeypatch.setitem(R.MIN_PASSES, "combinatorial", 1)
    assert R.main(["--workload", "combinatorial", "--seed", "7", "--seconds", "0.5",
                   "--trace", "0"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert R.main(["--workload", "combinatorial", "--seed", "7", "--seconds", "0.5",
                   "--trace", "1"]) == 0
    traced = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}
