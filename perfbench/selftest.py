"""Tests of the benchmark's own machinery, at small scales.

The file name is outside pytest's default ``test_*.py`` pattern, so the
repo's test suite does not collect it; run it from the repo root with::

    PYTHONPATH=src python -m pytest -q perfbench/selftest.py

The exact counts (``edgeio.bytes_decoded``, ``edgeio.decode_amplification``,
``backends.k3_flops``, ``artifacts.misses``, ``service.requeued``) are
asserted to repeat exactly from run to run, so a later change can cite
them as counts.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench.procs import descendants, parent_map, tree_hwm_kib
from perfbench.tracing import Span, Tracer, instrument, self_times
from perfbench import workloads

REPO = Path(__file__).resolve().parent.parent
SELF_TIME_LAYERS = (
    "generators.busy_s", "edgeio.encode_s", "edgeio.decode_s",
    "edgeio.file_io_s", "sort.busy_s", "backends.k2_build_s",
    "backends.k3_iterate_s", "contracts.k0_s", "contracts.k1_s",
    "contracts.k2_s", "contracts.k3_s", "executor.other_s",
)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, "root", None, 1, 0.0, 10.0),
        Span(1, "a", 0, 1, 1.0, 3.0),
        Span(2, "b", 1, 1, 1.5, 2.0),
        # Two overlapping children from pool threads cover [4, 7].
        Span(3, "c", 0, 2, 4.0, 6.0),
        Span(4, "c", 0, 3, 5.0, 7.0),
    ]
    selfs = self_times(spans, 0)
    assert selfs["root"] == pytest.approx(10.0 - 2.0 - 3.0)
    assert selfs["a"] == pytest.approx(1.5)
    assert selfs["b"] == pytest.approx(0.5)
    assert selfs["c"] == pytest.approx(4.0)


def test_instrument_restores_every_original():
    from perfbench.tracing import LAYER_TARGETS, _resolve

    before = [_resolve(t).__dict__[a] for t, a, _, _ in LAYER_TARGETS]
    with instrument(Tracer()):
        during = [_resolve(t).__dict__[a] for t, a, _, _ in LAYER_TARGETS]
    after = [_resolve(t).__dict__[a] for t, a, _, _ in LAYER_TARGETS]
    assert after == before
    assert all(d is not b for d, b in zip(during, before))


@pytest.fixture(scope="module")
def traced_runs():
    from repro.api.spec import RunSpec

    spec = RunSpec(scale=10, cache_policy="off")
    tracer = Tracer()
    with instrument(tracer):
        return [workloads.measure_pipelines(spec, 0.0, tracer)[0]
                for _ in range(2)]


def test_pipeline_counts_repeat_exactly(traced_runs):
    first, second = (run.layers for run in traced_runs)
    for name in ("edgeio.bytes_encoded", "edgeio.bytes_decoded",
                 "edgeio.decode_amplification", "backends.k3_flops",
                 "backends.k3_bytes_computed"):
        assert first[name] == second[name] > 0, name
    # K1 reads K0, K2 reads K1, and the K1 contract re-reads K1.
    assert first["edgeio.decode_amplification"] == 1.5


def test_serial_self_times_add_up_to_the_traced_wall(traced_runs):
    for run in traced_runs:
        total = sum(run.layers[name] for name in SELF_TIME_LAYERS)
        assert total == pytest.approx(run.layers["tracing.pipeline_s"],
                                      abs=1e-6)


def test_service_counts_repeat_exactly(tmp_path):
    entry = {
        "job": {"scale": 8, "spec_version": 5}, "clients": 2, "workers": 2,
        "graph_seed_stride": 1000, "dampings": [0.8, 0.81, 0.82],
    }
    specs = workloads._service_specs(entry, seed=3)
    service = workloads._start_service(entry, tmp_path, "test")
    try:
        rounds = []
        for _ in range(2):
            jobs, _ = workloads.closed_loop(service, specs, 0.0,
                                            tmp_path / "cache")
            assert len(jobs) == 6 and all(j.error is None for j in jobs)
            rounds.append(workloads._service_layers(service, jobs, 6))
    finally:
        service.close()
    first, second = rounds
    assert first["artifacts.misses"] == second["artifacts.misses"] == 6
    assert first["artifacts.hit_ratio.k1"] == pytest.approx(2 / 3)
    assert first["service.requeued"] == second["service.requeued"] == 0


def test_tree_includes_forkserver_grandchildren():
    ctx = multiprocessing.get_context("forkserver")
    child = ctx.Process(target=time.sleep, args=(30,))
    child.start()
    try:
        parents = parent_map()
        tree = descendants(os.getpid(), parents)
        assert child.pid in tree
        assert os.getppid() not in tree
        assert tree_hwm_kib(os.getpid(), parents) > 0
    finally:
        child.terminate()
        child.join(timeout=10)
    assert not child.is_alive()


def _checkout(tmp_path: Path, with_src: bool) -> Path:
    root = tmp_path / "checkout"
    root.mkdir()
    shutil.copy(REPO / "BENCHMARK.json", root)
    shutil.copytree(REPO / "perfbench", root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        (root / "src").symlink_to(REPO / "src")
    return root


def _small_checkout(tmp_path: Path, workload: str,
                    recorded: str = "0" * 64) -> Path:
    """A checkout whose ``workload`` runs at scale 8, with ``recorded``
    as its default-seed reference digest."""
    root = _checkout(tmp_path, with_src=True)
    path = root / "perfbench" / "workloads.json"
    record = json.loads(path.read_text())
    entry = record["workloads"][workload]
    entry["spec"]["scale"] = 8
    entry["reference_rank_sha256"] = recorded
    path.write_text(json.dumps(record))
    return root


_RUN_ARGS = ["--seconds", "0.1", "--trace", "0"]


def _run(root: Path, workload: str, *extra: str,
         prelude: str = "") -> subprocess.CompletedProcess:
    """Run the benchmark in ``root``; ``prelude`` is Python executed
    first, in the same interpreter."""
    argv = ["--workload", workload, *_RUN_ARGS, *extra]
    return subprocess.run(
        [sys.executable, "-c",
         f"{prelude}\nimport sys\nfrom perfbench import run\n"
         f"sys.exit(run.main({argv!r}))"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_refuses_a_checkout_without_the_program(tmp_path):
    proc = _run(_checkout(tmp_path, with_src=False), "tsv-serial-s16")
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_wrong_recorded_digest_exits_non_zero(tmp_path):
    root = _small_checkout(tmp_path, "tsv-serial-s16")
    proc = _run(root, "tsv-serial-s16")
    assert proc.returncode == 1
    assert _result(proc)["correct"] is False


def test_run_digest_differing_from_the_reference_fails_the_run(tmp_path):
    # A seed other than the recorded one is checked only against the
    # computed reference, which is made to disagree with every run.
    root = _small_checkout(tmp_path, "tsv-serial-s16")
    proc = _run(root, "tsv-serial-s16", "--seed", "7", prelude=(
        "from perfbench import workloads\n"
        "workloads.reference_digest = lambda spec: 'f' * 64"))
    assert proc.returncode == 1
    result = _result(proc)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["ok_ratio"]["value"] < 1
    assert "rank digest" in proc.stdout


def test_process_lanes_run_in_a_deep_checkout(tmp_path):
    # The lane pool's forkserver binds an AF_UNIX socket in the run's
    # scratch directory; its path must not grow with checkout depth.
    deep = tmp_path.joinpath(*["nested-directory"] * 6)
    deep.mkdir(parents=True)
    root = _small_checkout(deep, "tsv-async-lanes-s16")
    assert len(str(root)) > 108
    proc = _run(root, "tsv-async-lanes-s16", "--seed", "7")
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert result["correct"] is True and result["failed"] == 0
    assert not any((root / ".perfbench" / "tmp").iterdir())
