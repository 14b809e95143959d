"""Workloads: pinned RunSpec documents run through the public API.

``workloads.json`` beside this file is the workload record: each
workload's RunSpec document (with its ``spec_version``, so it replays
through the spec-migration hook after a later version retires a knob),
how ``--seed`` enters it, and the reference rank digests for the
default seed.  Two functions run them:

* :func:`run_pipeline_workload` — one client running full K0→K3
  pipelines back to back through :func:`repro.api.execute_spec`;
* :func:`run_service_workload` — a closed loop of clients, each
  waiting for its reply, against one :class:`BenchmarkService`.

Every measured operation's ``rank_sha256`` is compared with a
reference: the recorded digest for the default seed, else an untimed
serial scipy run of the same graph (computed for the default seed too,
which cross-checks the recording).
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from perfbench.procs import TreeRss
from perfbench.tracing import Tracer, instrument, self_times

RECORD_PATH = Path(__file__).with_name("workloads.json")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Bytes per CSR column index (scipy keeps int32 indices below 2**31).
_INDEX_BYTES = 4

#: A job that takes longer than this is counted as failed.
JOB_TIMEOUT_S = 120.0

KERNELS = ("k0-generate", "k1-sort", "k2-filter", "k3-pagerank")
_KERNEL_METRIC = dict(zip(KERNELS, ("k0_meps", "k1_meps", "k2_meps",
                                    "k3_meps")))


def load_record() -> Dict[str, object]:
    return json.loads(RECORD_PATH.read_text(encoding="utf-8"))


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def nearest_rank(values: List[float], q: float) -> float:
    """The ``q`` quantile by nearest rank (an observed value)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Outcome:
    """What one benchmark run measured.

    ``mismatched`` counts operations whose digest differed from the
    reference (also counted in ``failed``); ``metrics`` holds the
    end-to-end values and ``layers`` the per-layer ones.
    """

    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)


def reference_digest(spec) -> str:
    """Rank digest of an untimed serial scipy run of ``spec``'s graph.

    Only the fields that decide the rank vector are carried over;
    execution strategy, file layout, cache and contracts take their
    defaults (``npy`` files, the fastest serial path).
    """
    from repro.api.runner import execute_spec
    from repro.api.spec import RunSpec

    reference = RunSpec(
        scale=spec.scale, edge_factor=spec.edge_factor, seed=spec.seed,
        generator=spec.generator, damping=spec.damping,
        iterations=spec.iterations, formula=spec.formula,
        file_format="npy", cache_policy="off", validation="off",
    )
    return execute_spec(reference).rank_digest


def _import_wall(root: Path, modules: List[str]) -> float:
    """Wall time of a fresh interpreter that imports ``modules``."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(modules)],
        cwd=root, check=True, timeout=60,
    )
    return time.perf_counter() - started


def _alternate(seconds: float, step: Callable[[bool], object]
               ) -> Dict[bool, List[object]]:
    """Call ``step(traced)`` untraced, then traced, in turn until
    ``seconds`` have passed (at least one pair), so both sides see the
    same phases of the host's speed.  Returns each side's results in
    call order; ``[False][i]`` and ``[True][i]`` are neighbours."""
    results: Dict[bool, List[object]] = {False: [], True: []}
    deadline = time.perf_counter() + seconds
    while not results[True] or time.perf_counter() < deadline:
        for traced in (False, True):
            results[traced].append(step(traced))
    return results


def _paired_overhead(untraced: List[float], traced: List[float]) -> float:
    """Median of the traced-minus-untraced differences of neighbours."""
    return median([t - u for u, t in zip(untraced, traced)])


# ----------------------------------------------------------------------
# Pipeline workloads
# ----------------------------------------------------------------------
@dataclass
class PipelineSample:
    wall: float
    digest: Optional[str] = None
    error: Optional[str] = None
    result: object = None
    layers: Dict[str, float] = field(default_factory=dict)


def _shm_degraded(result) -> bool:
    """Whether a run configured for the shm plane fell back to pipe."""
    return (result.config.shard_plane == "shm"
            and result.kernels[-1].details.get("handoff_mode") != "shm")


def _pipeline_layers(result, selfs: Dict[str, float],
                     counters: Dict[str, float], wall: float
                     ) -> Dict[str, float]:
    """Per-layer values of one traced pipeline run."""
    config = result.config
    kernels = {k.kernel.value: k for k in result.kernels}
    k0 = kernels["k0-generate"].details
    k2 = kernels["k2-filter"].details
    k3 = kernels["k3-pagerank"].details
    nnz = int(k2.get("nnz", 0))
    n = config.num_vertices
    encode_s = selfs.get("edgeio.encode", 0.0)
    decode_s = selfs.get("edgeio.decode", 0.0)
    gen_s = selfs.get("generators", 0.0)
    sort_s = selfs.get("sort", 0.0)
    encoded = counters.get("edgeio.bytes_encoded", 0.0)
    decoded = counters.get("edgeio.bytes_decoded", 0.0)
    dataset_bytes = float(k0.get("bytes_written", 0))
    lanes = k3.get("lane_busy_seconds", {})
    io = k2.get("io_overlap") or {}
    # Computed, not measured, traffic of one SpMV: a float64 value and
    # an index per nonzero, the row pointer, and the rank vector read
    # and its successor written.
    per_iteration_bytes = (
        nnz * (8 + _INDEX_BYTES) + (n + 1) * _INDEX_BYTES + 2 * 8 * n
    )
    return {
        "generators.busy_s": gen_s,
        "generators.meps": (counters.get("generators.edges", 0.0) / gen_s
                            / 1e6 if gen_s else 0.0),
        "edgeio.encode_s": encode_s,
        "edgeio.decode_s": decode_s,
        "edgeio.file_io_s": selfs.get("edgeio.file_io", 0.0),
        "edgeio.encode_mb_per_s": (encoded / encode_s / 1e6
                                   if encode_s else 0.0),
        "edgeio.decode_mb_per_s": (decoded / decode_s / 1e6
                                   if decode_s else 0.0),
        "edgeio.bytes_encoded": encoded,
        "edgeio.bytes_decoded": decoded,
        "edgeio.decode_amplification": (
            decoded / (2.0 * dataset_bytes)
            if dataset_bytes and config.file_format == "tsv" else 0.0
        ),
        "sort.busy_s": sort_s,
        "sort.meps": (counters.get("sort.edges", 0.0) / sort_s / 1e6
                      if sort_s else 0.0),
        "backends.k2_build_s": selfs.get("backends.k2_build", 0.0),
        "backends.k3_iterate_s": selfs.get("backends.k3_iterate", 0.0),
        "backends.k3_flops": float(2 * nnz * config.iterations),
        "backends.k3_bytes_computed": float(
            per_iteration_bytes * config.iterations
        ),
        "contracts.k0_s": selfs.get("contracts.k0", 0.0),
        "contracts.k1_s": selfs.get("contracts.k1", 0.0),
        "contracts.k2_s": selfs.get("contracts.k2", 0.0),
        "contracts.k3_s": selfs.get("contracts.k3", 0.0),
        "executor.other_s": selfs.get("pipeline", 0.0),
        "scheduler.overlap_saved_s": float(k3.get("overlap_saved_s", 0.0)),
        "scheduler.busy_s": float(k3.get("pipeline_busy_seconds", 0.0)),
        "lanes.process_busy_s": float(lanes.get("process", 0.0)),
        "lanes.thread_busy_s": float(lanes.get("thread", 0.0)),
        "shmplane.bytes_saved": float(k3.get("shm_bytes_saved", 0)),
        "streaming.pass1_s": float(io.get("pass1_wall_seconds", 0.0)),
        "streaming.tail_s": float(io.get("tail_seconds", 0.0)),
        "streaming.wait_s": float(io.get("wait_ingest_seconds", 0.0)
                                  + io.get("wait_spill_seconds", 0.0)),
        "tracing.pipeline_s": wall,
    }


def measure_pipelines(spec, seconds: float,
                      tracer: Optional[Tracer] = None
                      ) -> List[PipelineSample]:
    """Run ``spec`` back to back until ``seconds`` have passed (at
    least once).  With a tracer, each run is one root span and carries
    its per-layer values."""
    from repro.api.runner import execute_spec, rank_sha256

    samples: List[PipelineSample] = []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        before = dict(tracer.counters) if tracer is not None else {}
        started = time.perf_counter()
        try:
            if tracer is None:
                outcome = execute_spec(spec)
            else:
                with tracer.root_span("pipeline") as root:
                    outcome = execute_spec(spec)
        except Exception as exc:  # counted, never fatal
            samples.append(PipelineSample(
                wall=time.perf_counter() - started,
                error=f"{type(exc).__name__}: {exc}",
            ))
            continue
        wall = time.perf_counter() - started
        sample = PipelineSample(wall=wall, digest=rank_sha256(outcome.rank),
                                result=outcome.result)
        # Kept results must not grow the measured memory run by run.
        outcome.result.rank = None
        if tracer is not None:
            counters = {key: value - before.get(key, 0.0)
                        for key, value in tracer.counters.items()}
            sample.layers = _pipeline_layers(
                outcome.result, self_times(tracer.spans, root.span_id),
                counters, root.duration,
            )
        samples.append(sample)
    return samples


def _pipeline_metrics(samples: List[PipelineSample],
                      elapsed: float) -> Dict[str, float]:
    ok = [s for s in samples if s.result is not None]
    walls = [s.wall for s in ok]
    metrics = {
        "pipeline_s": median(walls),
        "jobs_per_s": len(ok) / elapsed if elapsed else 0.0,
        "job_p50_s": median(walls),
        "job_p90_s": nearest_rank(walls, 0.9),
    }
    for kernel, name in _KERNEL_METRIC.items():
        metrics[name] = median([
            k.edges_per_second / 1e6
            for s in ok for k in s.result.kernels
            if k.kernel.value == kernel
        ])
    return metrics


def run_pipeline_workload(entry: Dict[str, object], seed: int,
                          default_seed: int, seconds: float, trace: bool,
                          root: Path, workdir: Path,
                          trace_path: Path) -> Outcome:
    from repro.api.spec import RunSpec

    spec = RunSpec.from_dict({**entry["spec"], "seed": seed})
    out = Outcome()
    setups = [_import_wall(root, ["repro.api.runner",
                                  "repro.core.async_executor"])
              for _ in range(SETUP_REPEATS)]
    tracer = Tracer()

    def one_run(traced: bool) -> PipelineSample:
        if not traced:
            return measure_pipelines(spec, 0.0)[0]
        with instrument(tracer):
            return measure_pipelines(spec, 0.0, tracer)[0]

    with TreeRss() as rss:
        started = time.perf_counter()
        if trace:
            runs = _alternate(seconds, one_run)
        else:
            runs = {False: measure_pipelines(spec, seconds)}
        elapsed = time.perf_counter() - started

    reference = reference_digest(spec)
    if seed == default_seed and reference != entry["reference_rank_sha256"]:
        out.mismatched += 1
        out.notes.append(
            f"serial scipy reference {reference[:16]} differs from the "
            f"recorded digest {entry['reference_rank_sha256'][:16]}"
        )
    degraded = 0
    for samples in runs.values():
        for sample in samples:
            out.attempted += 1
            if sample.error is not None:
                out.failed += 1
                out.notes.append(f"run failed: {sample.error}")
            elif sample.digest != reference:
                out.failed += 1
                out.mismatched += 1
                out.notes.append(f"rank digest {sample.digest[:16]} != "
                                 f"reference {reference[:16]}")
            elif _shm_degraded(sample.result):
                degraded += 1
                out.notes.append("shm shard plane fell back to pipe")

    # With tracing on, only ``out.layers`` is reported.
    out.metrics = _pipeline_metrics(runs[False], elapsed)
    out.metrics["setup_s"] = median(setups)
    out.metrics["peak_rss_mb"] = rss.peak_mb
    if trace:
        traced = [s for s in runs[True] if s.layers]
        if traced:
            # One whole run's breakdown (the median-wall traced run),
            # so its self times add up to its own wall exactly.
            chosen = sorted(traced, key=lambda s: s.wall)[
                (len(traced) - 1) // 2]
            out.layers = dict(chosen.layers)
            out.layers["shmplane.degraded_runs"] = float(degraded)
        pairs = [(u.wall, t.wall) for u, t in zip(runs[False], runs[True])
                 if u.result is not None and t.result is not None]
        out.layers["tracing.overhead_s"] = _paired_overhead(
            [u for u, _ in pairs], [t for _, t in pairs])
        tracer.write_chrome_trace(trace_path)
    return out


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------
@dataclass
class JobSample:
    client: int
    index: int
    job_id: Optional[str]
    latency: float
    digest: Optional[str] = None
    error: Optional[str] = None


def _service_specs(entry: Dict[str, object], seed: int):
    """``specs[client][i]``: one graph per client, one damping per job."""
    from repro.api.spec import RunSpec

    stride = int(entry["graph_seed_stride"])
    return [
        [
            RunSpec.from_dict({**entry["job"], "seed": seed + stride * c,
                               "damping": damping})
            for damping in entry["dampings"]
        ]
        for c in range(int(entry["clients"]))
    ]


def _start_service(entry: Dict[str, object], workdir: Path, tag: str):
    """Start the service and run its worker-pool warm-up jobs (one per
    worker, so every worker process is up before measuring)."""
    from repro.api.spec import RunSpec
    from repro.service.service import BenchmarkService

    workers = int(entry["workers"])
    service = BenchmarkService(
        workers=workers, worker_kind="process",
        cache_dir=workdir / "cache", store_path=workdir / f"jobs-{tag}.jsonl",
    )
    try:
        warm = [service.submit(RunSpec(scale=6, seed=i + 1,
                                       cache_policy="off"))
                for i in range(workers)]
        for job_id in warm:
            service.result(job_id, timeout=JOB_TIMEOUT_S)
    except BaseException:
        service.close()
        raise
    return service


def closed_loop(service, specs, seconds: float, cache_root: Path
                ) -> Tuple[List[JobSample], float]:
    """Run rounds until ``seconds`` have passed (at least one).

    In a round each client submits its graph's jobs one at a time,
    waiting for each reply.  Every round starts from an emptied
    artifact cache, so each client's first job regenerates its graph
    (cache misses and writes) and the rest hit; the rounds are whole,
    which keeps hit ratios and miss counts exact.
    """
    from repro.core.artifacts import ArtifactCache
    from repro.service.service import JobError

    deadline = time.perf_counter() + seconds
    stop = threading.Event()
    first = [True]

    def next_round() -> None:
        if not first[0] and time.perf_counter() >= deadline:
            stop.set()
            return
        first[0] = False
        ArtifactCache(cache_root).prune(0)

    barrier = threading.Barrier(len(specs), action=next_round,
                                timeout=JOB_TIMEOUT_S)
    lock = threading.Lock()
    jobs: List[JobSample] = []
    crashes: List[BaseException] = []

    def client(c: int) -> None:
        try:
            while True:
                barrier.wait()
                if stop.is_set():
                    return
                for index, spec in enumerate(specs[c]):
                    started = time.perf_counter()
                    job_id = None
                    try:
                        job_id = service.submit(spec)
                        doc = service.result(job_id, timeout=JOB_TIMEOUT_S)
                        sample = JobSample(c, index, job_id,
                                           time.perf_counter() - started,
                                           digest=doc["rank_sha256"])
                    except (JobError,
                            concurrent.futures.TimeoutError) as exc:
                        sample = JobSample(
                            c, index, job_id, time.perf_counter() - started,
                            error=f"{type(exc).__name__}: {exc}",
                        )
                    with lock:
                        jobs.append(sample)
        except threading.BrokenBarrierError:
            return
        except BaseException as exc:  # reported after the join
            crashes.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=client, args=(c,),
                                name=f"perfbench-client-{c}")
               for c in range(len(specs))]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    if crashes:
        raise crashes[0]
    return jobs, elapsed


_REQUEUED = re.compile(r"^repro_jobs_requeued_total (\S+)$", re.MULTILINE)


def _service_layers(service, jobs: List[JobSample],
                    jobs_per_round: int) -> Dict[str, float]:
    """Per-layer values from job timestamps, result documents and the
    service's ``/metrics`` text."""
    queue_wait, overhead = [], []
    cached = {kernel: 0 for kernel in KERNELS[:3]}
    done = [job for job in jobs if job.error is None]
    for job in done:
        doc = service.result_doc(job.job_id)
        queue_wait.append(doc["started_at"] - doc["submitted_at"])
        overhead.append(doc["finished_at"] - doc["started_at"]
                        - sum(doc["wall_seconds"]))
        for record in doc["records"]:
            if record["kernel"] in cached and record["cached"]:
                cached[record["kernel"]] += 1
    count = len(done) or 1
    misses = sum(len(done) - hits for hits in cached.values())
    requeued = _REQUEUED.search(service.metrics_text())
    return {
        "artifacts.hit_ratio.k0": cached["k0-generate"] / count,
        "artifacts.hit_ratio.k1": cached["k1-sort"] / count,
        "artifacts.hit_ratio.k2": cached["k2-filter"] / count,
        "artifacts.misses": misses * jobs_per_round / count,
        "service.queue_wait_s": median(queue_wait),
        "service.dispatch_overhead_s": median(overhead),
        "service.requeued": float(requeued.group(1)) if requeued else 0.0,
        "service.jobs_failed": float(
            service.jobs_by_state().get("failed", 0)),
    }


def _service_metrics(service, jobs: List[JobSample],
                     elapsed: float) -> Dict[str, float]:
    done = [job for job in jobs if job.error is None]
    latencies = [job.latency for job in done]
    walls: List[float] = []
    rates: Dict[str, List[float]] = {kernel: [] for kernel in KERNELS}
    for job in done:
        doc = service.result_doc(job.job_id)
        walls.extend(doc["wall_seconds"])
        for record in doc["records"]:
            # A cache hit times a manifest read, not the kernel.
            if not record["cached"]:
                rates[record["kernel"]].append(
                    record["edges_per_second"] / 1e6)
    metrics = {
        "pipeline_s": median(walls),
        "jobs_per_s": len(done) / elapsed if elapsed else 0.0,
        "job_p50_s": median(latencies),
        "job_p90_s": nearest_rank(latencies, 0.9),
    }
    for kernel, name in _KERNEL_METRIC.items():
        metrics[name] = median(rates[kernel])
    return metrics


def run_service_workload(entry: Dict[str, object], seed: int,
                         default_seed: int, seconds: float, trace: bool,
                         root: Path, workdir: Path,
                         trace_path: Path) -> Outcome:
    specs = _service_specs(entry, seed)
    jobs_per_round = sum(len(client) for client in specs)
    out = Outcome()
    setups: List[float] = []
    service = None
    try:
        for rep in range(SETUP_REPEATS):
            if service is not None:
                service.close()
                service = None
            imports = _import_wall(root, ["repro.api.runner",
                                          "repro.service.service"])
            started = time.perf_counter()
            service = _start_service(entry, workdir, f"setup{rep}")
            setups.append(imports + time.perf_counter() - started)

        tracer = Tracer()
        cache = workdir / "cache"

        def one_round(traced: bool) -> Tuple[List[JobSample], float]:
            if not traced:
                return closed_loop(service, specs, 0.0, cache)
            with instrument(tracer), tracer.root_span("service"):
                return closed_loop(service, specs, 0.0, cache)

        with TreeRss() as rss:
            if trace:
                rounds = _alternate(seconds, one_round)
            else:
                rounds = {False: [closed_loop(service, specs, seconds,
                                              cache)]}
        # With tracing on, only ``out.layers`` is reported.
        phases = {
            traced: ([job for jobs, _ in done for job in jobs],
                     sum(elapsed for _, elapsed in done))
            for traced, done in rounds.items()
        }
        untraced, elapsed = phases[False]
        out.metrics = _service_metrics(service, untraced, elapsed)
        if trace:
            out.layers = _service_layers(service, phases[True][0],
                                         jobs_per_round)

            def round_p50(jobs: List[JobSample]) -> float:
                return median([j.latency for j in jobs if j.error is None])

            out.layers["tracing.overhead_s"] = _paired_overhead(
                [round_p50(jobs) for jobs, _ in rounds[False]],
                [round_p50(jobs) for jobs, _ in rounds[True]])
            tracer.write_chrome_trace(trace_path)
    finally:
        if service is not None:
            service.close()
    out.metrics["setup_s"] = median(setups)
    out.metrics["peak_rss_mb"] = rss.peak_mb

    recorded = entry["reference_rank_sha256"]
    references: Dict[Tuple[int, int], str] = {}
    for c, client_specs in enumerate(specs):
        for index, spec in enumerate(client_specs):
            digest = reference_digest(spec)
            references[c, index] = digest
            if seed == default_seed and digest != recorded[c][index]:
                out.mismatched += 1
                out.notes.append(
                    f"serial scipy reference for client {c} job {index} "
                    f"differs from the recorded digest"
                )
    for jobs, _ in phases.values():
        for job in jobs:
            out.attempted += 1
            if job.error is not None:
                out.failed += 1
                out.notes.append(f"job failed: {job.error}")
            elif job.digest != references[job.client, job.index]:
                out.failed += 1
                out.mismatched += 1
                out.notes.append(
                    f"job {job.job_id} rank digest differs from reference")
    return out


RUNNERS: Dict[str, Callable[..., Outcome]] = {
    "pipeline": run_pipeline_workload,
    "service": run_service_workload,
}
