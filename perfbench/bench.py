"""Benchmark runner: set-up, timed passes, checks, metrics and output.

A run measures one workload for a given seed.  Set-up writes the seeded
input files (repeated, and timed as ``setup_s``: a few times first, then
between the operations of untraced passes); an untimed warm-up
operation on the first instance loads lazily imported solver code; then
passes over the instance set run one operation at a time (closed loop,
single process) until ``--seconds`` have elapsed, and at least two passes.
With ``--trace 1`` the passes alternate untraced and traced, and the
per-layer metrics come from the traced ones.  Throughout the passes a
``hostspeed.SpeedProbe`` samples a reference kernel, whose time is taken
out of each operation's and divides it in ``time_to_cert_norm``.

Every pass must reproduce the first pass's per-instance iteration counts,
statuses and objectives bit for bit (traced or not); otherwise the run is
reported as incorrect.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

from bmadmm import certify, curvature, rgd, solver, sparse

import hostspeed
import spans
import workloads

SETUP_REPEATS = 3  # set-up repeats before the passes
SETUP_INTERVAL = 1.0  # least seconds of passes between two further repeats
SETUP_SHARE = 0.05  # most of the passes' time that further repeats take
MIN_PASSES = 2
OUT_DIR = ".perfbench_out"
WORK_DIR = ".perfbench_work"

END_TO_END_UNITS = {
    "time_to_cert_norm": "ref-kernels",
    "iterations": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics printed as the result of a traced run.  Every name here
# is measured on every workload (a time, where it is nonzero everywhere,
# or a count); LAYER_DETAIL holds the times of layers that only some
# workloads exercise, written to the output file and printed above the
# result line.
LAYER_UNITS = {
    "sparse.spmm.s": "s",
    "sparse.spmm.calls": "count",
    "sparse.spmm.flops": "flop",
    "sparse.spmm.bytes": "B",
    "sparse.spmm.gflops": "GFLOP/s",
    "sparse.spmm.per_iter": "1/iter",
    "manifold.project.s": "s",
    "manifold.project.calls": "count",
    "solver.loop.self_s": "s",
    "solver.ms_per_iter": "ms",
    "sparse.two_norm_estimate.s": "s",
    "sparse.two_norm_estimate.calls": "count",
    "sparse.min_eig_estimate.s": "s",
    "sparse.min_eig_estimate.failures": "count",
    "certify.dual_certificate.self_s": "s",
    "curvature.probe.calls": "count",
    "curvature.probe.iterations": "count",
    "curvature.probe.inconclusive": "count",
    "curvature.escape.calls": "count",
    "manifold.geodesic_step.calls": "count",
    "rgd.iterations": "count",
    "rgd.spmm_per_iter": "1/iter",
    "problems.load.s": "s",
    "trace.overhead_s": "s",
}
LAYER_DETAIL = {
    "manifold.project_d1.s": "s",
    "manifold.project_d3.s": "s",
    "solver.step.self_s": "s",
    "solver.residuals.s": "s",
    "solver.init_state.self_s": "s",
    "curvature.probe.s": "s",
    "manifold.tangent_project.s": "s",
}


# -- tracing targets --------------------------------------------------------


def _count_spmm(tracer, args, out):
    """Computed cost of C @ V: 2 nnz r flops; CSR arrays plus the dense
    input and output are the bytes moved."""
    C, V = args[0], args[1]
    r = V.shape[1] if np.ndim(V) == 2 else 1
    csr = C._csr
    tracer.count("spmm.flops", 2 * csr.nnz * r)
    tracer.count(
        "spmm.bytes",
        csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes + 2 * C.n * r * 8,
    )


def _count_probe(tracer, args, report):
    tracer.count("probe.iterations", report.probe_iterations)
    if report.status == "inconclusive":
        tracer.count("probe.inconclusive")


def _project_name(args):
    return f"manifold.project_d{args[0].d}"


def layer_targets():
    """(module, attribute, span name, count hook) for every wrapped layer,
    in the namespace of each module that calls it."""
    targets = []
    for module in (solver, curvature, certify, rgd, sparse):
        targets.append((module, "spmm", "sparse.spmm", _count_spmm))
    for module in (solver, curvature, certify, rgd, sparse):
        targets.append((module, "two_norm_estimate", "sparse.two_norm_estimate", None))
    for module in (solver, rgd):
        targets.append((module, "project", _project_name, None))
    for module in (solver, curvature):
        targets.append((module, "step", "solver.step", None))
        targets.append((module, "init_state", "solver.init_state", None))
        targets.append((module, "residuals", "solver.residuals", None))
    for module in (curvature, rgd):
        targets.append((module, "tangent_project", "manifold.tangent_project", None))
    targets += [
        (certify, "min_eig_estimate", "sparse.min_eig_estimate", None),
        (curvature, "negative_curvature_direction", "curvature.probe", _count_probe),
        (curvature, "escape_step", "curvature.escape", None),
        (curvature, "geodesic_step", "manifold.geodesic_step", None),
    ]
    return targets


# -- passes -----------------------------------------------------------------


def prepare(instances, seed, directory):
    """Write every input file; returns [(instance, path, start factor)]."""
    return [
        (instance, *workloads.write_input(instance, workloads.relabeling(seed, i), directory))
        for i, instance in enumerate(instances)
    ]


class Setup:
    """Timed set-up repeats: each writes every input file into a fresh
    directory.  The passes read the first repeat's files; the later ones
    are timed and removed.  Repeats made between operations spread the
    samples over the run.  Each repeat is also divided by the mean of two
    reference-kernel timings, one just before and one just after it, and
    kept in ``scaled``: set-up time in reference kernels."""

    def __init__(self, instances, seed, work, probe):
        self.instances = instances
        self.seed = seed
        self.work = work
        self.probe = probe
        self.times = []
        self.scaled = []
        self.last = 0.0

    def repeat(self):
        """Write the inputs once more; returns (inputs, directory)."""
        directory = os.path.join(self.work, f"inputs{len(self.times)}")
        os.mkdir(directory)
        before = self.probe.kernel()
        busy = self.probe.busy
        started = time.perf_counter()
        inputs = prepare(self.instances, self.seed, directory)
        self.times.append(time.perf_counter() - started - (self.probe.busy - busy))
        kernel_s = (before + self.probe.kernel()) / 2
        self.scaled.append(self.times[-1] / kernel_s)
        self.last = time.perf_counter()
        return inputs, directory

    def between(self):
        """Called between operations: repeat when SETUP_INTERVAL has
        passed, and rarely enough that repeats stay within SETUP_SHARE."""
        wait = max(SETUP_INTERVAL, self.times[-1] / SETUP_SHARE)
        if time.perf_counter() - self.last >= wait:
            shutil.rmtree(self.repeat()[1])


def references(inputs):
    """Reference lower bounds for the operations that need one.  A failed
    reference leaves None, and the operations it serves count as failed."""
    refs = {}
    for index, (instance, path, start) in enumerate(inputs):
        if instance.solver == "rgd":
            try:
                refs[index] = workloads.reference_bound(instance, path, start)
            except Exception:  # noqa: BLE001 - reported through the operation
                refs[index] = None
    return refs


def run_pass(inputs, refs, probe, tracer=None, between=None):
    """One closed-loop pass over the instance set; a raised exception is
    recorded by type as a failed operation and never aborts the pass.
    An operation's ``seconds`` exclude the reference-kernel samples that
    ``probe`` took during it, which are kept as ``kernel_s`` and
    ``kernel_samples``.  ``between()``, if given, runs before each
    operation, outside its time."""
    records = []
    for index, (instance, path, start) in enumerate(inputs):
        if between is not None:
            between()
        if tracer is None:
            span, op_span = contextlib.nullcontext, contextlib.nullcontext()
        else:
            tracer.op_id = index
            span, op_span = tracer.span, tracer.span("op")
        busy, samples = probe.busy, probe.samples
        started = time.perf_counter()
        try:
            with op_span:
                record = workloads.run_operation(
                    instance, path, start, refs.get(index), span
                )
            record["error"] = None
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            record = {"status": None, "iterations": None, "objective": None,
                      "met_target": False, "valid": True, "error": type(exc).__name__}
        elapsed = time.perf_counter() - started
        record["kernel_s"] = probe.busy - busy
        record["kernel_samples"] = probe.samples - samples
        record["seconds"] = elapsed - record["kernel_s"]
        record["instance"] = instance.name
        record["solver"] = instance.solver
        records.append(record)
    return records


def fingerprint(records):
    """What two runs of the same inputs must agree on, bit for bit."""
    return [
        (r["instance"], r["error"], r["status"], r["iterations"],
         None if r["objective"] is None else float(r["objective"]).hex())
        for r in records
    ]


def measure(inputs, refs, probe, seconds, trace, between=None):
    """Run passes until ``seconds`` have elapsed and at least MIN_PASSES
    ran; with ``trace`` the passes alternate untraced and traced, and
    ``between`` runs only in untraced ones.  Returns [(records, tracer or
    None)]."""
    passes = []
    kinds = (False, True) if trace else (False,)
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - started < seconds:
        for traced in kinds:
            if traced:
                tracer = spans.Tracer()
                with tracer.patched(layer_targets()):
                    passes.append((run_pass(inputs, refs, probe, tracer), tracer))
            else:
                passes.append((run_pass(inputs, refs, probe, between=between), None))
    return passes


# -- metrics ----------------------------------------------------------------


def _safe_div(a, b):
    return a / b if b else 0.0


def done_index(records):
    """Indices of the operations that returned an iteration count."""
    return [i for i, r in enumerate(records) if r["iterations"] is not None]


def layer_metrics(records, tracer):
    """Per-layer numbers of one traced pass."""
    a = tracer.arrays()
    code = {name: i for i, name in enumerate(tracer.names)}
    name, parent, op = a["name"], a["parent"], a["op"]
    duration = a["end"] - a["start"]
    own = spans.self_times(parent, duration)

    def mask(*names):
        return np.isin(name, [code.get(n, -1) for n in names])

    def total(*names):
        return float(duration[mask(*names)].sum())

    def calls(*names):
        return int(mask(*names).sum())

    def self_total(*names):
        return float(own[mask(*names)].sum())

    counts = tracer.counts
    solve_spans = mask("solve")
    estimator = mask("sparse.two_norm_estimate", "sparse.min_eig_estimate")
    # spmm issued by the solver loop itself, not by the norm estimators
    loop_spmm = mask("sparse.spmm") & spans.inside(parent, solve_spans) & ~spans.inside(parent, estimator)
    done = done_index(records)
    iterations = sum(records[i]["iterations"] for i in done)
    rgd_ops = [i for i in done if records[i]["solver"] == "rgd"]
    rgd_iterations = sum(records[i]["iterations"] for i in rgd_ops)
    spmm_s = total("sparse.spmm")
    metrics = {
        "sparse.spmm.s": spmm_s,
        "sparse.spmm.calls": calls("sparse.spmm"),
        "sparse.spmm.flops": counts.get("spmm.flops", 0),
        "sparse.spmm.bytes": counts.get("spmm.bytes", 0),
        "sparse.spmm.gflops": _safe_div(counts.get("spmm.flops", 0), spmm_s) / 1e9,
        "sparse.spmm.per_iter": _safe_div(int(loop_spmm.sum()), iterations),
        "manifold.project.s": total("manifold.project_d1", "manifold.project_d3"),
        "manifold.project.calls": calls("manifold.project_d1", "manifold.project_d3"),
        "solver.loop.self_s": self_total("solve"),
        "solver.ms_per_iter": _safe_div(total("solve") * 1e3, iterations),
        "sparse.two_norm_estimate.s": total("sparse.two_norm_estimate"),
        "sparse.two_norm_estimate.calls": calls("sparse.two_norm_estimate"),
        "sparse.min_eig_estimate.s": total("sparse.min_eig_estimate"),
        "sparse.min_eig_estimate.failures": int(
            a["failed"][mask("sparse.min_eig_estimate")].sum()
        ),
        "certify.dual_certificate.self_s": self_total("certify.dual_certificate"),
        "curvature.probe.calls": calls("curvature.probe"),
        "curvature.probe.iterations": counts.get("probe.iterations", 0),
        "curvature.probe.inconclusive": counts.get("probe.inconclusive", 0),
        "curvature.escape.calls": calls("curvature.escape"),
        "manifold.geodesic_step.calls": calls("manifold.geodesic_step"),
        "rgd.iterations": rgd_iterations,
        "rgd.spmm_per_iter": _safe_div(
            int((loop_spmm & np.isin(op, rgd_ops)).sum()), rgd_iterations
        ),
        "problems.load.s": total("problems.load"),
        "manifold.project_d1.s": total("manifold.project_d1"),
        "manifold.project_d3.s": total("manifold.project_d3"),
        "solver.step.self_s": self_total("solver.step"),
        "solver.residuals.s": total("solver.residuals"),
        "solver.init_state.self_s": self_total("solver.init_state"),
        "curvature.probe.s": total("curvature.probe"),
        "manifold.tangent_project.s": total("manifold.tangent_project"),
    }
    # the paper's cost claim, checked from outside: 2 products per ADMM
    # iteration plus 1 for the initial multiplier
    per_op = np.bincount(op[loop_spmm], minlength=len(records))
    admm = [i for i in done if records[i]["solver"] in ("admm", "prox-admm")]
    identity = sum(int(per_op[i]) == 2 * records[i]["iterations"] + 1 for i in admm)
    return metrics, {"admm_ops": len(admm), "spmm_identity_holds": identity}


def _median_metrics(dicts):
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def _kernel_seconds(records, probe):
    """Mean reference-kernel time sampled during a pass; one fresh sample
    if the pass was too short to take any."""
    samples = sum(r["kernel_samples"] for r in records)
    if samples == 0:
        return probe.kernel()
    return sum(r["kernel_s"] for r in records) / samples


def _set_kernels(passes, probe):
    """Time over the instance set in reference kernels: each pass's time
    divided by the mean kernel time sampled during it, median over
    passes."""
    return statistics.median(
        sum(r["seconds"] for r in records) / _kernel_seconds(records, probe)
        for records in passes
    )


def _set_seconds(passes):
    """Wall time over the instance set: the sum over instances of each
    instance's median time across passes."""
    return sum(
        statistics.median(records[i]["seconds"] for records in passes)
        for i in range(len(passes[0]))
    )


# -- environment --------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes():
    sizes = {}
    for label, key in (("L1d", "SC_LEVEL1_DCACHE_SIZE"), ("L2", "SC_LEVEL2_CACHE_SIZE"),
                       ("L3", "SC_LEVEL3_CACHE_SIZE")):
        try:
            sizes[label] = os.sysconf(key)
        except (ValueError, OSError):
            sizes[label] = None
    return sizes


def _git_commit(root):
    """Commit of a git checkout, read from .git without running git;
    "unknown" outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root, seed, blas_threads):
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "cache_bytes": _cache_sizes(),
        "seed": seed,
        "git_commit": _git_commit(root),
    }


# -- entry point --------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description="bmadmm time-to-certificate benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args, root, blas_threads, tiny=False, out=sys.stdout):
    """Measure one workload; prints the report and, last, the result line.
    Returns (result, report)."""
    workload = workloads.WORKLOADS[args.workload]
    instances = workload.tiny if tiny else workload.instances
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, WORK_DIR))
    try:
        probe = hostspeed.SpeedProbe()
        setup = Setup(instances, args.seed, work, probe)
        inputs = setup.repeat()[0]
        for _ in range(SETUP_REPEATS - 1):
            setup.repeat()
        refs = references(inputs)

        with probe:
            # loads lazily imported code (ARPACK) before anything is timed
            run_pass(inputs[:1], refs, probe)
            passes = measure(
                inputs, refs, probe, args.seconds, bool(args.trace), setup.between
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(root, WORK_DIR))

    reference = fingerprint(passes[0][0])
    reproducible = all(fingerprint(records) == reference for records, _ in passes)
    all_records = [r for records, _ in passes for r in records]
    failed = sum(1 for r in all_records if r["error"] is not None or not r["met_target"])
    valid = all(r["valid"] for r in all_records)
    errors = sorted({r["error"] for r in all_records if r["error"] is not None})
    untraced = [records for records, tracer in passes if tracer is None]
    traced = [(records, tracer) for records, tracer in passes if tracer is not None]

    time_to_cert = _set_kernels(untraced, probe)
    kernel_s = statistics.median(_kernel_seconds(records, probe) for records in untraced)
    iterations = sum(r["iterations"] or 0 for r in passes[0][0])
    end_to_end = {
        "time_to_cert_norm": time_to_cert,
        "iterations": iterations,
        "setup_s": statistics.median(setup.scaled) * hostspeed.REFERENCE_KERNEL_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "time_to_cert_norm": len(untraced),
        "iterations": 1,
        "setup_s": len(setup.times),
        "peak_rss_mb": 1,
    }
    layers, identity = {}, None
    if traced:
        per_pass = [layer_metrics(records, tracer) for records, tracer in traced]
        layers = _median_metrics([metrics for metrics, _ in per_pass])
        identity = per_pass[0][1]
        # in seconds at the run's median host speed
        layers["trace.overhead_s"] = kernel_s * (
            _set_kernels([records for records, _ in traced], probe) - time_to_cert
        )

    report = {
        "workload": args.workload,
        "environment": environment(root, args.seed, blas_threads),
        "instances": [i.name for i in instances],
        "passes": [{"traced": tracer is not None, "records": records} for records, tracer in passes],
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k], "samples": samples[k]}
                       for k, v in end_to_end.items()},
        "time_to_cert_s": {"value": _set_seconds(untraced), "unit": "s",
                           "samples": len(untraced) * len(instances)},
        "setup_wall_s": {"value": statistics.median(setup.times), "unit": "s",
                         "samples": len(setup.times)},
        "kernel_s": {"value": kernel_s, "unit": "s", "samples": len(untraced)},
        "fail_frac": failed / len(all_records),
        "errors": errors,
        "reproducible": reproducible,
        "outputs_valid": valid,
        "setup_s_samples": setup.times,
    }
    if traced:
        units = {**LAYER_UNITS, **LAYER_DETAIL}
        report["per_layer"] = {k: {"value": v, "unit": units[k], "samples": len(traced)}
                               for k, v in layers.items()}
        report["spmm_identity"] = identity
    _write_outputs(root, args, report, traced)
    _print_report(out, report, traced)

    metric_units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    values = layers if args.trace else end_to_end
    result = {
        "correct": bool(reproducible and valid),
        "attempted": len(all_records),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": metric_units[k]} for k in metric_units},
    }
    print(json.dumps(result), file=out, flush=True)
    return result, report


def _write_outputs(root, args, report, traced):
    directory = os.path.join(root, OUT_DIR)
    os.makedirs(directory, exist_ok=True)
    stem = os.path.join(directory, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(report, fh, indent=1)
    if traced:
        arrays = {}
        for number, (_, tracer) in enumerate(traced):
            arrays.update({f"pass{number}_{k}": v for k, v in tracer.arrays().items()})
            arrays[f"pass{number}_names"] = np.array(tracer.names)
        np.savez_compressed(stem + "-spans.npz", **arrays)


def _print_report(out, report, traced):
    env = report["environment"]
    records = report["passes"][0]["records"]
    print(f"workload {report['workload']}  seed {env['seed']}  "
          f"{len(records)} instances  {len(report['passes'])} passes  "
          f"BLAS threads {env['blas_threads']} of nproc {env['nproc']}", file=out)
    for name, m in report["end_to_end"].items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']:8s} n={m['samples']}", file=out)
    for name in ("time_to_cert_s", "setup_wall_s", "kernel_s"):
        m = report[name]
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']:8s} n={m['samples']} (wall)", file=out)
    print(f"  {'fail_frac':34s} {report['fail_frac']:>16.6g} {'ratio':8s} "
          f"errors={report['errors']}", file=out)
    for name, m in report.get("per_layer", {}).items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']:8s} n={m['samples']}", file=out)
    if traced:
        ident = report["spmm_identity"]
        print(f"  spmm calls in solve == 2 x iterations + 1 on "
              f"{ident['spmm_identity_holds']}/{ident['admm_ops']} ADMM operations", file=out)
    print(f"  reproducible across passes: {report['reproducible']}  "
          f"outputs valid: {report['outputs_valid']}", file=out)


def main(argv, root, blas_threads):
    run(parse_args(argv), root, blas_threads)
    return 0
