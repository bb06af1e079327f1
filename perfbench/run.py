"""Run one benchmark workload of treefuse and print its result.

    python3 perfbench/run.py --workload lift --seed 0 --seconds 40 --trace 0

Run from the root of a checkout: the package is imported from ``src/`` of
the checkout this script sits in, never from an installed copy. Inputs are
generated from ``--seed`` into ``.perfbench/`` and checked against the
digests pinned in ``pins.json``. With ``--trace 0`` the pipeline repeats
until ``--seconds`` have passed (at least twice) and the end-to-end metrics
summarize all the repeats; with ``--trace 1`` one untraced and one
traced pass give the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
holds the details: environment, input and output digests, test quality and
every repeat's timings. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
PINS = os.path.join(HERE, "pins.json")
CANARY_SEED = 0
MIN_REPS = 2

E2E_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "train_tokens_per_s": "tokens/s",
    "score_docs_per_s": "docs/s",
    "peak_rss_mb": "MiB",
}


def use_checkout_sources() -> None:
    """Put the checkout's ``src/`` first on the path, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "treefuse", "__init__.py")):
        sys.exit(f"perfbench: no treefuse sources under {SRC}")
    sys.path.insert(0, SRC)
    import treefuse

    if not os.path.abspath(treefuse.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: treefuse imported from {treefuse.__file__}, not {SRC}")


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    import glob

    import numpy as np

    libs_dir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "processes": 1,
    }


def generate_checked(pipeline, workload, seed: int, work: str) -> tuple[dict[str, str], str]:
    """Generate the inputs for ``seed``; returns their paths and digest.

    Exits non-zero if this seed's digest, or the canary seed's, differs
    from the pinned one: the generator changed and the workload with it.
    """
    with open(PINS, encoding="utf-8") as fh:
        pins = json.load(fh)[workload.name]
    generated = {}
    for s in sorted({seed, CANARY_SEED}):
        paths = pipeline.generate(workload, s, os.path.join(work, f"seed{s}"))
        digest = pipeline.inputs_sha256(paths)
        pinned = pins.get(str(s))
        if pinned is not None and pinned != digest:
            sys.exit(
                f"perfbench: inputs of {workload.name} seed {s} hash to "
                f"{digest}, pinned {pinned}; the generator changed, so the "
                "workload is no longer the one measured before"
            )
        generated[s] = (paths, digest)
    return generated[seed]


def e2e_metrics(reps, kind: int) -> dict[str, float]:
    """The end-to-end metrics over all repeats; ``kind`` 0 takes wall
    seconds, 1 reference seconds. Times are medians; throughputs divide all
    the work by all its time, which weights each pass by its length."""

    def times(stage):
        return [pair[kind] for r in reps for pair in r.timed[stage]]

    return {
        "setup_s": median(times("setup")),
        "fit_s": median(times("fit")),
        "train_tokens_per_s": sum(r.train_tokens for r in reps) / sum(times("train")),
        "score_docs_per_s": (
            sum(r.n_test * len(r.timed["score"]) for r in reps) / sum(times("score"))),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout_sources()
    import pipeline
    import speed
    import tracing

    if args.workload not in pipeline.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(pipeline.WORKLOADS)}")
    workload = pipeline.WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(OUT_DIR, exist_ok=True)

    ops = pipeline.Ops()
    reps = []
    error = None
    metrics: dict[str, tuple[float, str]] = {}
    try:
        paths, input_sha256 = generate_checked(pipeline, workload, args.seed, work)
        start = time.perf_counter()
        clock = speed.SpeedClock()
        tracer = tracing.Tracer() if args.trace else None
        try:
            while True:
                if tracer is None:
                    with speed.ticking(clock):
                        rep = pipeline.run_rep(workload, paths, args.seed,
                                               tracing.NullTracer(), clock, ops)
                elif not reps:
                    rep = pipeline.run_rep(workload, paths, args.seed,
                                           tracing.NullTracer(), clock, ops)
                else:
                    with tracing.instrument(tracer):
                        rep = pipeline.run_rep(workload, paths, args.seed, tracer, clock, ops)
                reps.append(rep)
                if rep.digests != reps[0].digests:
                    raise pipeline.CheckFailed(
                        f"repeat {len(reps)} digests {rep.digests} differ from "
                        f"the first repeat's {reps[0].digests}", docs=rep.ops_done)
                if len(reps) < MIN_REPS:
                    continue
                elapsed = time.perf_counter() - start
                if tracer is not None or elapsed + median(r.wall_s for r in reps) > args.seconds:
                    break
        except pipeline.CheckFailed as exc:
            ops.good -= exc.docs
            error = f"check failed: {exc}"
        except Exception:
            error = traceback.format_exc()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if reps and tracer is not None and len(reps) == 2:
        metrics = tracing.per_layer_metrics(
            tracer, reps[1].tree_counts, reps[1].wall_s / reps[0].wall_s - 1.0)
        tracer.write_spans(os.path.join(OUT_DIR, f"spans-{tag}.tsv"))
    elif reps and tracer is None:
        metrics = {k: (v, E2E_UNITS[k]) for k, v in e2e_metrics(reps, 1).items()}

    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "input_sha256": input_sha256,
        "digests": reps[0].digests if reps else None,
        "quality": reps[0].quality if reps else None,
        "wall_clock_metrics": e2e_metrics(reps, 0) if reps else None,
        "probe_ms": {
            "count": len(clock.marks),
            "median": median(clock.probes) * 1e3,
            "min": min(clock.probes) * 1e3,
            "max": max(clock.probes) * 1e3,
        } if clock.marks else None,
        "reps": [
            {"wall_s": r.wall_s, "train_tokens": r.train_tokens, "n_test": r.n_test,
             "timed_wall_ref_s": r.timed}
            for r in reps
        ],
        "error": error,
    }
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    correct = error is None and ops.failed == 0
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    if error is not None:
        print(error, file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
