"""Closed-loop benchmark of relaxsolve: one caller, one solve at a time.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload small-n200 --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of the checkout; nothing needs to be
installed. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
the same workload with every layer wrapped and prints the per-layer
metrics instead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The line before it
records the machine and library versions the run used.
"""

import os

# BLAS must be pinned before numpy loads it: one caller, one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Fresh processes timed from spawn to the end of set-up; setup_s is their median.
SETUP_PROBES = 6
# The reference for set-up time: a fresh interpreter importing the libraries
# the program's set-up imports, and its time at nominal host speed.
SPAWN_REFERENCE = "import numpy, scipy.linalg; print('ready', flush=True)"
NOMINAL_SPAWN_S = 0.35
# Size of each workload's systems, and so of its speed reference kernel.
KERNEL_N = {"small-n200": 200, "large-n1000": 1000, "bench-plan": 200}
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("small-n200", "large-n1000", "bench-plan"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="shrink every workload (self-test only)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        p.error("--seed must be in [0, 2**63)")
    return args


def load_program():
    """Import relaxsolve from this checkout's ``src/``, or fail."""
    if not os.path.isfile(os.path.join(SRC, "relaxsolve", "__init__.py")):
        raise ImportError(f"no relaxsolve package under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import relaxsolve

    if not os.path.abspath(relaxsolve.__file__).startswith(SRC + os.sep):
        raise ImportError(f"relaxsolve was imported from {relaxsolve.__file__}, not {SRC}")


def spawn_until_ready(cmd) -> float:
    """Wall time from spawning ``cmd`` until it prints ``ready``."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"{cmd[1]} exited with code {code} before it was ready")
    return elapsed


def setup_probe(args) -> tuple[float, float]:
    """Set-up time of a fresh interpreter, and of the reference spawn after it.

    Set-up is the imports, making the workload's instances and one warm-up
    solve, which is what a user pays before the first timed call.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    return spawn_until_ready(cmd), spawn_until_ready([sys.executable, "-c", SPAWN_REFERENCE])


def environment() -> dict:
    """What the figures depend on besides the code: versions, BLAS, CPU."""
    import ctypes
    import glob

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(pkg.__file__), os.pardir, f"{pkg.__name__}.libs")
        for path in glob.glob(os.path.join(libdir, "*openblas*")):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads[pkg.__name__] = fn()
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level, kind, size = (
                open(os.path.join(index, f), encoding="ascii").read().strip()
                for f in ("level", "type", "size")
            )
        except OSError:
            continue
        caches[f"L{level}{kind[0].lower()}"] = size
    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": threads or os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
    }


def git_sha() -> str:
    """HEAD of the checkout read from ``.git`` directly; "unknown" if not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(args) -> int:
    import spans
    import speed
    import workloads

    out_dir = os.path.join(OUT, args.workload)
    wl = workloads.make(args.workload, args.seed, out_dir, tiny=args.tiny)
    if args.setup_probe:
        wl.setup()
        print("ready", flush=True)
        return 0

    ref = speed.SpeedReference(KERNEL_N[args.workload])
    ref.measure()
    setup_samples = [] if args.trace else [setup_probe(args) for _ in range(SETUP_PROBES)]
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    elif spans.installed():
        raise RuntimeError(f"wrappers present in an untraced run: {spans.installed()}")

    attempted = failed = rounds = 0
    correct = True
    try:
        wl.setup()
        wl.prepare_checks()
        loop_start_ns = time.perf_counter_ns()
        loop_start = time.perf_counter()
        deadline = loop_start + args.seconds
        round_s = 0.0
        # Whole rounds only, and at least two, so that every run attempts
        # the same operations in the same proportions and round 2 can be
        # checked against round 1. No round starts that would end past
        # the deadline.
        while rounds < 2 or time.perf_counter() + round_s <= deadline:
            round_start = time.perf_counter()
            a, f = wl.run_round()
            attempted += a
            failed += f
            rounds += 1
            round_s = time.perf_counter() - round_start
            ref.measure(after_s=round_s)
        loop_s = time.perf_counter() - loop_start
        if tracer is not None:
            tracer.uninstall()
        wl.finish_checks()
    except workloads.CheckError as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        correct = False
    finally:
        if tracer is not None:
            tracer.uninstall()

    metrics = {}
    setup_s = spawn_s = 0.0
    if setup_samples:
        setup_s, spawn_s = (statistics.median(x) for x in zip(*setup_samples))
    if correct:
        if tracer is not None:
            metrics = spans.layer_metrics(tracer, loop_start_ns, rounds)
            os.makedirs(out_dir, exist_ok=True)
            tracer.dump(os.path.join(out_dir, "spans.npz"))
        else:
            metrics = wl.metrics()
            metrics = {k: at_nominal_speed(v, u, ref.scale) for k, (v, u) in metrics.items()}
            metrics["setup_s"] = (setup_s * NOMINAL_SPAWN_S / spawn_s, "s")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB")
        # Figures as measured, before conversion to nominal speed. The
        # traced run's us_per_gen against the untraced run's is the tracing
        # overhead.
        print(
            f"perfbench: {args.workload} rounds={rounds} loop_s={loop_s:.2f} "
            f"measured_us_per_gen={wl.metrics()['us_per_gen'][0]:.2f} "
            f"measured_setup_s={setup_s:.4f} spawn_s={spawn_s:.4f} "
            f"kernel_ms={ref.kernel_s * 1e3:.4f} scale={ref.scale:.4f} traced={args.trace}",
            file=sys.stderr,
        )
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def at_nominal_speed(value, unit, scale):
    """A measured figure converted to the host's nominal speed (see speed.py)."""
    if unit in ("s", "ms", "us"):
        return value * scale, unit
    if unit == "1/s":
        return value / scale, unit
    return value, unit


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_program()
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
