"""One benchmark op in a fresh process: import gafields from the checkout's
`src`, read a job from stdin, run `gafields.cli.main(argv)` once, and
print what it cost as one JSON line.

Job: {"argv": [...], "trace": bool} runs an op; {"probe": true} reports
the machine and library facts instead.  The `ready` field is the
monotonic clock when `import gafields` returned; the parent subtracts
its own clock at spawn to get the start-up time.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import gafields  # noqa: E402

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402


def _probe() -> dict:
    import numpy
    return {
        "gafields": str(Path(gafields.__file__).resolve().parent),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def _blas_threads():
    """Thread count reported by the OpenBLAS loaded into this process, or
    None where there is none to ask."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _run(argv, trace: bool) -> dict:
    from gafields import cli
    tracer = None
    if trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except SystemExit as exc:   # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:    # an op that raises is a failed op
        code, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    return {"code": code, "error": error, "wall_s": wall, "cpu_s": cpu,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "stderr": stderr.getvalue()[-2000:],
            "trace": tracer.snapshot() if tracer else None}


def main() -> int:
    if not Path(gafields.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"gafields imported from {gafields.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    job = json.loads(sys.stdin.read())
    result = _probe() if job.get("probe") else _run(job["argv"],
                                                    job.get("trace", False))
    result["ready"] = READY
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
