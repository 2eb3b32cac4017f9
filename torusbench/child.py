"""One benchmark pass in a fresh process; started by run.py.

usage: child.py WORKLOAD SEED PASS MODE T0

MODE is ``setup`` (import torushom and build the inputs, then stop), ``plain``
(also run the jobs) or ``traced`` (run them under the layer tracer and write
the spans to ``.bench_out/``).  T0 is the parent's ``time.monotonic()`` just
before the process was started, so ``setup_s`` includes interpreter start-up.
The last line of standard output is one JSON object.
"""

import sys
import time


def main(argv: list[str]) -> int:
    workload, seed, pass_index, mode, t0 = argv[1], int(argv[2]), int(argv[3]), argv[4], float(argv[5])

    import contextlib
    import json
    import resource
    from pathlib import Path

    import torushom
    from torushom import recursion

    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(torushom.__file__).resolve().is_relative_to(src):
        print(f"torushom was imported from {torushom.__file__}, not from {src}", file=sys.stderr)
        return 2

    import workloads
    from tracer import Tracer

    tracer = Tracer(torushom) if mode == "traced" else None

    def cold_start() -> None:
        clear = getattr(recursion, "clear_memo", None)
        if clear is not None:
            clear()
        if tracer is not None:
            tracer.new_segment()

    jobs = workloads.build(workload, seed, pass_index, cold_start)
    result = {"setup_s": time.monotonic() - t0, "numpy_loaded": int("numpy" in sys.modules)}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    outputs = []
    with tracer if tracer is not None else contextlib.nullcontext():
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for job in jobs:
            start = time.perf_counter()
            try:
                out = tracer.run_job(job.name, job.run) if tracer else job.run()
                error = None
            except Exception as exc:  # a failing job is counted, not fatal
                out, error = None, f"{job.name} raised {type(exc).__name__}: {exc}"
            outputs.append((out, error, time.perf_counter() - start))
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result.update(wall_s=wall, cpu_s=cpu, peak_rss_mb=peak_rss_mb, jobs=[
        {"name": job.name, "seconds": seconds, "problems": [error] if error else _check(job, out)}
        for job, (out, error, seconds) in zip(jobs, outputs)
    ])
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["hook_errors"] = tracer.hook_errors
        out_dir = Path.cwd() / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{workload}-seed{seed}-pass{pass_index}.json"
        trace_file.write_text(json.dumps({"layers": result["layers"], "spans": tracer.spans}))
    print(json.dumps(result))
    return 0


def _check(job, output) -> list[str]:
    """The job's problems; an output the check cannot read is one too."""
    try:
        return job.check(output)
    except Exception as exc:  # e.g. the output's type changed
        return [f"{job.name}: checking the output raised {type(exc).__name__}: {exc}"]


if __name__ == "__main__":
    sys.exit(main(sys.argv))
