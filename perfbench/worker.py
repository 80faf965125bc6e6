"""The workload process: one caller issuing CLI operations in-process, one after another.

Started fresh for each run by run.py, so that its import time and peak memory
belong to the program alone. Usage: worker.py PLAN.json RESULT.json
"""

# Only sys and time load before the package: its import is timed first, and the
# other modules are imported inside the functions below.
import sys
import time


def _import_program():
    """Import the package first, before anything else loads its dependencies."""
    t0 = time.perf_counter()
    import strengthvote  # noqa: F401
    import strengthvote.cli as cli
    return cli, time.perf_counter() - t0


def _run_op(cli, argv, out_path, command):
    import contextlib
    import io
    import json
    import os

    import gate

    if os.path.exists(out_path):
        os.remove(out_path)
    stdout, stderr = io.StringIO(), io.StringIO()
    error = fp = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # any raise is a failed operation, not a benchmark crash
        rc, error = None, f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    if rc == 0:
        try:
            with open(out_path) as fh:
                fp = gate.fingerprint(command, json.load(fh), stdout.getvalue())
        except (OSError, ValueError, KeyError) as exc:
            error = f"unreadable output: {type(exc).__name__}: {exc}"
    elif error is None:
        error = f"exit {rc}: {stderr.getvalue().strip()[:200]}"
    return {"seconds": t1 - t0, "span": (t0, t1), "fingerprint": fp, "error": error}


def main(plan_path, result_path):
    if sys.flags.optimize:
        sys.exit("refusing to run under -O: it strips rule4's condition-1 cross-check")
    cli, import_s = _import_program()

    import json
    import os
    import resource

    with open(plan_path) as fh:
        plan = json.load(fh)
    src = os.path.realpath(plan["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"imported {cli.__file__}, not the package under {src}")

    argvs = plan["argvs"]
    records = []

    def run(i, traced):
        argv = argvs[i % len(argvs)]
        rec = _run_op(cli, argv, argv[argv.index("--out") + 1], argv[0])
        rec.update(config=i % len(argvs), traced=traced)
        records.append(rec)
        return rec["seconds"]

    result = {"import_s": import_s}
    if not plan["trace"]:
        import calibrate

        sampler = calibrate.Sampler()
        sampler.start()
        try:
            start = time.perf_counter()
            i = 0
            while True:
                run(i, False)
                i += 1
                elapsed = time.perf_counter() - start
                if elapsed >= plan["deadline"]:
                    break
                if i >= plan["min_ops"] and i % plan["cycle"] == 0 and elapsed >= plan["seconds"]:
                    break
        finally:
            sampler.stop()
        for rec in records:
            rec["seconds"], rec["scale"] = sampler.program_time(*rec.pop("span"))
        result["import_scale"] = calibrate.scale(sampler.probes[0][2], sampler.probes[0][2])
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        from tracer import Tracer

        n = plan["trace_ops"]
        untraced = sum(run(i, False) for i in range(n))
        tracer = Tracer()
        tracer.install()
        try:
            traced = 0.0
            for i in range(n):
                tracer.op_id = i
                traced += run(i, True)
        finally:
            tracer.uninstall()
        tracer.dump(plan["spans"])
        result["trace"] = tracer.summary(n, untraced, traced)
    result["records"] = records
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
