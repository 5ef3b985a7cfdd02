"""One benchmark pass in a fresh interpreter: set up, then run CLI studies.

    python3 child.py --src SRC --scenario FILE --result FILE [--out DIR]
                     [--studies a,b,c] [--trace SPANS_FILE]

Set-up is what a user pays before the first study: ``import levypme``,
``load_scenario`` and ``build_plan``.  The clock reading taken when the plan is
built is written to the result, so the parent can time set-up from the moment
it started this interpreter.  Each study then runs through ``levypme.cli.main``
exactly as the command line does, report writing included.  Only the standard
library is imported before levypme, so its import cost is not hidden.
"""
import sys
import time


def main(argv):
    import argparse
    import json
    import resource
    import traceback
    from pathlib import Path

    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--out")
    parser.add_argument("--studies", default="")
    parser.add_argument("--trace")
    args = parser.parse_args(argv)

    t_import = time.perf_counter()
    import levypme
    from levypme import cli, scenario
    import_s = time.perf_counter() - t_import

    src = Path(args.src).resolve()
    if src not in Path(levypme.__file__).resolve().parents:
        print(f"levypme imported from {levypme.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer, install, summarize

        tracer = Tracer()
        install(tracer)

    plan = scenario.build_plan(scenario.load_scenario(args.scenario))
    plan_built_at = time.perf_counter()

    studies = [s for s in args.studies.split(",") if s]
    runs = []
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    for run_id, study in enumerate(studies, start=1):
        argv = [study, "--scenario", args.scenario, "--out", str(Path(args.out) / study)]
        if tracer is not None:
            tracer.run_id[0] = run_id
        started = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = "exception"
        runs.append({"study": study, "exit": code, "seconds": time.perf_counter() - started})
        sys.stdout.flush()
    wall_s = time.perf_counter() - t0
    usage1 = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "plan_built_at": plan_built_at,
        "import_s": import_s,
        "inner_tolerance": plan.inner_tolerance,
        "runs": runs,
        "wall_s": wall_s,
        "cpu_s": (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
    }
    if tracer is not None:
        labels = {i: study for i, study in enumerate(studies, start=1)}
        result["trace"] = summarize(tracer, labels, plan.op.basis.shape)
        tracer.save(args.trace)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
