"""Four-workload benchmark: fuzz, faults, repair and serve.

Run from the repository root::

    python3 perfbench/run.py --workload fuzz --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload repair --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --steadiness --seed 1

A run is made of rounds. A round is a fresh Python process
(``perfbench/workloads.py``) that runs the workload's seeded job list
once; a run makes as many rounds as fit in ``--seconds`` on the
reference host (at least one), the same number on any host.
Between jobs, and every quarter second of CPU time within them, a round
times a fixed calibration loop, and every end-to-end time is scaled to
the reference host speed: it is multiplied by ``REFERENCE_CAL_S`` over
the median calibration time during it. A job's time is then its median
over the run's untraced rounds. Before the first round, set-up probes
(fresh processes that set up as a round does and stop) add samples to
``setup_s``, the median scaled set-up time of the run.

``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics; ``--steadiness`` runs two sets of runs of the same
code and compares them against the bounds in ``BENCHMARK.json``. The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("fuzz", "faults", "repair", "serve")

#: Seconds a round of each workload takes on the reference host, rounded
#: up so that the run's set-up probes fit as well: a run makes
#: ``--seconds`` // this many rounds (at least one; with --trace 1, two).
#: The count must not follow the host's speed: with right-skewed job
#: times, a job's median over three rounds reads lower than over two.
ROUND_SECONDS = {"fuzz": 22.0, "faults": 7.5, "repair": 10.0, "serve": 6.0}
#: A round that runs longer than this is killed and counted as failed.
ROUND_TIMEOUT = 60.0
#: Set-up probes before the first round: with the untraced rounds' own
#: set-ups they give ``setup_s`` its samples.
SETUP_PROBES = 4
#: End-to-end times are scaled to a host on which one calibration loop
#: (``workloads.calibrate``) takes this long: roughly its median on the
#: 2-core machine the reference figures in README.md come from.
REFERENCE_CAL_S = 0.0035
#: A job's scale comes from the calibration samples taken while it ran,
#: and at least this many: the ones nearest to it.
CAL_MIN = 5
#: Sets of runs the steadiness mode compares, and runs per workload in
#: each set.
SETS = 2
RUNS = 10


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------


def run_round(workload, seed, mode, scratch_root):
    """One fresh-process round (*mode* ``"0"``, ``"1"`` for traced, or
    ``"setup"`` for a set-up probe); returns its result dict (``None`` if
    it crashed)."""
    scratch = tempfile.mkdtemp(prefix="round-", dir=scratch_root)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = scratch
    command = [
        sys.executable, os.path.join(HERE, "workloads.py"),
        workload, str(seed), mode, scratch,
    ]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        command, cwd=scratch, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=ROUND_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += "\nround killed after %.0fs" % ROUND_TIMEOUT
    # Whatever the round started (serve's server and worker) is in its
    # session; make sure none of it outlives the round.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    shutil.rmtree(scratch, ignore_errors=True)
    lines = out.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is None:
        sys.stderr.write("%s round (seed %d) failed, exit %s:\n%s\n"
                         % (workload, seed, proc.returncode, err[-3000:]))
        return None
    at = result["first_job_at"]
    result["setup_s"] = (at - spawned) * scale(result["cal"], at, at)
    return result


def run_rounds(workload, seed, seconds, trace):
    """The run's set-up probes and rounds; traced ones alternate.

    Returns ``(rounds, setups, crashed_probes)``: ``(traced, result)``
    pairs, the set-up times of the probes and untraced rounds, and how
    many probes crashed.
    """
    scratch_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    rounds = []
    setups = []
    crashed_probes = 0
    count = max(int(seconds // ROUND_SECONDS[workload]), 1 + trace)
    try:
        for _ in range(SETUP_PROBES):
            probe = run_round(workload, seed, "setup", scratch_root)
            if probe is None:
                crashed_probes += 1
            else:
                setups.append(probe["setup_s"])
        for index in range(count):
            # With --trace 1 rounds alternate untraced, traced, untraced, ...
            traced = trace and index % 2 == 1
            result = run_round(workload, seed, "1" if traced else "0",
                               scratch_root)
            rounds.append((traced, result))
            if result is not None and not traced:
                setups.append(result["setup_s"])
    finally:
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass
    return rounds, setups, crashed_probes


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def per_job(rounds, reduce):
    """``{job name: reduce(its seconds in each of *rounds*)}`` in job
    order; each round is a list of jobs, scaled or not.

    Failed jobs did no work a user waits for; they are left out.
    """
    times = {}
    for jobs in rounds:
        for name, seconds, _units, failed, *_span in jobs:
            if not failed:
                times.setdefault(name, []).append(seconds)
    return {name: reduce(each) for name, each in times.items()}


def scale(cal, start, end):
    """Factor that brings a time measured from *start* to *end* to the
    reference host: the calibration samples taken in that span (at least
    the ``CAL_MIN`` nearest), median, against ``REFERENCE_CAL_S``."""
    def distance(sample):
        return max(start - sample[0], sample[0] - end, 0.0)

    ranked = sorted(cal, key=distance)
    inside = sum(1 for sample in ranked if distance(sample) == 0.0)
    nearest = ranked[:max(CAL_MIN, inside)]
    return REFERENCE_CAL_S / statistics.median(c for _at, c in nearest)


def scaled_jobs(result):
    """A round's jobs with their times scaled to the reference host.

    A ``serve`` job's time includes the client's poll sleeps; they are
    scaled too, because the worker computes while the client sleeps.
    """
    return [
        (name, seconds * scale(result["cal"], start, end), units, failed)
        for name, seconds, units, failed, start, end in result["jobs"]
    ]


def scaled_median(results):
    """``{job name: median scaled seconds}`` over the rounds *results*.

    The median, not the minimum: over five seeds of ``faults`` with three
    rounds each, ``items_per_s`` built from per-job medians spread 3.9 %,
    from per-job minima 6.4 % (the minimum picks up the calibration
    samples' own noise).
    """
    return per_job((scaled_jobs(r) for r in results), statistics.median)


def end_to_end(results, setups):
    median = scaled_median(results)
    units_of = {job[0]: job[2] for job in results[0]["jobs"]}
    units = sum(units_of[name] for name in median)
    return {
        "setup_s": statistics.median(setups),
        "items_per_s": units / sum(median.values()),
        "job_p50_ms": 1000.0 * statistics.median(median.values()),
        "peak_rss_mb": max(r["peak_rss_kb"] for r in results) / 1024.0,
    }


def _median_ms(values):
    return 1000.0 * statistics.median(values) if values else 0.0


def serve_metrics(results):
    """Client-side serve latencies: per-position minima, then medians."""
    first = results[0]["extra"]
    total = per_job((r["jobs"] for r in results), min)
    names = list(total)
    submit = [min(r["extra"]["submit_s"][i] for r in results)
              for i in range(len(names))]
    exec_s = [min(r["extra"]["exec_s"][i] for r in results)
              for i in range(len(first["exec_s"]))]
    miss = [total[n] for n, m in zip(names, first["miss"]) if m]
    hit = [total[n] for n, m in zip(names, first["miss"]) if not m]
    polls = [p for r in results for p in r["extra"]["polls"]]
    metrics = {
        "serve.submit_ms": _median_ms(submit),
        "serve.hit_ms": _median_ms(hit),
        "serve.miss_ms": _median_ms(miss),
        "serve.polls_per_job": statistics.mean(polls),
        "serve.exec_ms": _median_ms(exec_s),
        "serve.hit_ratio": first["hits"] / float(len(names)),
    }
    metrics["serve.dispatch_ms"] = (
        metrics["serve.miss_ms"] - metrics["serve.exec_ms"])
    return metrics


#: Work counts that must repeat exactly in every traced round.
EXACT_COUNTS = ("sim.simulations", "sim.cycles", "repair.validate.calls")


def layer_metrics(workload, traced, untraced, names):
    """Every per-layer metric in *names* from the traced rounds.

    Counts come from the first traced round (and must repeat exactly);
    times are each metric's minimum over traced rounds.
    """
    def calls(layers, key):
        return layers["stats"].get(key, [0, 0.0])[0]

    def self_s(key):
        return min(r["layers"]["stats"].get(key, [0, 0.0])[1] for r in traced)

    def count(layers, key):
        return layers["counts"].get(key, 0)

    def derived(result):
        layers = result["layers"]
        m = {}
        for key in ("hdl.parse", "hdl.elaborate", "flow.absint",
                    "core.instrument", "sim.settle", "repair.instantiate",
                    "repair.validate"):
            m[key + ".calls"] = calls(layers, key)
        m["sim.simulations"] = calls(layers, "sim.init")
        m["sim.cycles"] = count(layers, "sim.cycles")
        m["repair.hang.count"] = count(layers, "repair.hang.count")
        m["runtime.journal.appends"] = calls(layers, "runtime.journal")
        return m

    per_round = [derived(r) for r in traced]
    metrics = dict(per_round[0])
    problems = []
    for key in EXACT_COUNTS:
        values = sorted({m[key] for m in per_round})
        if len(values) > 1:
            problems.append("%s differs across traced rounds: %s"
                            % (key, values))
    for key in ("hdl.parse", "hdl.elaborate", "hdl.codegen", "flow.absint",
                "flow.analyze", "diag.check", "core.instrument", "sim.settle",
                "sim.step", "faults.scorer_init", "faults.score",
                "wave.capture", "wave.diff", "testbed.scenario",
                "repair.sites", "repair.instantiate", "repair.validate",
                "repair.rank", "runtime.journal", "fuzz.generate",
                "fuzz.mutate"):
        metrics[key + ".self_s"] = self_s(key)
    for name in names:
        if name.startswith("fuzz.oracle."):
            metrics[name] = self_s(name[:-len(".self_s")])
    metrics["repair.hang.wait_s"] = min(
        count(r["layers"], "repair.hang.wait_s") for r in traced)
    cycles = metrics["sim.cycles"]
    metrics["sim.us_per_cycle"] = (
        1e6 * (metrics["sim.step.self_s"] + metrics["sim.settle.self_s"])
        / cycles if cycles else 0.0)
    extra = traced[0]["extra"]
    jobs = len(traced[0]["jobs"])
    metrics["faults.sims_per_case"] = (
        metrics["sim.simulations"] / float(jobs) if workload == "faults"
        else 0.0)
    metrics["fuzz.valid_per_case"] = (
        extra["ok_cases"] / float(jobs) if workload == "fuzz" else 0.0)
    metrics["repair.plausible_per_tried"] = (
        extra["passed"] / float(extra["tried"]) if workload == "repair"
        else 0.0)
    serve = serve_metrics(untraced) if workload == "serve" else {}
    for name in names:
        if name.startswith("serve."):
            metrics[name] = serve.get(name, 0.0)
    if workload == "serve":
        # Only the in-process re-execution is traced on serve.
        def exec_total(results):
            return sum(min(r["extra"]["exec_s"][i] for r in results)
                       for i in range(len(results[0]["extra"]["exec_s"])))
        metrics["trace.overhead"] = exec_total(traced) / exec_total(untraced)
    else:
        metrics["trace.overhead"] = (
            sum(scaled_median(traced).values())
            / sum(scaled_median(untraced).values()))
    missing = [name for name in names if name not in metrics]
    if missing:
        problems.append("no value for %s" % ", ".join(missing))
    return {name: metrics.get(name, 0.0) for name in names}, problems


def summarize(workload, rounds, setups, crashed_probes, trace, bench):
    ok_rounds = [result for _traced, result in rounds if result is not None]
    untraced = [r for traced, r in rounds if r is not None and not traced]
    traced = [r for traced, r in rounds if r is not None and traced]
    expected = len(ok_rounds[0]["jobs"]) if ok_rounds else 1
    attempted = sum(r["attempted"] for r in ok_rounds)
    failed = sum(r["failed"] for r in ok_rounds)
    crashed = len(rounds) - len(ok_rounds)
    attempted += crashed * expected
    failed += crashed * expected
    problems = ["%d round(s) crashed" % crashed] if crashed else []
    if crashed_probes:
        problems.append("%d set-up probe(s) crashed" % crashed_probes)
    failures = []
    for result in ok_rounds:
        problems.extend(result["problems"])
        failures.extend(result["failures"])
    units = sorted({tuple(job[2] for job in r["jobs"]) for r in ok_rounds})
    if len(units) > 1:
        problems.append("work units differ across rounds: %s" % units)
    hangs = sorted({r["hangs"] for r in ok_rounds})
    if len(hangs) > 1:
        problems.append("hang verdicts differ across rounds: %s" % hangs)
    summary = {
        "workload": workload,
        "rounds": [len(untraced), len(traced)],
        "attempted": attempted,
        "failed": failed,
        "hangs": hangs[0] if hangs else 0,
        "failures": failures,
        "problems": problems,
        "cal_median": statistics.median(
            c for r in ok_rounds for _at, c in r["cal"]) if ok_rounds else 0.0,
        "end_to_end": end_to_end(untraced, setups) if untraced else {},
        "per_layer": {},
    }
    if trace and traced and untraced:
        names = [m["name"] for m in bench["per_layer"]]
        summary["per_layer"], layer_problems = layer_metrics(
            workload, traced, untraced, names)
        problems.extend(layer_problems)
    return summary


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def print_table(title, specs, values):
    print(title)
    for spec in specs:
        value = values.get(spec["name"])
        shown = "—" if value is None else "%.6g" % value
        print("  %-34s %14s %-6s (%s is better)"
              % (spec["name"], shown, spec["unit"], spec["better"]))


def report(summary, trace, bench):
    workload = summary["workload"]
    untraced, traced = summary["rounds"]
    print("workload %s: %d untraced round(s), %d traced"
          % (workload, untraced, traced))
    print_table("end-to-end (per-job medians over untraced rounds, "
                "scaled to the reference host):",
                bench["end_to_end"], summary["end_to_end"])
    if trace:
        print_table("per-layer (traced rounds):", bench["per_layer"],
                    summary["per_layer"])
    print("attempted %d  failed %d  hang verdicts per round %d"
          % (summary["attempted"], summary["failed"], summary["hangs"]))
    print("calibration loop: median %.3f ms (reference %.3f ms)"
          % (1000 * summary["cal_median"], 1000 * REFERENCE_CAL_S))
    for line in summary["failures"][:20]:
        print("  failed: %s" % line)
    for line in summary["problems"][:20]:
        print("  WRONG: %s" % line)
    specs = bench["per_layer"] if trace else bench["end_to_end"]
    source = summary["per_layer"] if trace else summary["end_to_end"]
    correct = not summary["problems"] and all(
        spec["name"] in source for spec in specs)
    metrics = {
        spec["name"]: {"value": source[spec["name"]], "unit": spec["unit"]}
        for spec in specs if spec["name"] in source
    }
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }, sort_keys=True))


# ---------------------------------------------------------------------------
# Steadiness mode
# ---------------------------------------------------------------------------


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def steadiness(args, bench):
    """Two sets of runs of the same code, compared against the bounds.

    Each set runs every workload on seeds ``--seed`` .. ``--seed`` + 9,
    one run per seed, so a set's spread holds both host noise and the
    difference between seeds' inputs. Both sets use the same seeds, so
    the drift between their medians is host noise alone.
    """
    seeds = [args.seed + i for i in range(RUNS)]
    sets = []
    for set_index in range(SETS):
        runs = {w: [] for w in WORKLOADS}
        for seed in seeds:
            for workload in WORKLOADS:
                command = [
                    sys.executable, os.path.join(HERE, "run.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", "0",
                ]
                started = time.monotonic()
                done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                      text=True)
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    sys.stderr.write(done.stderr[-3000:])
                    raise SystemExit("%s run (seed %d) printed no result"
                                     % (workload, seed))
                result = json.loads(lines[-1])
                runs[workload].append(result)
                sys.stderr.write(
                    "set %d seed %d %-6s %5.1fs correct=%s failed=%d/%d %s\n"
                    % (set_index + 1, seed, workload,
                       time.monotonic() - started, result["correct"],
                       result["failed"], result["attempted"],
                       " ".join("%s=%.4g" % (name, m["value"]) for name, m
                                in sorted(result["metrics"].items()))))
        sets.append(runs)
    print("steadiness: %d sets x %d runs, seeds %d..%d, --seconds %d"
          % (SETS, RUNS, seeds[0], seeds[-1], args.seconds))
    print("%-7s %-12s  %-31s  %-31s  %6s  %5s  %s" % (
        "load", "metric", "set1 median [q1, q3] spread",
        "set2 median [q1, q3] spread", "drift", "bound", "verdict"))
    steady = True
    for workload in WORKLOADS:
        for spec in bench["end_to_end"]:
            name = spec["name"]
            line = "%-7s %-12s" % (workload, name)
            medians = []
            spreads = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs[workload]]
                q1, median, q3 = quartiles(values)
                medians.append(median)
                spreads.append((q3 - q1) / median)
                line += "  %9.4g [%.4g, %.4g] %5.1f%%" % (
                    median, q1, q3, 100 * spreads[-1])
            bound = spec["bound"]
            # Worse is positive; a change either way counts against the bound.
            drift = (medians[1] - medians[0]) / medians[0]
            if spec["better"] == "higher":
                drift = -drift
            ok = abs(drift) <= bound and max(spreads) <= bound
            steady &= ok
            line += "  %+5.1f%%  %4.0f%%  %s" % (
                100 * drift, 100 * bound,
                "FAIL" if not ok else "ok" if max(spreads) < bound / 3
                else "ok (spread > bound/3)")
            print(line)
        shares = [
            (sum(r["failed"] for r in runs[workload]),
             sum(r["attempted"] for r in runs[workload]))
            for runs in sets
        ]
        same = len({failed / attempted for failed, attempted in shares}) == 1
        steady &= same
        print("%-7s failed per set: %s%s" % (
            workload, ", ".join("%d/%d" % share for share in shares),
            "" if same else "  FAIL: the failed share differs"))
    return 0 if steady else 1


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true",
                        help="two sets of runs, compared against the bounds")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.stderr.write("error: no program to measure: src/repro is missing "
                         "under %s\n" % ROOT)
        return 2
    bench = load_benchmark()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.steadiness:
        return steadiness(args, bench)
    if args.workload is None:
        parser.error("--workload is required")
    rounds, setups, crashed_probes = run_rounds(
        args.workload, args.seed, args.seconds, args.trace)
    summary = summarize(args.workload, rounds, setups, crashed_probes,
                        args.trace, bench)
    report(summary, args.trace, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
