"""Time-to-verdict benchmark for the loccforge command line.

    python3 bench/run.py --workload bases --seed 1 --seconds 40 --trace 0

One process and one client in a closed loop: the benchmark calls
``loccforge.cli.main`` in-process with one invocation at a time, each with
``--format json``, on measurement documents it writes during set-up. A pass
replays the workload's pinned corpus (``bench/corpus.json``) once, in an order
that ``--seed`` fixes for the whole run. Passes repeat while the next one is
expected to end within ``--seconds``; there are at least two, so that every
report can be compared byte for byte with the first pass's. Answers are
checked after each pass, outside the timed region. Pass and set-up times are
normalised for the host's drifting speed by the probes of ``speed.py``.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json. ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics,
including ``trace.overhead_ratio``; its spans are written to
``.bench_work/trace-<workload>.jsonl`` when the run ends. Every metric is
printed by name with its unit, and the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The benchmark exits 1 without that line when it cannot run: no
program to import, a missing fixture, or a corpus document whose digest
differs from the pinned one.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import os
import pathlib
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("bases", "random-trees", "nogo")

# BLAS and OpenMP pools would run threads outside the program's own path
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
MIN_PASSES = 2
STATS = ("lps_solved", "trees_built", "rounds", "classes_found")
SYNTH_EXIT = {"Protocol": 0, "ProvedImpossible": 2, "BudgetExhausted": 3}
# End-to-end values printed beside the gated ones of BENCHMARK.json. Raw pass
# time drifts with the host's speed by more than any bound allows; with 6 to
# 26 invocations per pass the pooled percentiles rest on few samples and
# fall between instances; failed_ratio is 0 on a correct program.
UNGATED = (("wall_s", "s"), ("probe_ms", "ms"), ("verdict_ms_p50", "ms"),
           ("verdict_ms_p90", "ms"), ("failed_ratio", "ratio"))
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import loccforge.cli; "
                "print(time.perf_counter() - t)")


class BenchError(Exception):
    """The benchmark cannot run here; it exits 1 without a result."""


def clean_environment():
    """Run before numpy or loccforge is imported."""
    os.environ.pop("LOCCFORGE_CONFIG", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    sys.path.insert(0, str(SRC))
    try:
        import loccforge.cli
    except ImportError as e:
        raise BenchError(f"cannot import loccforge from {SRC}: {e}") from e
    if not pathlib.Path(loccforge.cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"loccforge was imported from {loccforge.cli.__file__}, "
                         f"not from {SRC}")
    return loccforge.cli


# ------------------------------------------------------------------ set-up

@dataclasses.dataclass(frozen=True)
class Doc:
    path: pathlib.Path
    measurement: object
    digest: str


def write_documents(manifest, names, directory):
    """Generate and write each document, refusing any digest drift."""
    import corpus
    from loccforge.errors import LoccForgeError
    from loccforge.io import measurement_digest, parse_measurement, serialize_measurement
    from loccforge.measurement import measurement_from_parts

    docs = {}
    for name in names:
        source = manifest["instances"][name]
        if "fixture" in source:
            path = ROOT / source["fixture"]
        else:
            path = directory / f"{name}.json"
            parts = corpus.instance_parts(source)
            path.write_text(serialize_measurement(measurement_from_parts(parts)))
        try:
            m = parse_measurement(path.read_text())
        except (OSError, LoccForgeError) as e:
            raise BenchError(f"cannot read corpus document {path}: {e}") from e
        digest = measurement_digest(m)
        if digest != source["digest"]:
            raise BenchError(f"corpus document {name} has digest {digest}, "
                             f"pinned {source['digest']}; refusing to run")
        docs[name] = Doc(path, m, digest)
    return docs


def child_import_seconds():
    """Import time of loccforge.cli in a fresh interpreter."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                           capture_output=True, text=True, timeout=120,
                           check=False)
    if probe.returncode != 0:
        raise BenchError(f"import probe failed: {probe.stderr.strip()}")
    return float(probe.stdout)


def set_up(manifest, names, directory, probe):
    """The documents, and the median normalised time of several set-ups."""
    samples = []
    for _ in range(SETUP_REPEATS):
        with probe:
            start = time.perf_counter()
            docs = write_documents(manifest, names, directory)
            seconds = time.perf_counter() - start - probe.probe_seconds()
            seconds += child_import_seconds()
        samples.append(probe.normalise(seconds))
    return docs, statistics.median(samples)


# ------------------------------------------------------------------ passes

@dataclasses.dataclass(frozen=True)
class Step:
    """One CLI call; a lift step replays the protocol its synthesis saved."""

    key: str
    argv: tuple
    inv: object
    lift: bool = False
    save: pathlib.Path | None = None


def plan(invs, docs, directory, seed):
    units = list(invs)
    random.Random(seed).shuffle(units)
    steps = []
    for inv in units:
        doc = str(docs[inv.instance].path)
        argv = (inv.command, doc, "--format", "json", *inv.flags)
        if inv.command != "synthesize":
            steps.append(Step(inv.key, argv, inv))
            continue
        save = directory / f"{inv.instance}.protocol.json"
        steps.append(Step(inv.key, argv + ("--save", str(save)), inv, save=save))
        if inv.lift:
            steps.append(Step(inv.key + "+lift", ("lift", doc, "--protocol", str(save),
                                                  "--format", "json"), inv, lift=True))
    return steps


@dataclasses.dataclass
class Outcome:
    rc: int | None
    stdout: str
    stderr: str
    seconds: float
    crash: str | None
    saved: str | None = None


def call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    rc = crash = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        except Exception:
            crash = traceback.format_exc()
    seconds = time.perf_counter() - start
    return Outcome(rc, out.getvalue(), err.getvalue(), seconds, crash)


def run_pass(steps, main, tracer=None, first_trace=0, probe=None):
    """Replay the steps once; their outcomes, the pass's wall time without
    the speed probes, and that time normalised by the probes (or None)."""
    for s in steps:
        if s.save is not None and s.save.exists():
            s.save.unlink()
    gc.collect()
    outcomes = []
    with probe if probe is not None else contextlib.nullcontext():
        start = time.perf_counter()
        for i, s in enumerate(steps):
            if tracer is None:
                outcomes.append(call(main, s.argv))
            else:
                outcomes.append(call(
                    lambda argv, tid=first_trace + i: tracer.invocation(tid, main, argv),
                    s.argv))
        wall = time.perf_counter() - start
    norm = None
    if probe is not None:
        wall -= probe.probe_seconds()
        norm = probe.normalise(wall)
    for s, o in zip(steps, outcomes):
        if s.save is not None and s.save.exists():
            o.saved = s.save.read_text()
    return outcomes, wall, norm


# ------------------------------------------------------------------ checks

@dataclasses.dataclass
class Judgement:
    failure: str | None = None
    decided: bool = False
    stats: dict | None = None     # synthesize report counters
    record: list | None = None    # verdict, lps_solved, trees_built, rounds


def recheck_protocol(text, doc):
    """Why a saved protocol fails to reproduce the measurement, or None."""
    from loccforge.errors import LoccForgeError
    from loccforge.io import parse_protocol
    from loccforge.tree import validate_assignment

    if text is None:
        return "no protocol was saved"
    try:
        p = parse_protocol(text)
        if p.tree is None or p.assignment is None:
            return "saved protocol carries no tree"
        if p.measurement_digest != doc.digest:
            return "saved protocol names another measurement"
        if not validate_assignment(p.tree, doc.measurement, p.assignment,
                                   pin_identities=True):
            return "saved protocol fails revalidation"
    except LoccForgeError as e:
        return f"saved protocol unreadable: {e}"
    return None


def judge(step, o, doc, exhaustive_n):
    """Compare one outcome with the known answer and the exit code contract.

    A check-nogo answer is decided when it names a witness or the partition
    scan was exhaustive; a synthesize answer when it is not BudgetExhausted.
    """
    inv = step.inv
    if o.crash is not None:
        return Judgement("traceback: " + o.crash.strip().splitlines()[-1])
    if inv.expect == "error":
        if o.rc == 1 and o.stderr.startswith("error: "):
            return Judgement()
        return Judgement(f"expected exit 1 with a message, got exit {o.rc}")
    if o.rc == 1:
        return Judgement(o.stderr.strip() or "exit 1 without a message")
    try:
        payload = json.loads(o.stdout)
    except ValueError:
        return Judgement(f"exit {o.rc} with an unreadable report")
    if step.lift:
        if o.rc != 0 or payload.get("command") != "lift" or not payload.get("tails"):
            return Judgement(f"lift gave exit {o.rc} and no tails")
        return Judgement()
    if inv.command == "check-nogo":
        found = "witness" if payload.get("witness") else "no-witness"
        if o.rc != (2 if found == "witness" else 0):
            return Judgement(f"check-nogo exit {o.rc} for {found}")
        if found != inv.expect:
            return Judgement(f"reported {found}, known answer {inv.expect}")
        return Judgement(decided=found == "witness"
                         or len(doc.measurement) <= exhaustive_n)
    verdict = payload.get("verdict")
    stats = {k: payload["stats"][k] for k in STATS}
    j = Judgement(stats=stats, record=[verdict] + [stats[k] for k in STATS[:3]])
    if o.rc != SYNTH_EXIT.get(verdict):
        j.failure = f"synthesize exit {o.rc} for verdict {verdict}"
    elif verdict == "BudgetExhausted":
        pass
    elif verdict != inv.expect:
        j.failure = f"reported {verdict}, known answer {inv.expect}"
    else:
        j.decided = True
        if verdict == "Protocol":
            j.failure = recheck_protocol(o.saved, doc)
    return j


# ------------------------------------------------------------------ metrics

@dataclasses.dataclass
class Tally:
    """Everything the passes of one run measured and found."""

    walls: list = dataclasses.field(default_factory=list)        # (wall, traced)
    norms: list = dataclasses.field(default_factory=list)        # normalised walls
    probes: list = dataclasses.field(default_factory=list)       # probe seconds
    times: list = dataclasses.field(default_factory=list)        # untraced seconds
    counters: list = dataclasses.field(default_factory=list)     # per pass
    failures: list = dataclasses.field(default_factory=list)     # (key, message)
    decided: int = 0
    questions: int = 0
    attempted: int = 0
    records: dict = dataclasses.field(default_factory=dict)      # key -> record
    kept: list = dataclasses.field(default_factory=list)         # (trace id, trees)
    first: dict = dataclasses.field(default_factory=dict)        # key -> output

    def add_pass(self, steps, outcomes, wall, traced, docs, exhaustive_n,
                 first_trace):
        self.walls.append((wall, traced))
        summed = dict.fromkeys(STATS, 0)
        for i, (s, o) in enumerate(zip(steps, outcomes)):
            self.attempted += 1
            if not traced:
                self.times.append(o.seconds)
            doc = docs[s.inv.instance]
            j = judge(s, o, doc, exhaustive_n)
            output = self.first.setdefault(s.key, (o.stdout, o.saved))
            if j.failure is None and output != (o.stdout, o.saved):
                j.failure = "report differs from the first pass"
            if j.failure is not None:
                self.failures.append((s.key, j.failure))
            if not s.lift and s.inv.expect != "error":
                self.questions += 1
                self.decided += j.decided
                if s.inv.command == "synthesize":
                    self.records[s.key] = j.record or [None] * 4
            if j.stats:
                for k in STATS:
                    summed[k] += j.stats[k]
                if traced:
                    self.kept.append((first_trace + i,
                                      j.stats["trees_built"] - len(doc.measurement)))
        self.counters.append(summed)

    def wall(self, traced):
        return statistics.median(w for w, t in self.walls if t == traced)


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(tally, setup_s):
    times = tally.times
    return {
        "setup_s": setup_s,
        "wall_norm_s": statistics.median(tally.norms) if tally.norms else None,
        "wall_s": tally.wall(False),
        "probe_ms": 1e3 * statistics.median(tally.probes) if tally.probes else None,
        "verdict_ms_p50": 1e3 * statistics.median(times),
        "verdict_ms_p90": 1e3 * statistics.quantiles(times, n=10, method="inclusive")[8],
        "decided_ratio": ratio(tally.decided, tally.questions),
        "failed_ratio": ratio(len(tally.failures), tally.attempted),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tally, tracer):
    n = sum(1 for _, t in tally.walls if t)
    summary = tracer.summary()
    out = {}
    for name, s in summary.items():
        for stat in ("calls", "self_s", "total_s"):
            out[f"{name}.{stat}"] = s[stat] / n
    fp = summary["simplex.feasible_point"]
    out["simplex.feasible_point.none_ratio"] = ratio(fp["calls"] - fp["ok"], fp["calls"])
    for name in ("synthesis._class_feasible", "synthesis.feasibility"):
        out[f"{name}.feasible_ratio"] = ratio(summary[name]["ok"], summary[name]["calls"])
    merges = tracer.calls_by_trace("tree.merge_and_extend")
    out["tree.new_tree_ratio"] = ratio(sum(k for _, k in tally.kept),
                                       sum(merges[t] for t, _ in tally.kept))
    for k in STATS:
        out[f"synthesis.stats.{k}"] = tally.counters[-1][k]
    out["trace.overhead_ratio"] = tally.wall(True) / tally.wall(False)
    out["trace.spans"] = len(tracer.spans) / n
    return out


def notes(tally, manifest, steps, seed):
    known = manifest.get("known_defects", {})
    recorded = manifest.get("recorded", {})
    lines = []
    for key, msg in sorted(set(tally.failures)):
        tag = "known defect" if known.get(key) == msg else "FAILED"
        count = tally.failures.count((key, msg))
        lines.append(f"{tag}: {key} in {count} of {len(tally.walls)} passes: {msg}")
    keys = {s.key for s in steps}
    for key in sorted(set(known) & keys - {k for k, _ in tally.failures}):
        lines.append(f"known defect no longer reproduces: {key}")
    changed = {k: r for k, r in tally.records.items() if recorded.get(k) != r}
    if tally.records:
        lines.append(f"records (verdict, lps, trees, rounds): {len(tally.records) - len(changed)} "
                     f"of {len(tally.records)} as in corpus.json")
    for key, rec in sorted(changed.items()):
        lines.append(f"record changed: {key} {rec}, recorded {recorded.get(key)}")
    if any(c != tally.counters[0] for c in tally.counters):
        lines.append("FAILED: synthesis counters differ between passes")
    walls = ", ".join(f"{w:.3f}" + (" traced" if t else "") for w, t in tally.walls)
    lines.append(f"seed {seed}: {len(tally.walls)} passes of {len(steps)} "
                 f"invocations, seconds per pass: {walls}")
    if tally.norms:
        norms = ", ".join(f"{w:.3f}" for w in tally.norms)
        lines.append(f"normalised seconds per pass: {norms}; "
                     f"{len(tally.probes)} speed probes")
    lines.append(f"verdict times pooled over {len(tally.times)} untraced invocations")
    lines.append(f"decided: {tally.decided} of {tally.questions} questions with a known "
                 f"answer; failed: {len(tally.failures)} of {tally.attempted} invocations")
    return lines


# ------------------------------------------------------------------ entry point

@dataclasses.dataclass
class Report:
    values: dict
    correct: bool
    attempted: int
    failed: int


def measure(args):
    clean_environment()
    cli = import_program()
    sys.path.insert(0, str(HERE))
    import corpus
    from loccforge.config import load_config

    manifest = corpus.load_manifest()
    invs = corpus.invocations(manifest, args.workload)
    directory = WORK / args.workload
    directory.mkdir(parents=True, exist_ok=True)
    import speed
    docs, setup_s = set_up(manifest, list(dict.fromkeys(i.instance for i in invs)),
                           directory, speed.SpeedProbe(speed.SETUP_INTERVAL_S))
    steps = plan(invs, docs, directory, args.seed)
    exhaustive_n = load_config(None, {}).partition_exhaustive_n

    tracer = probe = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    else:
        probe = speed.SpeedProbe(speed.INTERVAL_S)
    tally = Tally()
    start = time.perf_counter()
    while True:
        n = len(tally.walls)
        # a traced run alternates untraced and traced passes, in pairs
        traced = tracer is not None and n % 2 == 1
        if traced:
            tracer.install()
            try:
                outcomes, wall, _ = run_pass(steps, cli.main, tracer, n * len(steps))
            finally:
                tracer.remove()
        else:
            outcomes, wall, norm = run_pass(steps, cli.main, probe=probe)
            if probe is not None:
                tally.norms.append(norm)
                tally.probes.extend(probe.samples)
        tally.add_pass(steps, outcomes, wall, traced, docs, exhaustive_n, n * len(steps))
        n += 1
        elapsed = time.perf_counter() - start
        step = 1 if tracer is None else 2
        if n >= MIN_PASSES and n % step == 0 and elapsed * (n + step) / n > args.seconds:
            break

    values = end_to_end(tally, setup_s)
    lines = notes(tally, manifest, steps, args.seed)
    if tracer is not None:
        values.update(per_layer(tally, tracer))
        out = WORK / f"trace-{args.workload}.jsonl"
        tracer.write(out)
        lines.append(f"spans written to {out.relative_to(ROOT)}")
        if tracer.missing:
            lines.append("not traced, lookup missing: " + ", ".join(sorted(set(tracer.missing))))
    for line in lines:
        print(line)
    known = manifest.get("known_defects", {})
    correct = (all(known.get(k) == msg for k, msg in tally.failures)
               and all(c == tally.counters[0] for c in tally.counters))
    return Report(values, correct, tally.attempted, len(tally.failures))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        report = measure(args)
    except (BenchError, OSError) as e:
        sys.stderr.write(f"bench: {e}\n")
        return 1
    metrics = {}
    for m in spec["per_layer"] if args.trace else spec["end_to_end"]:
        if m["name"] not in report.values:
            sys.stderr.write(f"bench: metric {m['name']} was not measured\n")
            return 1
        value = report.values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:48s} {value:14.6g} {m['unit']}")
    if not args.trace:
        for name, unit in UNGATED:
            print(f"{name:48s} {report.values[name]:14.6g} {unit} (not gated)")
    print(json.dumps({"correct": report.correct, "attempted": report.attempted,
                      "failed": report.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
