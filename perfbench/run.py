"""The repository benchmark: one command, two workloads.

Run from the repository root::

    python3 perfbench/run.py --workload dictate --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics on ``repro serve --async``
started as is; ``--trace 1`` measures the per-layer ledger instead, from
a daemon started under ``perfbench/launcher.py``, plus the tracing
overhead against an untraced daemon on the same inputs.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``name -> {"value", "unit"}``).  Progress
and problems go to standard error.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import drive, ledger, scoring, workloads  # noqa: E402
from perfbench.daemon import Daemon, DaemonError, program_env  # noqa: E402
from perfbench.stats import (  # noqa: E402
    ANSWERED,
    metric,
    percentile,
    valid_metric_name,
)

#: Why each workload exists is in NOTES.md; both are closed loops on one
#: connection against the Employees daemon.
WORKLOADS = ("dictate", "correct")
#: Cold starts per run; ``setup_s`` is their median.
COLD_STARTS = 3
#: Fixed request sets: the first ``DICTATIONS`` dictations and the first
#: ``SESSIONS`` sessions of every run are the same queries whatever the
#: speed, and the closed loops always get that far, past ``--seconds``
#: if need be.  Every metric but ``setup_s`` and ``peak_rss_mb`` is
#: taken over them, so none depends on how many requests a run fit in.
#: 180 dictations halved the seed-to-seed spread of execution accuracy
#: against 120 (0.14 to 0.08) and leave the ledger's p90 18 samples
#: beyond it.
DICTATIONS = 180
SESSIONS = 800
#: Answered dictations re-run through the library for route parity.
PARITY_SAMPLE = 5
#: Hard wall-clock cap of one run (the caller allows 180 s).
WATCHDOG_S = 150
#: Where traced daemons write their spans (inside the checkout).
SPANS_DIR = ROOT / ".perfbench"


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def hash_seed(seed: int) -> int:
    """``PYTHONHASHSEED`` of every process of a run (see
    ``daemon.program_env`` for why it is pinned)."""
    return workloads.derive_seed("PYTHONHASHSEED", seed)


class Inputs:
    """Every input of one run, made from the workload seed."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.env = program_env(ROOT, hash_seed(seed))
        self.catalog = workloads.employees_catalog()
        train = workloads.training_sql(self.catalog)
        self.exclude = set(train)
        self.engine = None
        if name == "correct":
            from repro.asr import make_custom_engine

            self.engine = make_custom_engine(train)
        self._sessions: list[workloads.Session] = []

    def queries(self) -> workloads.QueryPool:
        return workloads.QueryPool(self.catalog, self.name, self.seed,
                                   self.exclude)

    def sessions(self):
        """Endless session stream; sessions are cached so a second
        phase replays the first one's inputs without rebuilding them."""
        queries = self.queries()
        index = 0
        while True:
            if index == len(self._sessions):
                self._sessions.append(
                    workloads.make_session(self.engine, next(queries))
                )
            yield self._sessions[index]
            index += 1


# -- daemon lifecycle ---------------------------------------------------------


class ColdStart:
    """A daemon spawned and warmed: every lazy build done, so no timed
    request pays for one."""

    def __init__(self, client: drive.Client, inputs: Inputs,
                 spans_out: Path | None = None) -> None:
        from repro.asr import verbalize_sql

        started = time.perf_counter()
        self.daemon = Daemon(ROOT, inputs.env, spans_out)
        try:
            self.daemon.start()
            conn = self.daemon.connect()
            sql = workloads.WARMUP_SQL
            warm = [
                client.dictation(client.next_id(), workloads.Dictation(
                    sql, workloads.WARMUP_ACOUSTIC_SEED)),
                client.turn(client.next_id(), "warmup", 0,
                            text=" ".join(verbalize_sql(sql))),
            ]
            for turn, (clause, text) in enumerate(
                workloads.gold_clauses(sql).items(), start=1
            ):
                edit = {"kind": "token_patch", "clause": clause, "text": text}
                warm.append(client.turn(client.next_id(), "warmup", turn,
                                        edit=edit))
            for frame in warm:
                outcome, reply, _ = client.exchange(conn, frame)
                if outcome != "served":
                    raise DaemonError(f"warm-up request not served: {reply}")
            conn.close()
        except BaseException:
            self.daemon.kill()
            raise
        self.ready_at = time.perf_counter()
        self.setup_s = self.ready_at - started


def cold_starts(client: drive.Client, inputs: Inputs, count: int,
                spans_out: Path | None = None) -> tuple[ColdStart, list[float]]:
    """``count`` cold starts in fresh processes; all but the last are
    stopped.  Returns the last and every set-up time."""
    times = []
    for index in range(count):
        start = ColdStart(client, inputs, spans_out)
        times.append(start.setup_s)
        log(f"cold start {index + 1}/{count}: {start.setup_s:.3f} s")
        if index < count - 1:
            start.daemon.stop()
    return start, times


# -- measurement --------------------------------------------------------------


def measure(inputs: Inputs, client: drive.Client, daemon: Daemon,
            seconds: float, full: bool) -> drive.Phase:
    """One timed phase; ``full`` makes it cover the fixed request sets."""
    conn = daemon.connect()
    try:
        if inputs.name == "dictate":
            return drive.closed_dictation(client, conn, inputs.queries(),
                                          seconds, DICTATIONS if full else 0)
        return drive.closed_sessions(
            client, conn, inputs.sessions(), seconds,
            SESSIONS if full else 0,
            f"{inputs.name}-{inputs.seed}-{int(full)}",
        )
    finally:
        conn.close()


def fixed_set(inputs: Inputs, phase: drive.Phase) -> list[drive.Reply]:
    """Replies to the run's fixed request set: the first ``DICTATIONS``
    dictations, or every turn of the first ``SESSIONS`` sessions."""
    if inputs.name == "dictate":
        return phase.replies[:DICTATIONS]
    first: set[int] = set()
    for reply in phase.replies:
        if len(first) == SESSIONS:
            break
        first.add(id(reply.query))
    return [r for r in phase.replies if id(r.query) in first]


def latencies(inputs: Inputs, phase: drive.Phase,
              turns: str = "edit") -> list[float]:
    """The latency samples the workload's percentiles are taken over:
    the fixed set's dictations, or its edit turns (turn >= 1), or with
    ``turns="first"`` its turns 0.  A request not answered counts as
    taking the whole phase."""
    replies = fixed_set(inputs, phase)
    if inputs.name == "correct":
        replies = [r for r in replies
                   if (r.turn == 0) == (turns == "first")]
    whole = phase.end - phase.start
    return [r.latency_s if r.outcome in ANSWERED else max(r.latency_s, whole)
            for r in replies]


def scored_answers(inputs: Inputs, phase: drive.Phase) -> list:
    """``(gold SQL, reply frame)`` of the fixed set: each dictation, or
    the final turn of each session."""
    finals: dict[int, drive.Reply] = {}
    for reply in fixed_set(inputs, phase):
        finals[id(reply.query)] = reply
    return [(r.query.sql, r.frame) for r in finals.values()]


def throughput(inputs: Inputs, phase: drive.Phase) -> float:
    """Answered requests of the fixed set per second spent waiting for
    them (one connection, so that is the daemon's serving rate)."""
    replies = fixed_set(inputs, phase)
    answered = sum(1 for r in replies if r.outcome in ANSWERED)
    return answered / sum(r.latency_s for r in replies)


def ms(value: float | None, what: str) -> float:
    if value is None:
        raise DaemonError(f"too few samples for {what}; run longer")
    return value * 1000.0


# -- the two kinds of run -----------------------------------------------------


def end_to_end(inputs: Inputs, client: drive.Client, seconds: float) -> dict:
    start, setup_times = cold_starts(client, inputs, COLD_STARTS)
    try:
        phase = measure(inputs, client, start.daemon, seconds, full=True)
        rss_mb = start.daemon.peak_rss_mb()
    finally:
        code = start.daemon.stop()
    problems = [] if code == 0 else [f"daemon exited with code {code}"]

    answers = scored_answers(inputs, phase)
    scores = scoring.accuracy([
        (gold, frame.get("sql", ""), frame.get("queries", []))
        for gold, frame in answers
    ])
    digest = hashlib.sha256(
        json.dumps([frame.get("sql") for _, frame in answers]).encode()
    ).hexdigest()[:16]
    log(f"accuracy digest {digest} over {len(answers)} answers "
        f"({scores['gold_errors']} gold queries not executable)")
    if inputs.name == "dictate":
        problems += scoring.route_parity(
            ROOT, inputs.env, inputs.seed,
            [(r.query, r.frame) for r in phase.replies[:DICTATIONS]
             if r.outcome in ANSWERED],
            PARITY_SAMPLE, drive.NBEST,
        )

    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "first_turn_p50_ms": metric(ms(percentile(
            latencies(inputs, phase, "first"), 0.5), "first-turn p50"), "ms"),
        "top1_wrr": metric(scores["top1_wrr"], "ratio"),
        "top5_wrr": metric(scores["top5_wrr"], "ratio"),
        "top1_exec_acc": metric(scores["top1_exec_acc"], "ratio"),
    }
    log(f"{inputs.name}: {phase.ledger.attempted} requests in "
        f"{phase.seconds:.1f} s; outcomes {dict(phase.ledger.counts())}")
    return finish(client, [phase], metrics, problems, "end_to_end")


def traced(inputs: Inputs, client: drive.Client, seconds: float) -> dict:
    """The per-layer ledger: an untraced daemon over the fixed request
    set, then a traced daemon for half the run, on the same inputs."""
    half = seconds / 2.0
    start, _ = cold_starts(client, inputs, 1)
    try:
        plain = measure(inputs, client, start.daemon, half, full=True)
    finally:
        start.daemon.stop()

    SPANS_DIR.mkdir(exist_ok=True)
    spans_out = SPANS_DIR / f"spans-{inputs.name}-{inputs.seed}.json"
    spans_out.unlink(missing_ok=True)
    start, _ = cold_starts(client, inputs, 1, spans_out)
    try:
        phase = measure(inputs, client, start.daemon, half, full=False)
    finally:
        code = start.daemon.stop()
    problems = [] if code == 0 else [f"daemon exited with code {code}"]
    try:
        doc = json.loads(spans_out.read_text())
    finally:
        spans_out.unlink(missing_ok=True)
    if doc["missing"]:
        log(f"layers not found (reported as 0): {doc['missing']}")

    layers = {
        **ledger.layer_metrics(doc, (phase.start, phase.end),
                               phase.ledger.attempted),
        **ledger.setup_metrics(doc, start.ready_at),
    }
    metrics = {name: metric(value, unit)
               for name, (value, unit) in layers.items()}
    counts = phase.ledger.counts()
    for outcome in ("served", "degraded", "timeout", "shed", "failed"):
        metrics[f"serving.outcomes.{outcome}"] = metric(counts[outcome],
                                                        "count")
    # Same inputs in the same order: compare the common prefix.
    plain_samples, traced_samples = (latencies(inputs, plain),
                                     latencies(inputs, phase))
    # The untraced fixed set's median, tail and serving rate (see
    # NOTES.md for why they are not end-to-end metrics).
    for q in (50, 90):
        metrics[f"client.latency_p{q}_ms"] = metric(
            ms(percentile(plain_samples, q / 100), f"p{q}"), "ms")
    metrics["client.throughput_qps"] = metric(throughput(inputs, plain),
                                              "1/s")
    common = min(len(plain_samples), len(traced_samples))
    plain_p50 = percentile(plain_samples[:common], 0.5)
    traced_p50 = percentile(traced_samples[:common], 0.5)
    metrics["trace.overhead_ratio"] = metric(
        traced_p50 / plain_p50 if plain_p50 and traced_p50 else 0.0, "ratio")
    metrics["trace.coverage_ratio"] = metric(ledger.coverage_ratio(
        doc, {r.frame.get("trace_id"): r.latency_s for r in phase.replies
              if r.outcome in ANSWERED}), "ratio")
    return finish(client, [plain, phase], metrics, problems, "per_layer")


def finish(client: drive.Client, phases: list[drive.Phase], metrics: dict,
           problems: list[str], section: str) -> dict:
    """The result line; ``section`` is the ``BENCHMARK.json`` metric
    list the run must report exactly."""
    for phase in phases:
        problems += phase.ledger.check()
    problems += client.problems
    bad_names = [name for name in metrics if not valid_metric_name(name)]
    if bad_names:
        problems.append(f"invalid metric names: {bad_names}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {entry["name"]: entry["unit"] for entry in spec[section]}
    reported = {name: entry["unit"] for name, entry in metrics.items()}
    if declared != reported:
        problems.append(f"metrics differ from BENCHMARK.json {section}: "
                        f"{sorted(set(declared.items()) ^ set(reported.items()))}")
    for problem in problems:
        log(f"CHECK FAILED: {problem}")
    return {
        "correct": not problems,
        "attempted": sum(p.ledger.attempted for p in phases),
        "failed": sum(p.ledger.failed for p in phases),
        "metrics": metrics,
    }


def _watchdog(signum, frame):
    raise TimeoutError(f"run exceeded {WATCHDOG_S} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"no program source under {ROOT / 'src'}; run from the "
            "repository root")
        return 2
    pinned = str(hash_seed(args.seed))
    if os.environ.get("PYTHONHASHSEED") != pinned:
        # Session inputs are transcribed here, by the program's ASR
        # engine, so this process needs the pinned hash seed too.
        os.environ["PYTHONHASHSEED"] = pinned
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGALRM, _watchdog)
    signal.alarm(WATCHDOG_S)
    try:
        inputs = Inputs(args.workload, args.seed)
        client = drive.Client()
        run = traced if args.trace else end_to_end
        result = run(inputs, client, args.seconds)
    except (DaemonError, OSError, TimeoutError) as error:
        log(f"benchmark failed: {error}")
        return 1
    finally:
        signal.alarm(0)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
