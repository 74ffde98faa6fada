"""Accuracy of the daemon's answers, and route parity with the library.

Accuracy uses the program's own definitions: paper Table 2 WRR from
``repro.metrics.token_metrics`` and execution accuracy from
``repro.execution`` (SQLite over the deterministic instance).
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path
from statistics import fmean

from perfbench.workloads import (
    TRAIN_QUERIES,
    TRAIN_SEED,
    derive_seed,
    employees_catalog,
)


def accuracy(pairs: list[tuple[str, str, list[str]]]) -> dict:
    """``top1_wrr``, ``top5_wrr`` and ``top1_exec_acc`` over
    ``(gold, top1, top5 list)`` triples (unanswered: empty strings).

    Execution accuracy counts only answers whose gold query runs on the
    engine (``gold_errors`` says how many did not): the generator's
    comma joins can leave a column ambiguous, which SQLite rejects.
    """
    from repro.execution import score_execution
    from repro.metrics.token_metrics import best_of, score_query

    if not pairs:
        raise ValueError("no answers to score")
    summary = score_execution(
        [(gold, top1) for gold, top1, _ in pairs], schema="employees"
    )
    gold_errors = summary.verdicts.get("gold_error", 0)
    return {
        "top1_wrr": fmean(score_query(gold, top1).wrr
                          for gold, top1, _ in pairs),
        "top5_wrr": fmean(best_of(gold, top5[:5]).wrr
                          for gold, _, top5 in pairs),
        "top1_exec_acc": (
            summary.execution_matches / (summary.total - gold_errors)
            if summary.total > gold_errors else 0.0
        ),
        "gold_errors": gold_errors,
    }


def library_pipeline():
    """The pipeline ``repro serve --train 750 --schema employees`` runs,
    built the same way through the public API."""
    from repro.asr import make_custom_engine
    from repro.core import SpeakQL, SpeakQLArtifacts, SpeakQLConfig
    from repro.dataset.spoken import make_spoken_dataset

    catalog = employees_catalog()
    training = make_spoken_dataset("train", catalog, TRAIN_QUERIES,
                                   seed=TRAIN_SEED)
    engine = make_custom_engine([q.sql for q in training.queries])
    artifacts = SpeakQLArtifacts.build(engine=engine)
    return SpeakQL(catalog, artifacts=artifacts, config=SpeakQLConfig())


def route_parity(root: Path, env: dict, seed: int, answered: list,
                 sample: int, nbest: int) -> list[str]:
    """Problems found re-running a seeded sample of daemon answers
    through the library: ``answered`` holds ``(query, reply frame)``
    pairs, and ``SpeakQL.query_from_speech`` must give the same top-1
    SQL and the same ranked query list.

    The library runs in a fresh process with the daemon's environment
    (``env``, which pins ``PYTHONHASHSEED``), so the two routes start
    from the same state.
    """
    rng = random.Random(derive_seed("parity", seed))
    picked = rng.sample(answered, min(sample, len(answered)))
    request = {"nbest": nbest,
               "queries": [[query.sql, query.seed] for query, _ in picked]}
    done = subprocess.run(
        [sys.executable, "-m", "perfbench.scoring"], cwd=root, env=env,
        input=json.dumps(request), capture_output=True, text=True,
        timeout=120, check=False,
    )
    if done.returncode != 0:
        return [f"route parity: library run failed: {done.stderr[-500:]}"]
    problems = []
    for (query, frame), (sql, queries) in zip(picked,
                                              json.loads(done.stdout)):
        if sql != frame.get("sql") or queries != frame.get("queries"):
            problems.append(
                f"route parity: daemon answered {frame.get('sql')!r} but "
                f"the library answered {sql!r} for {query.sql!r} "
                f"(seed {query.seed})"
            )
    return problems


def _library_answers() -> None:
    """``python -m perfbench.scoring``: answer a JSON request on stdin
    (``nbest``, and ``queries`` as ``[sql, seed]`` pairs) with
    ``[sql, queries]`` per query on stdout."""
    request = json.load(sys.stdin)
    pipeline = library_pipeline()
    answers = []
    for sql, seed in request["queries"]:
        out = pipeline.query_from_speech(sql, seed=seed,
                                         nbest=request["nbest"])
        answers.append([out.sql, list(out.queries)])
    json.dump(answers, sys.stdout)


if __name__ == "__main__":
    _library_answers()
