"""Pure arithmetic of the benchmark: summaries, alert latency, the gate.

Kept free of the program under test so the self-tests can drive every
function on synthetic inputs.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from collections import Counter
from itertools import accumulate
from statistics import median
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# Candidate tail percentiles, highest first: a summary reports the
# highest one that still has at least ``TAIL_BEYOND`` samples beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in [0, 1]) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> Optional[float]:
    """The highest candidate percentile with ``TAIL_BEYOND`` samples
    beyond it among ``n`` samples, or None when even p50 has fewer."""
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= TAIL_BEYOND:
            return p
    return None


def summarize(values: Sequence[float], higher_is_better: bool = False
              ) -> dict:
    """Median, the reportable tail percentile and the sample count.  The
    tail is the bad end: high for times, low for rates."""
    n = len(values)
    if n == 0:
        return {"median": None, "tail_p": None, "tail": None, "n": 0}
    p = tail_percentile(n)
    tail = None
    if p is not None:
        tail = quantile(values, (100.0 - p if higher_is_better else p) / 100.0)
    return {"median": median(values), "tail_p": p, "tail": tail, "n": n}


# -- open-loop alert latency ---------------------------------------------

def due_offsets(segments: Sequence[Tuple[int, float]]) -> List[float]:
    """Due time of every line of a ``count:rate`` schedule, in seconds
    after the schedule start; the sender paces by these."""
    offsets: List[float] = []
    start = 0.0
    for count, rate in segments:
        offsets.extend(start + i / rate for i in range(count))
        start += count / rate
    return offsets


def alert_latencies(
    t0: float,
    segments: Sequence[Tuple[int, float]],
    completing_line: Dict[tuple, int],
    seen: Dict[tuple, float],
) -> Tuple[List[List[float]], List[tuple]]:
    """Per-segment alert latencies in seconds, and the alerts never seen.

    ``completing_line`` maps each expected alert key ``(node,
    flagged_at)`` to the index of the line that completed its chain;
    ``seen`` maps alert keys to the monotonic time the benchmark first
    saw them.  An alert's latency runs from its completing line's due
    time, so a sender or daemon stall counts against every alert it
    delays."""
    due = due_offsets(segments)
    ends = list(accumulate(count for count, _ in segments))
    per_segment: List[List[float]] = [[] for _ in segments]
    missing = []
    for key, index in completing_line.items():
        t_seen = seen.get(key)
        if t_seen is None:
            missing.append(key)
            continue
        per_segment[bisect_right(ends, index)].append(
            t_seen - (t0 + due[index]))
    return per_segment, missing


# -- correctness gate ----------------------------------------------------

def prediction_key(p) -> tuple:
    """What two entry points must agree on for one prediction."""
    return (p.node, p.chain_id, p.flagged_at, tuple(p.matched_tokens))


def predictions_digest(predictions: Iterable) -> str:
    """Order-insensitive digest of :func:`prediction_key` over a run's
    predictions, for comparing runs made in another process."""
    keys = sorted(map(prediction_key, predictions))
    return hashlib.sha256(repr(keys).encode()).hexdigest()


def compare_predictions(reference: Iterable, got: Iterable
                        ) -> Tuple[List[tuple], List[tuple]]:
    """Multiset difference on :func:`prediction_key`: ``(missing,
    extra)`` relative to the reference, order-insensitive."""
    ref = Counter(map(prediction_key, reference))
    have = Counter(map(prediction_key, got))
    return sorted((ref - have).elements()), sorted((have - ref).elements())


def unflagged_failures(reference: Iterable, injections: Iterable[dict],
                       timeout: float, tol: float = 1e-5) -> List[dict]:
    """Detectable injected failures with no reference prediction of the
    same chain on the same node at the chain's completing phrase.

    An injection counts as detectable when the generator labelled it so
    and no gap between its phrases exceeds the parser ``timeout`` (the
    generator's ΔT model has a tail beyond it, and such a chain resets
    by design).  The log keeps timestamps to the microsecond, hence
    ``tol``."""
    flagged: Dict[tuple, List[float]] = {}
    for p in reference:
        flagged.setdefault((p.node, p.chain_id), []).append(p.flagged_at)
    out = []
    for inj in detectable(injections, timeout):
        times = flagged.get((inj["node"], inj["chain"]), ())
        done = inj["phrase_times"][-1]
        if not any(abs(t - done) <= tol for t in times):
            out.append(inj)
    return out


def detectable(injections: Iterable[dict], timeout: float) -> List[dict]:
    out = []
    for inj in injections:
        times = inj["phrase_times"]
        if inj["kind"] == "detectable" and all(
                b - a <= timeout for a, b in zip(times, times[1:])):
            out.append(inj)
    return out


def funnel_failures(ingest, offered: int) -> int:
    """Lines lost or invented by an ingest funnel on clean input:
    ``decoded + quarantined == lines_read == offered`` must hold."""
    return (abs(ingest.lines_read - offered)
            + abs(ingest.decoded + ingest.quarantined - ingest.lines_read))
