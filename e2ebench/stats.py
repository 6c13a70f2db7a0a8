"""The benchmark's one percentile rule.

Every timing is reported as its median plus the highest percentile of
LADDER that has at least MIN_BEYOND samples beyond it, each with the
sample count. Percentiles are nearest-rank: they are always a measured
sample, never interpolated past what the sample supports.
"""

LADDER = (99.9, 99.0, 90.0)
MIN_BEYOND = 10


def rank(n, q):
    """1-based nearest rank of the q-th percentile of n samples, in exact
    integer arithmetic on q's tenths."""
    tenths = int(round(q * 10))
    return max(1, -(-tenths * n // 1000))


def nearest_rank(sorted_values, q):
    """The q-th percentile (0 < q <= 100) of an ascending list."""
    return sorted_values[rank(len(sorted_values), q) - 1]


def beyond(n, q):
    """Samples strictly beyond the nearest-rank q-th percentile."""
    return n - rank(n, q)


def percentile_name(q):
    """99.9 -> 'p999', 99.0 -> 'p99', 90.0 -> 'p90', 50.0 -> 'p50'."""
    text = ("%g" % q).replace(".", "")
    return "p" + text


def summarize(values, cap=None):
    """{'n', 'p50', 'tail_q', 'tail'} for a list of samples.

    tail_q is the highest percentile of LADDER (at most `cap`) with
    MIN_BEYOND samples beyond it; None (with tail None) when even the
    lowest rung lacks them.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return {"n": 0, "p50": None, "tail_q": None, "tail": None}
    summary = {"n": n, "p50": nearest_rank(ordered, 50.0), "tail_q": None,
               "tail": None}
    for q in LADDER:
        if cap is not None and q > cap:
            continue
        if beyond(n, q) >= MIN_BEYOND:
            summary["tail_q"] = q
            summary["tail"] = nearest_rank(ordered, q)
            break
    return summary


def median(values):
    """Nearest-rank median (a measured sample)."""
    return nearest_rank(sorted(values), 50.0)


def describe(summary, unit):
    """'p50 1.23 ms, p99 4.56 ms (n=1000)'."""
    if summary["n"] == 0:
        return "no samples"
    text = "p50 %.6g %s" % (summary["p50"], unit)
    if summary["tail_q"] is not None:
        text += ", %s %.6g %s" % (percentile_name(summary["tail_q"]),
                                  summary["tail"], unit)
    return text + " (n=%d)" % summary["n"]
