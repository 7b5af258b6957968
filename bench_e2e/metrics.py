"""Pure helpers of the end-to-end benchmark: percentiles, spreads,
open-loop lateness and metric-name validation.

Nothing here imports ``repro``; the unit tests in ``tests/`` pin each
rule, because a wrong percentile or a silently accepted bad name would
make every later comparison meaningless.
"""

import math
import re
import statistics

#: a metric or workload name: starts with a letter or digit, at most 64
#: letters, digits, ``_``, ``.`` and ``-``
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: samples that must rank above a reported tail value
TAIL_BEYOND = 10


def check_name(name):
    """Return ``name`` if it is a valid metric name, else raise ValueError."""
    if not isinstance(name, str) or not NAME_RE.fullmatch(name):
        raise ValueError("invalid metric name %r (want [A-Za-z0-9_.-], "
                         "at most 64 chars, leading letter or digit)"
                         % (name,))
    return name


def tail_percentile(samples, beyond=TAIL_BEYOND):
    """The highest percentile with at least ``beyond`` samples above it.

    Of ``samples`` ranked values, exactly ``beyond`` rank above rank
    ``samples - beyond``; its percentile is returned as a fraction.
    None when there are not more than ``beyond`` samples — a tail from
    fewer samples is never reported.
    """
    if samples <= beyond:
        return None
    return (samples - beyond) / samples


def median(values):
    return statistics.median(values) if values else 0.0


def p50(values):
    """Harrell-Davis median; 0 for no samples."""
    return quantile(values, 0.5) if values else 0.0


def quantile(values, p):
    """Harrell-Davis estimate of the ``p`` quantile (``0 < p < 1``).

    A weighted mean of all order statistics, with Beta weights centred
    on rank ``p * (n + 1)``.  Picking one order statistic instead makes
    the estimate jump whenever the quantile falls in a gap between
    clusters of op sizes — as the median of eight paper bugs always
    does — and those jumps, not the program, would then decide a run's
    figure.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return float(ordered[0])
    a, b = p * (n + 1), (1 - p) * (n + 1)
    estimate, below = 0.0, 0.0
    for i, value in enumerate(ordered, 1):
        upto = _betainc(a, b, i / n)
        estimate += (upto - below) * value
        below = upto
    return estimate


def _betainc(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _betacf(a, b, x, tiny=1e-300, eps=3e-14):
    """Continued fraction of the incomplete beta (modified Lentz)."""
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x
                    / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < eps:
            break
    return h


def spread(values):
    """Interquartile range as a share of the median (0 when constant)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    if mid == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(mid)


def lateness(due, sent):
    """Per-request open-loop lateness: how long after its due time each
    request actually went out (never negative)."""
    if len(due) != len(sent):
        raise ValueError("due and sent differ in length")
    return [max(0.0, s - d) for d, s in zip(due, sent)]
