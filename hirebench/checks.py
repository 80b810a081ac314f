"""Pure helpers of the HIRE benchmark: output checks and statistics.

Everything here is a function of its arguments, so the benchmark's own
tests (test_hirebench.py) can feed it bad outputs directly.
"""

import json
import math

OUTCOMES = ("served", "degraded", "shed", "expired", "failed")


class CheckFailure(Exception):
    """An output of the measured program is wrong."""


def check_predict_body(body, user, n_items, max_rating):
    """Checks one HTTP-200 /predict body; raises CheckFailure if it is wrong.

    A correct body answers the requested user with exactly one finite
    prediction per requested item, from a real model (not the degraded
    bias-table fallback), inside the model's rating scale. HIRE decodes
    R = alpha * sigmoid(.) with alpha = the dataset's maximum rating (paper
    Eq. 16), so that scale is [0, max_rating]: it includes values below the
    dataset's minimum rating, which an under-trained model does produce.
    """
    try:
        reply = json.loads(body)
    except ValueError as error:
        raise CheckFailure(f"unparseable /predict body: {error}") from None
    if not isinstance(reply, dict):
        raise CheckFailure("/predict body is not a JSON object")
    if reply.get("user") != user:
        raise CheckFailure(f"answered user {reply.get('user')}, asked {user}")
    if reply.get("degraded") is not False:
        raise CheckFailure("degraded (fallback) prediction on a loaded server")
    predictions = reply.get("predictions")
    if not isinstance(predictions, list) or len(predictions) != n_items:
        got = len(predictions) if isinstance(predictions, list) else None
        raise CheckFailure(f"{got} predictions for {n_items} items")
    for value in predictions:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise CheckFailure(f"prediction {value!r} is not a number")
        if not math.isfinite(value):
            raise CheckFailure(f"non-finite prediction {value!r}")
        if not 0.0 <= value <= max_rating:
            raise CheckFailure(f"prediction {value} outside [0, {max_rating}]")
    return reply


def outcome_deltas(before, after):
    """serve.outcome.* counter deltas between two /metrics snapshots."""
    return {name: counter_delta(before, after, "serve.outcome." + name)
            for name in OUTCOMES}


def check_outcome_sum(deltas, sent):
    """The outcome counters must partition exactly the requests sent."""
    total = sum(deltas.values())
    if total != sent:
        raise CheckFailure(
            f"serve.outcome.* deltas sum to {total}, generator sent {sent}")


def check_reload(reply, health, previous_version):
    """A rolling /reload must land a newer version on every shard."""
    version = reply.get("model_version")
    if not isinstance(version, int) or version <= previous_version:
        raise CheckFailure(
            f"reload published version {version!r} after {previous_version}")
    for source, versions in (("reload", reply.get("shard_versions")),
                             ("healthz", health.get("shard_versions"))):
        if not versions or any(v != version for v in versions):
            raise CheckFailure(
                f"{source} shard_versions {versions} != version {version}")
    if health.get("status") != "ok":
        raise CheckFailure(f"healthz status {health.get('status')!r} "
                           "after reload")
    return version


def counter_delta(before, after, name):
    counters_after = after.get("counters", {})
    counters_before = before.get("counters", {})
    return int(counters_after.get(name, 0)) - int(counters_before.get(name, 0))


def histogram_delta(before, after, name):
    """(bucket bounds, per-bucket counts, sum) of a histogram between two
    /metrics snapshots; bucket i holds values in (bound[i-1], bound[i]]."""
    later = after.get("histograms", {}).get(name)
    if later is None:
        return [], [], 0.0
    earlier = before.get("histograms", {}).get(name) or {
        "buckets": [[b, 0] for b, _ in later["buckets"]], "sum": 0,
        "overflow": 0}
    bounds = [float(b) for b, _ in later["buckets"]]
    counts = [c1 - c0 for (_, c1), (_, c0) in zip(later["buckets"],
                                                   earlier["buckets"])]
    counts.append(later.get("overflow", 0) - earlier.get("overflow", 0))
    bounds.append(math.inf)
    return bounds, counts, float(later["sum"]) - float(earlier["sum"])


def histogram_quantile(bounds, counts, q):
    """q-quantile of a bucketed histogram, interpolating linearly inside
    the bucket that holds it; 0 when the histogram is empty."""
    total = sum(counts)
    if total <= 0:
        return 0.0
    rank = q * total
    seen = 0
    for i, count in enumerate(counts):
        if count > 0 and seen + count >= rank:
            low = bounds[i - 1] if i > 0 else 0.0
            high = bounds[i] if math.isfinite(bounds[i]) else low * 2
            return low + (high - low) * (rank - seen) / count
        seen += count
    return bounds[-2]


def quantile(values, q):
    """Nearest-rank q-quantile of `values` (may hold math.inf)."""
    if not values:
        raise ValueError("quantile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])
