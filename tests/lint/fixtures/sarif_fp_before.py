# repro-lint: module=algorithms/fixture_sarif_fp.py
"""Golden pair, half one: the 'before' revision of a dirty module."""


def pick(nogood, view):
    return nogood.prohibits(view)


def roll(bucket, view):
    return bucket.is_violated(view)
