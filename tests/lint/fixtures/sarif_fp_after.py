# repro-lint: module=algorithms/fixture_sarif_fp.py
"""Golden pair, half two: the same module after a rename and a refactor.

The file name changed, a helper grew above the violations, and every
offending statement moved to a different line — but the statements
themselves are untouched, so the SARIF partialFingerprints must be
byte-identical to the 'before' revision.
"""


def shuffle_seed(options):
    # An inserted helper pushes everything below it down several lines.
    return len(options)


def pick(nogood, view):
    return nogood.prohibits(view)


def roll(bucket, view):
    return bucket.is_violated(view)
