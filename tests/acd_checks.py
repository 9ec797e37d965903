"""Read a ``repro.graphs.validate_acd`` report (tests only)."""

#: The report's partition and degree checks.  ``sparse_violations`` and
#: ``uneven_violations`` measure how aggressively a randomized
#: decomposition classified borderline nodes, so they are left out.
HARD_CHECKS = ("uncovered", "overlapping", "degree_violations", "membership_violations")


def acd_report_is_clean(report):
    """True when the report has no partition, degree or membership violation."""
    return all(not report[key] for key in HARD_CHECKS)
