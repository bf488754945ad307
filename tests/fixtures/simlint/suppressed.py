"""Fixture: every finding here is silenced by a suppression comment."""

import time


def reported_elapsed():
    return time.time()  # simlint: disable=wall-clock - UX timing only


def multi_line_statement():
    return max(
        time.time(),  # simlint: disable=wall-clock - spans lines
        0.0,
    )
