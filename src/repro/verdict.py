"""The one verdict vocabulary, from the SAT check to the campaign store.

Every stage of the paper's Algorithm 1 speaks it: checksum testing returns
``PLAUSIBLE``, ``NOT_EQUIVALENT`` or ``CANNOT_COMPILE``; each verification
stage and the equivalence checker under it return ``EQUIVALENT``,
``NOT_EQUIVALENT`` or ``INCONCLUSIVE``; the static screen adds
``STATIC_REJECT``, and a campaign job that raised is recorded as ``ERROR``.
Code passes the members around; only a record or JSON dict holds ``.value``.
"""

from __future__ import annotations

import enum


class Verdict(enum.Enum):
    """One candidate's or one kernel's verdict."""

    PLAUSIBLE = "plausible"            # survived checksum testing (possibly correct)
    EQUIVALENT = "equivalent"          # formally verified (modulo bounded unrolling)
    NOT_EQUIVALENT = "not_equivalent"  # refuted by testing or verification
    INCONCLUSIVE = "inconclusive"      # resource limits / unsupported encodings
    CANNOT_COMPILE = "cannot_compile"  # rejected by checksum testing before execution
    STATIC_REJECT = "static_reject"    # refuted by static vetting alone
    ERROR = "error"                    # the campaign job raised instead of deciding
