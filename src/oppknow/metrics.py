"""Simulation metrics records and the metrics CSV format.

A :class:`MetricsRecord` holds one node's figures for one round of a
simulation. The metrics CSV stores one record per line under
:data:`METRICS_HEADER`, with every float written by :func:`_fmt`, the one
formatter for the numbers of every CLI output. This module imports only the
standard library, so ``oppknow report`` reads metrics files without loading
numpy.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from .errors import ParseError


class Policy(Enum):
    """Knowledge-sharing policy applied at every encounter."""

    SEND_MINE_ONLY = "smo"
    FORWARD_MINE_PLUS_OTHERS = "fmpo"


METRICS_HEADER = "round,node,policy,kg_bits,kl_bits,oh_round_bits,oh_cum_bits,achieved"


@dataclass(frozen=True, slots=True)
class MetricsRecord:
    """Per-node, per-round simulation metrics.

    ``participated`` records whether the node was in one of the round's
    pairs, or ``None`` if unknown; it is bookkeeping for
    :func:`oppknow.engine.steps_to_limit` and not part of the metrics CSV.
    """

    round_index: int
    node: int
    policy: Policy
    kg_bits: float
    kl_bits: float
    oh_round_bits: float
    oh_cum_bits: float
    achieved: bool
    participated: bool | None = None


# Fixed 12-significant-digit decimal formatting keeps repeated runs of the
# same scenario byte-identical.
def _fmt(value: float) -> str:
    return format(float(value), ".12g")


# Field text -> value for the two enumerated fields; anything else is a
# malformed record.
_POLICY_FIELDS = {policy.value: policy for policy in Policy}
_ACHIEVED_FIELDS = {"true": True, "false": False}


def write_metrics_csv(records: Sequence[MetricsRecord], path: str | os.PathLike) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(METRICS_HEADER + "\n")
        for r in records:
            fh.write(
                f"{r.round_index},{r.node},{r.policy.value},{_fmt(r.kg_bits)},"
                f"{_fmt(r.kl_bits)},{_fmt(r.oh_round_bits)},{_fmt(r.oh_cum_bits)},"
                f"{'true' if r.achieved else 'false'}\n"
            )


def read_metrics_csv(path: str | os.PathLike) -> list[MetricsRecord]:
    """Read back a metrics CSV; each record's ``participated`` is ``None``.

    ``achieved`` must be exactly ``true`` or ``false``.
    """
    with open(path, "r", encoding="ascii", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        raise ParseError(1, f"expected header {METRICS_HEADER!r}")
    records = []
    for line_number, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 8:
            raise ParseError(line_number, f"expected 8 fields, got {len(fields)}")
        try:
            # The columns are in the record's field order; positional
            # arguments build a record faster than keywords.
            records.append(
                MetricsRecord(
                    int(fields[0]),
                    int(fields[1]),
                    _POLICY_FIELDS[fields[2]],
                    float(fields[3]),
                    float(fields[4]),
                    float(fields[5]),
                    float(fields[6]),
                    _ACHIEVED_FIELDS[fields[7]],
                )
            )
        except (KeyError, ValueError):
            raise ParseError(line_number, f"malformed record {line!r}") from None
    return records
