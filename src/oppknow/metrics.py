"""Simulation metrics records and the metrics CSV format.

A :class:`MetricsRecord` holds one node's figures for one round of a
simulation. The metrics CSV stores one record per line under
:data:`METRICS_HEADER`, with every float written by :func:`_fmt`, the one
formatter for the numbers of every CLI output. :class:`_LimitProgress`
defines a node's steps to its limit once, for ``engine.steps_to_limit`` and
for the ``simulate`` summary. This module imports only the standard library,
so ``oppknow report`` reads metrics files without loading numpy.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from enum import Enum
from typing import NamedTuple

from .errors import ParseError


class Policy(Enum):
    """Knowledge-sharing policy applied at every encounter."""

    SEND_MINE_ONLY = "smo"
    FORWARD_MINE_PLUS_OTHERS = "fmpo"


METRICS_HEADER = "round,node,policy,kg_bits,kl_bits,oh_round_bits,oh_cum_bits,achieved"


class MetricsRecord(NamedTuple):
    """Per-node, per-round simulation metrics: one metrics-CSV row, its
    fields in :data:`METRICS_HEADER` order."""

    round_index: int
    node: int
    policy: Policy
    kg_bits: float
    kl_bits: float
    oh_round_bits: float
    oh_cum_bits: float
    achieved: bool


class _LimitProgress:
    """One node's way to its knowledge-gain limit, fed its records in round
    order, each with whether the node took part in that round.

    ``steps`` counts the rounds the node took part in, up to and including
    the first whose record meets the limit within ``tol``. It is 0 when the
    limit is zero bits away from the start and ``None`` until the limit is
    met. ``last`` is the latest record fed.
    """

    __slots__ = ("tol", "last", "steps", "_taken")

    def __init__(self, tol: float) -> None:
        self.tol = tol
        self.last: MetricsRecord | None = None
        self.steps: int | None = None
        self._taken = 0

    def add(self, record: MetricsRecord, took_part: bool) -> None:
        if self.last is None and record.kl_bits <= self.tol:
            self.steps = 0
        elif self.steps is None:
            self._taken += took_part
            if record.kl_bits - record.kg_bits <= self.tol:
                self.steps = self._taken
        self.last = record


# Fixed 12-significant-digit decimal formatting keeps repeated runs of the
# same scenario byte-identical.
def _fmt(value: float) -> str:
    return format(float(value), ".12g")


# Field text -> value for the two enumerated fields; anything else is a
# malformed record.
_POLICY_FIELDS = {policy.value: policy for policy in Policy}
_ACHIEVED_FIELDS = {"true": True, "false": False}


def write_metrics_csv(records: Iterable[MetricsRecord], path: str | os.PathLike) -> None:
    """Write records one line each, in the order they arrive, which may be
    while they are still being simulated."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(METRICS_HEADER + "\n")
        for r in records:
            fh.write(
                f"{r.round_index},{r.node},{r.policy.value},{_fmt(r.kg_bits)},"
                f"{_fmt(r.kl_bits)},{_fmt(r.oh_round_bits)},{_fmt(r.oh_cum_bits)},"
                f"{'true' if r.achieved else 'false'}\n"
            )


def read_metrics_csv(path: str | os.PathLike) -> list[MetricsRecord]:
    """Read back a metrics CSV; ``achieved`` must be exactly ``true`` or ``false``."""
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
            # The columns are in the record's field order.
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
