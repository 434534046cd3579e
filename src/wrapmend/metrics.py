"""Extraction quality arithmetic: precision, recall, F-measure.

Percentages are rounded half-up to two decimals for display; the raw
ratios ride along for machine consumers.  A metric whose denominator is
zero is absent (None), never reported as zero.

The F-measure is the geometric mean of precision and recall; that is
the combination the reference result tables are built with (the usual
harmonic mean disagrees with them in the second decimal).
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Optional


@dataclass(frozen=True)
class EvalOutcome:
    scenario: str
    tp: int
    fp: int
    fn: int
    precision: Optional[float]  # percentages, two decimals
    recall: Optional[float]
    f1: Optional[float]
    raw_precision: Optional[float]  # ratios in [0, 1]
    raw_recall: Optional[float]
    raw_f1: Optional[float]

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "raw": {
                "precision": self.raw_precision,
                "recall": self.raw_recall,
                "f1": self.raw_f1,
            },
        }


def eval_table(algorithm: str, outcomes) -> str:
    """The evaluation table of one algorithm: a header, then one row per
    outcome in the order given."""
    cell = lambda v: "     -" if v is None else "%6.2f" % v
    lines = [
        "algorithm: %s" % algorithm,
        "%-16s %6s %5s %5s  %6s %6s %6s"
        % ("scenario", "tp", "fp", "fn", "prec", "recall", "f1"),
    ]
    for o in outcomes:
        cells = (cell(o.precision), cell(o.recall), cell(o.f1))
        lines.append("%-16s %6d %5d %5d  %s %s %s" % (o.scenario, o.tp, o.fp, o.fn, *cells))
    return "\n".join(lines)


def _pct(x: Decimal) -> float:
    return float((x * 100).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def compute_metrics(tp: int, fp: int, fn: int, scenario: str = "") -> EvalOutcome:
    precision = recall = f1 = None
    raw_p = raw_r = raw_f = None
    p = r = None
    if tp + fp > 0:
        p = Decimal(tp) / Decimal(tp + fp)
        raw_p = tp / (tp + fp)
        precision = _pct(p)
    if tp + fn > 0:
        r = Decimal(tp) / Decimal(tp + fn)
        raw_r = tp / (tp + fn)
        recall = _pct(r)
    if p is not None and r is not None:
        f = (p * r).sqrt()
        raw_f = float(f)
        f1 = _pct(f)
    return EvalOutcome(
        scenario=scenario,
        tp=tp,
        fp=fp,
        fn=fn,
        precision=precision,
        recall=recall,
        f1=f1,
        raw_precision=raw_p,
        raw_recall=raw_r,
        raw_f1=raw_f,
    )
