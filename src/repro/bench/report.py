"""Result tables and paper-band bookkeeping for the benchmarks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Plain-text table with right-aligned numeric columns."""
    rendered = [[str(h) for h in headers]]
    for row in rows:
        rendered.append([
            f"{v:.1f}" if isinstance(v, float) else str(v) for v in row
        ])
    widths = [max(len(r[i]) for r in rendered) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(rendered):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


@dataclass
class BandCheck:
    """One paper claim checked against a measured value.

    ``lo``/``hi`` bound the paper's reported range; ``slack`` widens it for
    the simulated substrate (EXPERIMENTS.md records raw values anyway).
    """

    name: str
    measured: float
    lo: float
    hi: float
    slack: float = 0.0
    unit: str = ""

    @property
    def ok(self) -> bool:
        span = self.hi - self.lo
        return (self.lo - self.slack * span - 1e-12) <= self.measured <= (
            self.hi + self.slack * span + 1e-12
        )

    def describe(self) -> str:
        verdict = "OK  " if self.ok else "MISS"
        return (
            f"[{verdict}] {self.name}: measured {self.measured:.3g}{self.unit} "
            f"vs paper [{self.lo:.3g}, {self.hi:.3g}]{self.unit}"
        )


@dataclass
class ExperimentReport:
    """Collects a benchmark's table plus its band checks."""

    title: str
    checks: list[BandCheck] = field(default_factory=list)
    tables: list[str] = field(default_factory=list)
    # Observability snapshots keyed by a run label (e.g. "smt-hw/8192B");
    # populated by benchmarks that drive observed runs, serialised by
    # :meth:`to_json` so the JSON report carries per-layer breakdowns.
    obs: dict = field(default_factory=dict)
    # Host-side measurements (wall clock, partition-dependent counters)
    # that the fleet files under the JSON report's ``perf`` key, outside
    # the body reruns and --domains settings must reproduce exactly.
    perf: dict = field(default_factory=dict)

    def check(self, name: str, measured: float, lo: float, hi: float,
              slack: float = 0.0, unit: str = "") -> BandCheck:
        band = BandCheck(name, measured, lo, hi, slack, unit)
        self.checks.append(band)
        return band

    def add_table(self, headers: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
        self.tables.append(format_table(headers, rows))

    def render(self) -> str:
        parts = [f"== {self.title} =="]
        parts.extend(self.tables)
        if self.checks:
            parts.append("paper-band checks:")
            parts.extend("  " + c.describe() for c in self.checks)
        return "\n".join(parts)

    def to_json(self) -> dict:
        """JSON-serialisable report: tables, band checks, obs snapshots."""
        return {
            "title": self.title,
            "tables": list(self.tables),
            "checks": [
                {
                    "name": c.name,
                    "measured": c.measured,
                    "lo": c.lo,
                    "hi": c.hi,
                    "slack": c.slack,
                    "unit": c.unit,
                    "ok": c.ok,
                }
                for c in self.checks
            ],
            "obs": self.obs,
        }

    @property
    def misses(self) -> list[BandCheck]:
        return [c for c in self.checks if not c.ok]

    def fraction_in_band(self) -> float:
        if not self.checks:
            return 1.0
        return sum(c.ok for c in self.checks) / len(self.checks)


def improvement(better: float, worse: float) -> float:
    """Relative improvement of ``better`` over ``worse`` in percent.

    For throughput pass (new, old): percentage gained over the baseline.
    """
    if worse == 0:
        return 0.0
    return (better - worse) / worse * 100.0


def latency_reduction(baseline: float, new: float) -> float:
    """How much lower ``new`` is than ``baseline``, in percent of baseline.

    Matches the paper's "X % lower latency" phrasing.
    """
    if baseline == 0:
        return 0.0
    return (baseline - new) / baseline * 100.0
