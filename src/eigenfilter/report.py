"""Result records shared by the solvers and the experiment drivers.

Query counts split into two maps that are never merged: `query_ledger` holds
exact integers for the polynomial applications of the modeled run, while
`formula_derived_costs` holds closed-form estimates for subroutines that are
emulated rather than simulated (flagged by living in this map). Every
solver report is charged by `filtering.sampled`: a sampled run simulates its
measurement chain once and restarts by seeded coins, and its ledger charges
each stage's queries once per attempt that reached the stage, so aborted
attempts pay for what they ran and nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SolverReport:
    method: str
    params: dict
    final_fidelity: float
    success_probabilities: list[float] = field(default_factory=list)
    query_ledger: dict[str, int] = field(default_factory=dict)
    formula_derived_costs: dict[str, float] = field(default_factory=dict)
    attempts: int = 1

    def __post_init__(self):
        if not 0.0 <= self.final_fidelity <= 1.0 + 1e-12:
            raise ValueError("fidelity outside [0, 1]")
        for key, val in self.query_ledger.items():
            if not isinstance(val, int):
                raise TypeError(f"measured ledger entry {key!r} must be an int")

    @property
    def total_queries(self) -> int:
        return sum(self.query_ledger.values())

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "params": dict(self.params),
            "final_fidelity": self.final_fidelity,
            "success_probabilities": list(self.success_probabilities),
            "query_ledger": dict(self.query_ledger),
            "formula_derived_costs": dict(self.formula_derived_costs),
            "attempts": self.attempts,
        }


@dataclass
class ExperimentResult:
    """Rectangular sweep table plus fit diagnostics.

    `columns` names the table columns; `rows` is a list of equal-length
    tuples. Fit diagnostics and any convention-dependent aggregates go into
    `diagnostics` (plain floats keyed by name).
    """

    name: str
    columns: list[str]
    rows: list[tuple]
    diagnostics: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        width = len(self.columns)
        for r in self.rows:
            if len(r) != width:
                raise ValueError("ragged experiment table")

    def column(self, name: str) -> list:
        i = self.columns.index(name)
        return [r[i] for r in self.rows]
