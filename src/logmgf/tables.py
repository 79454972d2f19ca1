"""Published comparison tables, baked in for golden-diff tooling.

Each table fixes mu = 0 and one sigma, sweeps theta across five values, and
records the published digits for all four methods. These reference values
make the comparison suite self-contained (no network, no external data).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .types import Method


@dataclass(frozen=True)
class TableSpec:
    table_id: int
    mu: float
    sigma: float
    thetas: tuple[float, ...]
    paper_values: dict[Method, tuple[float, ...]]

    def paper_value(self, method: Method, theta: float) -> float:
        if theta not in self.thetas:
            raise DomainError(f"table {self.table_id} prints thetas {self.thetas}, not {theta!r}")
        return self.paper_values[method][self.thetas.index(theta)]


TABLES: dict[int, TableSpec] = {
    1: TableSpec(
        table_id=1,
        mu=0.0,
        sigma=0.1,
        thetas=(0.1, 0.3, 0.5, 1.0, 1.2),
        paper_values={
            Method.MONTE_CARLO: (1.105779, 1.352510, 1.654955, 2.745936, 3.365014),
            Method.ZERO_ENTROPY: (1.105780, 1.352506, 1.654957, 2.745994, 3.365088),
            Method.THIN_TILE: (1.105781, 1.352509, 1.654966, 2.745978, 3.364940),
            Method.LAPLACE_W: (1.105780, 1.352504, 1.654957, 2.745950, 3.364990),
        },
    ),
    2: TableSpec(
        table_id=2,
        mu=0.0,
        sigma=0.0625,
        thetas=(-0.5, -1.0, -2.0, -4.0, -8.0),
        paper_values={
            Method.MONTE_CARLO: (0.606235, 0.367884, 0.135863, 0.018744, 0.000373),
            Method.ZERO_ENTROPY: (0.606234, 0.367879, 0.135863, 0.018746, 0.000373),
            Method.THIN_TILE: (0.606235, 0.367880, 0.135862, 0.018744, 0.000373),
            Method.LAPLACE_W: (0.606235, 0.367880, 0.135862, 0.018744, 0.000373),
        },
    ),
    3: TableSpec(
        table_id=3,
        mu=0.0,
        sigma=1.0,
        thetas=(-0.5, -1.0, -2.0, -4.0, -8.0),
        paper_values={
            Method.MONTE_CARLO: (0.561707, 0.381729, 0.216326, 0.098069, 0.034274),
            Method.ZERO_ENTROPY: (0.560233, 0.367879, 0.238030, 0.159668, 0.118724),
            Method.THIN_TILE: (0.561708, 0.381755, 0.216305, 0.098046, 0.034264),
            Method.LAPLACE_W: (0.561717, 0.381752, 0.216304, 0.098042, 0.034267),
        },
    ),
}
