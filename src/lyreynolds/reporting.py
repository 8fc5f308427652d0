"""Report types returned by the verifiers, with JSON round-tripping.

A failed identity is data, not an exception: each report row carries the
identity name, a pass flag and -- on failure -- the lexicographically first
witness basis tuple together with the residual (LHS - RHS) it produced.
Basis indices in reports, in their JSON and in the API are 0-based,
matching the in-memory convention; report text prints them 1-based, as the
input files count them (``FAIL at basis tuple (1, 2)`` for the witness
``(0, 1)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import Matrix, format_rational, parse_rational


@dataclass(frozen=True)
class Check:
    """Outcome of one identity, checked over all relevant basis tuples."""

    name: str
    passed: bool
    witness: tuple[int, ...] | None = None
    residual: object | None = None  # Vector or Matrix, None when passed

    def describe(self) -> str:
        if self.passed:
            return f"{self.name}: pass"
        witness = tuple(i + 1 for i in self.witness)
        return f"{self.name}: FAIL at basis tuple {witness}, residual {_render(self.residual)}"


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def __getitem__(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def describe(self) -> str:
        return "\n".join(c.describe() for c in self.checks)

    def require(self, error: type[Exception], what: str | None = None) -> None:
        """Raise ``error`` unless every check passed, with the description
        as its message, under a ``what:`` line when ``what`` is given."""
        if not self.ok:
            raise error(self.describe() if what is None else f"{what}:\n{self.describe()}")

    def to_json(self) -> dict:
        return {"ok": self.ok, "checks": [_check_to_json(c) for c in self.checks]}

    @classmethod
    def from_json(cls, data: dict) -> "AxiomReport":
        return cls(tuple(_check_from_json(c) for c in data["checks"]))


@dataclass(frozen=True)
class OrderReport:
    """Per-order deformation verification: one AxiomReport per order 0..N."""

    orders: tuple[AxiomReport, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.orders)

    def first_failure(self) -> tuple[int, Check] | None:
        for n, rep in enumerate(self.orders):
            for c in rep.checks:
                if not c.passed:
                    return n, c
        return None

    def describe(self) -> str:
        lines = []
        for n, rep in enumerate(self.orders):
            status = "pass" if rep.ok else "FAIL"
            lines.append(f"order {n}: {status}")
            for c in rep.failures():
                lines.append("  " + c.describe())
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {"ok": self.ok, "orders": [r.to_json() for r in self.orders]}

    @classmethod
    def from_json(cls, data: dict) -> "OrderReport":
        return cls(tuple(AxiomReport.from_json(r) for r in data["orders"]))


@dataclass(frozen=True)
class DegreeRow:
    degree: int
    dim_cochain: int
    dim_kernel: int
    dim_image_incoming: int
    betti: int


@dataclass(frozen=True)
class ComplexReport:
    """Cohomology dimensions of one complex through max_degree."""

    complex_name: str
    rows: tuple[DegreeRow, ...] = field(default_factory=tuple)

    def betti(self, degree: int) -> int:
        for r in self.rows:
            if r.degree == degree:
                return r.betti
        raise KeyError(degree)

    def describe(self) -> str:
        lines = [f"complex {self.complex_name}",
                 f"{'degree':>6} {'dim':>5} {'ker':>5} {'im':>5} {'betti':>6}"]
        for r in self.rows:
            lines.append(f"{r.degree:>6} {r.dim_cochain:>5} {r.dim_kernel:>5} "
                         f"{r.dim_image_incoming:>5} {r.betti:>6}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "complex": self.complex_name,
            "rows": [
                {"degree": r.degree, "dim": r.dim_cochain, "ker": r.dim_kernel,
                 "im": r.dim_image_incoming, "betti": r.betti}
                for r in self.rows
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ComplexReport":
        return cls(
            data["complex"],
            tuple(DegreeRow(r["degree"], r["dim"], r["ker"], r["im"], r["betti"])
                  for r in data["rows"]),
        )


def _render(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, Matrix):
        return "[" + "; ".join(
            " ".join(format_rational(x) for x in value.row(i)) for i in range(value.rows)
        ) + "]"
    return "(" + ", ".join(format_rational(x) for x in value) + ")"


def _value_to_json(value):
    if value is None:
        return None
    if isinstance(value, Matrix):
        return {"rows": value.rows, "cols": value.cols,
                "entries": [format_rational(x) for x in value.entries]}
    return [format_rational(x) for x in value]


def _value_from_json(data):
    if data is None:
        return None
    if isinstance(data, dict):
        return Matrix(data["rows"], data["cols"],
                      tuple(parse_rational(x) for x in data["entries"]))
    return tuple(parse_rational(x) for x in data)


def _check_to_json(c: Check) -> dict:
    return {
        "name": c.name,
        "passed": c.passed,
        "witness": list(c.witness) if c.witness is not None else None,
        "residual": _value_to_json(c.residual),
    }


def _check_from_json(data: dict) -> Check:
    witness = tuple(data["witness"]) if data["witness"] is not None else None
    return Check(data["name"], data["passed"], witness, _value_from_json(data["residual"]))
