"""Command-line front end.

Subcommands: ``table`` (reference-style D/N/corner listing), ``curve``
(trade-off curves as CSV/JSON), ``solve`` (optimal policy for one price or
rate budget), ``simulate`` (Monte-Carlo estimates), ``validate`` (the
cross-check suites).

Output is a flat record: CSV gets only the header and rows (RFC-4180
quoting, LF line endings); JSON additionally carries the command echo and
metadata.  Numeric cells are written with 17 significant digits.  Every JSON
record carries the command's ``Diagnostics`` work counters under
``metadata.diagnostics``.  Flags can be kept in a file and pulled in with
``@file``.  The parser is built on the first ``main`` call and reused after
that.  ``--suite`` takes any name, and ``validation.run_suite`` refuses an
unknown one with the list of suites (exit 1).  Each command imports the
solver or the suites it runs when it runs, so importing this module loads
neither solver and no suite.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 validation
failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import asdict, dataclass, field, fields

from .errors import NumericsError, UsageError
from .model import (
    DistortionFn,
    IntegerPmf,
    ModelSpecA,
    ModelSpecB,
    SmoothPdf,
    collect,
    integer_at_least,
    spec_digest,
)

SCHEMA_VERSION = "1"

# the C encoder, with the item separator ``indent=2`` writes two levels deep
_ROWS_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))

# the flags, by dest, that a --model, --problem or --kind value leaves unread and refuses;
# --k-max, --epsilon and --sigma stay unset unless given, and unset read as these
_UNREAD = {"A": {"epsilon": "--epsilon", "alphas": "--alphas", "lambdas": "--lambdas",
                 "sigma": "--sigma"},
           "B": {"k_max": "--k-max", "p": "--p"},
           "costly": {"alpha": "--alpha", "alphas": "--alphas"},
           "constrained": {"lam": "--lambda", "lambdas": "--lambdas"}}
K_MAX, EPSILON, SIGMA = 10, 1e-6, 1.0

# the simulator's policy kind of each --policy choice
POLICY_KINDS = {"threshold": "threshold", "randomized": "randomized_threshold",
                "periodic": "periodic", "iid": "iid_random", "steering": "steering",
                "timesharing": "time_sharing"}


@dataclass
class OutputRecord:
    command: str
    columns: list[str]
    rows: list[dict]
    metadata: dict = field(default_factory=dict)

    def _cell(self, value) -> str:
        if value is None:
            return "—"
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return f"{value:.17g}"
        return str(value)

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([self._cell(row.get(c)) for c in self.columns])
        return buf.getvalue()

    def to_json_text(self) -> str:
        """``json.dumps(payload, sort_keys=True, indent=2)`` of the record,
        byte for byte.  ``indent`` forces the pure-Python encoder, so the
        rows, flat objects of scalar cells, are encoded in one call of the C
        encoder, whose item separator is the one indentation puts between a
        row's items; a row's closing brace then meets that separator only
        where the next row starts, which takes the indentation of the list.
        The rows are spliced into the indented text of the other keys, which
        sort around them: command, metadata, rows, schema_version."""
        cells = [{c: ("—" if row.get(c) is None else row.get(c)) for c in self.columns}
                 for row in self.rows]
        payload = {"command": self.command, "metadata": self.metadata}
        if not (self.rows and self.columns):
            return json.dumps({**payload, "rows": cells, "schema_version": SCHEMA_VERSION},
                              sort_keys=True, indent=2) + "\n"
        head = json.dumps(payload, sort_keys=True, indent=2)
        rows = _ROWS_ENCODER.encode(cells)
        return (head[:-2] + ',\n  "rows": [\n    {\n      '
                + rows[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
                + '\n    }\n  ],\n  "schema_version": ' + json.dumps(SCHEMA_VERSION) + "\n}\n")

    def render(self, fmt: str) -> str:
        return self.to_csv_text() if fmt == "csv" else self.to_json_text()


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems via UsageError (exit 1)."""

    def error(self, message):
        raise UsageError(message)


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=("A", "B"), default="A")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--p", type=float, default=None, help="birth-death step probability")
    p.add_argument("--sigma", type=float, default=argparse.SUPPRESS,
                   help="gaussian innovation scale (default 1)")
    p.add_argument("--distortion", choices=("abs", "quad"), default=None)


def _spec_from_args(args) -> object:
    """The spec of the --model flags, --distortion defaulting to abs for A and
    quad for B, once no flag that ``_UNREAD`` refuses was given."""
    for choice in ("model", "problem", "kind"):
        value = getattr(args, choice, None)
        given = [flag for dest, flag in _UNREAD.get(value, {}).items()
                 if getattr(args, dest, None) is not None]
        if given:
            raise UsageError(f"--{choice} {value} does not read {', '.join(given)}")
    if args.model == "A":
        if args.p is None:
            raise UsageError("--p is required for model A")
        Spec, law, default = ModelSpecA, IntegerPmf.birth_death(args.p), "abs"
    else:
        Spec, law, default = ModelSpecB, SmoothPdf.gaussian(getattr(args, "sigma", SIGMA)), "quad"
    distortion = {"abs": DistortionFn.absolute, "quad": DistortionFn.quadratic}
    return Spec(args.a, law, distortion[args.distortion or default](), args.beta)


def pattern(text: str) -> list[int]:
    return [int(u) for u in text.split(",")]


def schedule(text: str) -> list[list[int]]:
    return [[int(n) for n in pair.split(":")] for pair in text.split(",")]


def _parse_floats(text: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"bad numeric list {text!r}") from exc
    if not values or len(set(values)) < len(values):
        raise UsageError(f"numeric list {text!r} must hold at least one value and no repeats")
    return values


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="remest", fromfile_prefix_chars="@")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_table = sub.add_parser("table", help="D, N and corner prices per threshold")
    p_table.add_argument("--p", type=float, required=True)
    p_table.add_argument("--betas", type=str, default="0.9,0.95,1.0")
    p_table.add_argument("--k-max", type=int, default=10)
    _add_output_flags(p_table)

    p_curve = sub.add_parser("curve", help="optimal trade-off curve")
    _add_spec_flags(p_curve)
    p_curve.add_argument("--kind", choices=("costly", "constrained"), required=True)
    p_curve.add_argument("--k-max", type=int, default=argparse.SUPPRESS)
    p_curve.add_argument("--alphas", type=str, default=None,
                         help="model B constrained abscissas, comma separated")
    p_curve.add_argument("--lambdas", type=str, default=None,
                         help="model B costly abscissas, comma separated")
    p_curve.add_argument("--epsilon", type=float, default=argparse.SUPPRESS)
    _add_output_flags(p_curve)

    p_solve = sub.add_parser("solve", help="optimal policy for one price or budget")
    _add_spec_flags(p_solve)
    p_solve.add_argument("--problem", choices=("costly", "constrained"), required=True)
    p_solve.add_argument("--lambda", dest="lam", type=float, default=None)
    p_solve.add_argument("--alpha", type=float, default=None)
    p_solve.add_argument("--epsilon", type=float, default=argparse.SUPPRESS)
    _add_output_flags(p_solve)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo policy evaluation")
    _add_spec_flags(p_sim)
    p_sim.add_argument("--policy", required=True, choices=POLICY_KINDS)
    # typed policy flags go to PolicySpec and the run settings given to SimConfig,
    # which refuse what a kind or a run does not read and hold the defaults
    p_sim.add_argument("--k", type=float, help="threshold (inf allowed)")
    p_sim.add_argument("--theta", type=float)
    p_sim.add_argument("--pattern", type=pattern, help="periodic 0/1 pattern, e.g. 1,0,0,0")
    p_sim.add_argument("--alpha", type=float)
    p_sim.add_argument("--schedule", type=schedule, help="time-sharing cycle counts, e.g. 3:2")
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--reps", dest="replications", type=int)
    p_sim.add_argument("--horizon", type=int, help="average-cost runs only")
    p_sim.add_argument("--burn-in", type=int, help="average-cost runs only")
    p_sim.add_argument("--workers", type=int, default=1,
                       help="accepted for compatibility, must be >= 1; a run "
                            "draws its innovations on one draw-ahead thread "
                            "whatever the value, and results do not depend on it")
    _add_output_flags(p_sim)

    p_val = sub.add_parser("validate", help="run a cross-check suite")
    p_val.add_argument("--suite", default="all",
                       help="a suite of remest.validation, or all (default)")
    _add_output_flags(p_val)

    return parser


def cmd_table(args) -> OutputRecord:
    from . import solver_a

    betas = _parse_floats(args.betas)
    specs = [solver_a.bd_spec(args.p, beta) for beta in betas]
    integer_at_least(args.k_max, 1, "--k-max")
    rows = []
    for beta, spec in zip(betas, specs):
        table = solver_a.threshold_table(spec, args.k_max + 1)
        corners = dict(solver_a.table_corners(table))
        for k in range(args.k_max + 1):
            rows.append({
                "beta": beta,
                "k": k,
                "D": float(table.D[k]),
                "N": float(table.N[k]),
                "lambda": corners.get(k),
            })
    return OutputRecord(command="table", columns=["beta", "k", "D", "N", "lambda"],
                        rows=rows, metadata={"p": args.p, "k_max": args.k_max})


def cmd_curve(args) -> OutputRecord:
    spec = _spec_from_args(args)
    meta = {"spec": spec_digest(spec), "kind": args.kind}
    if args.model == "A":
        from . import solver_a

        meta["k_max"] = getattr(args, "k_max", K_MAX)
        points = [(p.abscissa, p.threshold, p.ordinate)
                  for p in solver_a.tradeoff_curve(spec, args.kind, meta["k_max"]).points]
    else:
        from . import solver_b

        grid_text = args.alphas if args.kind == "constrained" else args.lambdas
        if grid_text is None:
            raise UsageError("model B curves need --alphas or --lambdas")
        search = (solver_b.algorithm2_constrained if args.kind == "constrained"
                  else solver_b.algorithm1_costly)
        meta["epsilon"] = getattr(args, "epsilon", EPSILON)
        points = [(x, *search(spec, x, meta["epsilon"]))
                  for x in sorted(_parse_floats(grid_text))]
    abscissa = "lambda" if args.kind == "costly" else "alpha"
    ordinate = "C" if args.kind == "costly" else "D"
    rows = [{abscissa: x, ordinate: y, "k": k} for x, k, y in points]
    return OutputRecord(command="curve", columns=[abscissa, ordinate, "k"],
                        rows=rows, metadata=meta)


def cmd_solve(args) -> OutputRecord:
    spec = _spec_from_args(args)
    meta = {"spec": spec_digest(spec), "problem": args.problem}
    epsilon = getattr(args, "epsilon", EPSILON)
    if args.model == "A":
        from . import solver_a
    else:
        from . import solver_b
    if args.problem == "costly":
        if args.lam is None:
            raise UsageError("--lambda is required for the costly problem")
        if args.model == "A":
            result = solver_a.optimal_costly(spec, args.lam)
        else:
            result = solver_b.algorithm1_costly(spec, args.lam, epsilon)
        k, cost = result
        perf = result.perf
        row = {"k": k, "theta": None, "D": perf.distortion,
               "N": perf.transmission_rate, "C": cost, "lambda": args.lam}
    else:
        if args.alpha is None:
            raise UsageError("--alpha is required for the constrained problem")
        if args.model == "A":
            policy, d_star = solver_a.optimal_constrained(spec, args.alpha)
            k, theta = policy.k_star, policy.theta_star
        else:
            k, d_star = solver_b.algorithm2_constrained(spec, args.alpha, epsilon)
            theta = None
        row = {"k": k, "theta": theta, "D": d_star, "N": args.alpha, "C": None, "lambda": None}
    if args.model == "B":
        meta["epsilon"] = epsilon
    return OutputRecord(command="solve",
                        columns=["k", "theta", "D", "N", "C", "lambda"],
                        rows=[row], metadata=meta)


def cmd_simulate(args) -> OutputRecord:
    from .simulate import PolicySpec, SimConfig, simulate

    spec = _spec_from_args(args)
    policy = PolicySpec(kind=POLICY_KINDS[args.policy], **{
        f.name: getattr(args, f.name) for f in fields(PolicySpec) if f.name != "kind"})
    integer_at_least(args.workers, 1, "--workers")
    config = SimConfig(**{f.name: getattr(args, f.name) for f in fields(SimConfig)
                          if getattr(args, f.name) is not None})
    result = simulate(spec, policy, config)
    meta = {
        "spec": spec_digest(spec),
        "policy": args.policy,
        "seed": config.seed,
        "stream_id": result.stream_id,
        "steps_per_replication": result.steps_per_replication,
    }
    rows = [{
        "d_hat": result.d_hat, "n_hat": result.n_hat,
        "d_se": result.d_se, "n_se": result.n_se,
        "replications": result.replications_used,
    }]
    return OutputRecord(command="simulate",
                        columns=["d_hat", "n_hat", "d_se", "n_se", "replications"],
                        rows=rows, metadata=meta)


def cmd_validate(args) -> OutputRecord:
    from . import validation

    checks = validation.run_suite(args.suite)
    rows = [{
        "suite": c.suite, "check": c.name,
        "passed": c.passed, "detail": c.detail,
    } for c in checks]
    return OutputRecord(command="validate",
                        columns=["suite", "check", "passed", "detail"],
                        rows=rows,
                        metadata={"suite": args.suite,
                                  "failed": sum(not c.passed for c in checks)})


COMMANDS = {"table": cmd_table, "curve": cmd_curve, "solve": cmd_solve,
            "simulate": cmd_simulate, "validate": cmd_validate}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with collect() as diagnostics:
            record = COMMANDS[args.cmd](args)
        record.metadata["diagnostics"] = asdict(diagnostics)
        text = record.render(args.format)
        if args.out:
            try:
                with open(args.out, "w", newline="") as fh:
                    fh.write(text)
            except OSError as exc:
                raise UsageError(exc) from exc
        else:
            sys.stdout.write(text)
        return 3 if record.metadata.get("failed") else 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
