"""Command-line frontend: reproduce the closed-form reference values, run
parameter sweeps, classify user-supplied states, and drive the verification
harness.

All commands are deterministic given ``--seed``; numeric CSV fields carry full
round-trip precision.  Exit codes: 0 ok, 1 value/verification mismatch,
2 internal or usage error, 3 parse error, 4 validation error.
"""

from __future__ import annotations

import json
import math
import sys

import click
import numpy as np

from . import classify as classify_mod
from . import states, verify
from .errors import FnegError, LayoutError, ParityError, StateValidationError
from .fock import MAX_MODES, FockOperator, ModeLayout, SubsystemSpec
from .measures import _is_pure, _stacked_pt_norms, _tripartite_reports

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INTERNAL = 2
EXIT_PARSE = 3
EXIT_VALIDATION = 4

_DEFAULT_SEED = 1234
_DEFAULT_TOLERANCE = 1e-9


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _emit_rows(rows: list[dict], columns: list[str], output: str) -> None:
    if output == "json":
        click.echo(json.dumps(rows, indent=2))
        return
    click.echo(",".join(columns))
    for row in rows:
        cells = [
            _fmt(row[c]) if isinstance(row[c], float) else str(row[c]) for c in columns
        ]
        click.echo(",".join(cells))


def _tolerance(ctx, param, value):
    """``--tolerance`` in ``[0, inf)``; ``click.FloatRange`` alone would let NaN through."""
    if not 0.0 <= value < float("inf"):
        raise click.BadParameter(f"must be a finite number >= 0, got {value!r}")
    return value


def _finite(ctx, param, value):
    """A finite float; ``type=float`` alone lets NaN and infinities through."""
    if not math.isfinite(value):
        raise click.BadParameter(f"must be a finite number, got {value!r}")
    return value


@click.group()
@click.option(
    "--tolerance",
    type=float,
    default=_DEFAULT_TOLERANCE,
    envvar="FNEG_TOLERANCE",
    callback=_tolerance,
    show_default=True,
    help="Absolute tolerance for value checks and zero thresholds, in [0, inf).",
)
@click.option(
    "--seed",
    type=click.IntRange(min=0),
    default=_DEFAULT_SEED,
    envvar="FNEG_SEED",
    show_default=True,
    help="Base seed for all randomized commands.",
)
@click.option(
    "--output",
    type=click.Choice(["csv", "json"]),
    default="csv",
    show_default=True,
    help="Serialization format for tabular results.",
)
@click.pass_context
def cli(ctx, tolerance, seed, output):
    """Fermionic entanglement negativity toolkit."""
    ctx.obj = {"tolerance": tolerance, "seed": seed, "output": output}


# -- reproduce ---------------------------------------------------------------------


_TABLE1_EXEMPLARS = [
    ("product_000", states.PureCoeffs((1.0, 0.0, 0.0, 0.0), "even"), "A-B-C"),
    ("bc_pair", states.PureCoeffs((1 / np.sqrt(2), 0.0, 1 / np.sqrt(2), 0.0), "even"), "A-BC"),
    ("ac_pair", states.PureCoeffs((1 / np.sqrt(2), 0.0, 0.0, 1 / np.sqrt(2)), "even"), "B-AC"),
    ("ab_pair", states.PureCoeffs((1 / np.sqrt(2), 1 / np.sqrt(2), 0.0, 0.0), "even"), "C-AB"),
    ("w_state", states._SECTOR_POINTS["w"], "W"),
    ("ghz_state", states._SECTOR_POINTS["ghz"], "GHZ"),
]


@cli.command()
@click.argument("target", type=click.Choice(["paper-values", "table1"]))
@click.pass_context
def reproduce(ctx, target):
    """Evaluate the closed-form regression values or the exemplar-class table."""
    tolerance = ctx.obj["tolerance"]
    output = ctx.obj["output"]
    if target == "paper-values":
        rows = [
            {
                "name": name,
                "computed": float(computed),
                "expected": float(expected),
                "abs_delta": float(abs(computed - expected)),
            }
            for name, computed, expected in verify._paper_value_rows()
        ]
        _emit_rows(rows, ["name", "computed", "expected", "abs_delta"], output)
        bad = [r for r in rows if r["abs_delta"] > tolerance]
        if bad:
            click.echo(f"{len(bad)} value(s) beyond tolerance {tolerance}", err=True)
            ctx.exit(EXIT_MISMATCH)
        ctx.exit(EXIT_OK)
    rows = []
    mismatch = False
    for name, coeffs, expected in _TABLE1_EXEMPLARS:
        label = classify_mod.pure3_class(coeffs, threshold=tolerance)
        ok = label.label == expected
        mismatch |= not ok
        rows.append(
            {"state": name, "expected": expected, "computed": label.label,
             "match": str(ok).lower()}
        )
    _emit_rows(rows, ["state", "expected", "computed", "match"], output)
    ctx.exit(EXIT_MISMATCH if mismatch else EXIT_OK)


# -- sweep -------------------------------------------------------------------------

_WERNER_MEASURES = ("negativity", "log_negativity")
_PSI_P_MEASURES = ("j_abc", "three_tangle", "n_abc", "pi_abc")


@cli.command()
@click.argument("family", type=click.Choice(["werner", "psi_p"]))
@click.option("--min", "p_min", type=float, default=0.0, show_default=True, callback=_finite)
@click.option("--max", "p_max", type=float, default=1.0, show_default=True, callback=_finite)
@click.option("--steps", type=int, default=101, show_default=True)
@click.option("--measures", "measure_list", type=str, default=None,
              help="Comma-separated measure names (defaults per family).")
@click.option("--flavor", type=click.Choice(["fermionic", "bosonic"]),
              default="fermionic", show_default=True)
@click.option("--normalized", is_flag=True,
              help="Scale psi_p measures so a symmetric GHZ state gives 1.")
@click.pass_context
def sweep(ctx, family, p_min, p_max, steps, measure_list, flavor, normalized):
    """Sweep a one-parameter state family and tabulate requested measures."""
    output = ctx.obj["output"]
    if steps < 1 or p_max < p_min:
        raise click.UsageError("need steps >= 1 and max >= min")
    available = _WERNER_MEASURES if family == "werner" else _PSI_P_MEASURES
    chosen = (
        available
        if measure_list is None
        else tuple(m.strip() for m in measure_list.split(",") if m.strip())
    )
    if not chosen:
        raise click.BadParameter(f"names no measure; {family} takes {', '.join(available)}",
                                 param_hint="'--measures'")
    repeated = sorted({m for m in chosen if chosen.count(m) > 1})
    if repeated:
        raise click.BadParameter(f"names {', '.join(repeated)} more than once",
                                 param_hint="'--measures'")
    unknown = [m for m in chosen if m not in available]
    if unknown:
        raise click.UsageError(f"unknown measures for {family}: {unknown}")
    if normalized and family != "psi_p":
        raise click.UsageError("--normalized applies to the psi_p family only")
    grid = np.linspace(p_min, p_max, steps)
    rhos = [states.canonical_state(family, p=float(p)) for p in grid]
    if family == "werner":
        norms = _stacked_pt_norms(rhos, SubsystemSpec((1,)), flavor)
        values = {"negativity": [(norm - 1.0) / 2.0 for norm in norms],
                  "log_negativity": [float(np.log(norm)) for norm in norms]}
        rows = [{"p": float(p), **{m: values[m][i] for m in chosen}} for i, p in enumerate(grid)]
        _emit_rows(rows, ["p"] + list(chosen), output)
        ctx.exit(EXIT_OK)

    ghz, *raws = _tripartite_reports([states.canonical_state("ghz"), *rhos], flavor)
    # The fermionic reports hold the class witnesses; psi_p states are pure by construction.
    witnesses = raws if flavor == "fermionic" else _tripartite_reports(rhos, "fermionic")
    rows = [
        {"p": float(p),
         **{m: float(raw[m] / ghz[m]) if normalized else float(raw[m]) for m in chosen},
         "label": classify_mod._pure3_verdict(wit.entries,
                                              classify_mod.DEFAULT_ZERO_THRESHOLD).label}
        for p, raw, wit in zip(grid, raws, witnesses)
    ]
    _emit_rows(rows, ["p"] + list(chosen) + ["label"], output)
    ctx.exit(EXIT_OK)


# -- classify ----------------------------------------------------------------------


def _complex_list(entries, what: str) -> np.ndarray:
    out = []
    try:
        for item in entries:  # a number or an [re, im] pair of them; a JSON bool is neither
            pair = item if isinstance(item, (list, tuple)) and len(item) == 2 else (item, 0)
            if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair):
                raise TypeError(item)
            out.append(complex(*pair))
    except (TypeError, OverflowError):
        raise StateValidationError(f"{what} entries must be numbers or [re, im] pairs") from None
    values = np.array(out, dtype=complex)
    if not np.isfinite(values).all():
        raise StateValidationError(f"{what} entries must be finite, got NaN or infinity")
    return values


def _num_modes(value) -> int:
    """A JSON integer (an ``int``, not a ``bool``) in ``1..MAX_MODES``."""
    if isinstance(value, bool) or not isinstance(value, int) or not 1 <= value <= MAX_MODES:
        raise StateValidationError(f"num_modes must be an integer in 1..{MAX_MODES}: {value!r}")
    return value


def _state_from_payload(payload: dict) -> FockOperator:
    if not isinstance(payload, dict):
        raise StateValidationError("state file must contain a JSON object")
    if "matrix" in payload:
        n = _num_modes(payload.get("num_modes"))
        flat = _complex_list(payload["matrix"], "matrix")
        dim = 1 << n
        if flat.size != dim * dim:
            raise StateValidationError(
                f"matrix must have 4**num_modes = {dim * dim} entries, got {flat.size}"
            )
        mat, amps = flat.reshape(dim, dim), None
    elif "pure" in payload:
        amps = _complex_list(payload["pure"], "pure")
        n = _num_modes(payload.get("num_modes", max(amps.size.bit_length() - 1, 0)))
        if amps.size != 1 << n:
            raise StateValidationError(
                f"pure amplitude array must have 2**num_modes entries, got {amps.size}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-8:
            raise StateValidationError(f"pure state norm {norm:.6f} is not 1")
    else:
        raise StateValidationError("state file needs a 'matrix' or 'pure' field")
    labels = payload.get("labels")
    if labels is None and n in (2, 3):
        labels = ["A", "B", "C"][:n]
    if not (isinstance(labels, list) and len(labels) == n
            and all(isinstance(lab, str) for lab in labels)):
        raise StateValidationError(f"labels must be a list of num_modes = {n} strings")
    layout = ModeLayout(n, tuple(labels))
    rho = FockOperator(layout, mat) if amps is None else states._density(layout, amps)
    rho.require_density_matrix()
    return rho


@cli.command("classify")
@click.argument("state_file", type=click.Path(exists=True, dir_okay=False))
@click.pass_context
def classify_cmd(ctx, state_file):
    """Classify a state file (JSON) and print the verdict as JSON."""
    threshold = ctx.obj["tolerance"]
    try:
        with open(state_file, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        click.echo(f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}",
                   err=True)
        ctx.exit(EXIT_PARSE)
    except ValueError as exc:  # not UTF-8, or an integer literal over the digit limit
        click.echo(f"parse error: {exc}", err=True)
        ctx.exit(EXIT_PARSE)
    rho = _state_from_payload(payload)
    n = rho.layout.num_modes
    if n == 2:
        label = classify_mod.two_mode_separable(rho, threshold=threshold)
    elif n == 3:
        if _is_pure(rho):
            label = classify_mod.pure3_class(rho, threshold=threshold)
        else:
            label = classify_mod.mixed3_classify(rho, threshold=threshold)
    else:
        raise StateValidationError("classification supports two- or three-mode states")
    ptype = classify_mod.subsystem_parity_type(rho, rho.layout.spec("A"))
    result = label.to_dict()
    result["num_modes"] = n
    result["parity_type"] = {"kind": ptype.kind, "commutator_norm": ptype.commutator_norm}
    click.echo(json.dumps(result, indent=2))
    ctx.exit(EXIT_OK)


# -- verify ------------------------------------------------------------------------

_VERIFY_DEFAULT_TRIALS = {
    "identities": 100,
    "locc": 200,
    "perturbation": 50,
    "conjecture": 10000,
}


def _parse_modes(ctx, param, value):
    """``--modes`` as a tuple of mode counts in 2..MAX_MODES (a bipartition needs two)."""
    if value is None:
        return None
    try:
        modes = tuple(int(m) for m in value.split(","))
    except ValueError:
        raise click.BadParameter(f"expected comma-separated integers, got {value!r}") from None
    if not all(2 <= m <= MAX_MODES for m in modes):
        raise click.BadParameter(f"mode counts must lie in 2..{MAX_MODES}, got {value!r}")
    return modes


@cli.command("verify")
@click.argument(
    "subject", type=click.Choice(["identities", "locc", "perturbation", "conjecture"])
)
@click.option("--trials", type=click.IntRange(min=1), default=None,
              help="Trial count, at least 1 (subject default).")
@click.option("--seed", type=click.IntRange(min=0), default=None, help="Override the global seed.")
@click.option("--modes", default=None, callback=_parse_modes,
              help=f"Comma-separated mode counts in 2..{MAX_MODES} (identities/conjecture).")
@click.pass_context
def verify_cmd(ctx, subject, trials, seed, modes):
    """Run one randomized verification suite and print its report as JSON."""
    if modes is not None and subject in ("locc", "perturbation"):
        raise click.BadParameter(f"only identities and conjecture take it, not {subject}",
                                 param_hint="'--modes'")
    seed = ctx.obj["seed"] if seed is None else seed
    trials = _VERIFY_DEFAULT_TRIALS[subject] if trials is None else trials
    if subject == "identities":
        report = verify.check_identity_suite(seed=seed, trials=trials, modes=modes or (2, 3, 4))
    elif subject == "locc":
        report = verify.check_locc_monotonicity(seed=seed, trials=trials)
    elif subject == "perturbation":
        report = verify.check_perturbation_expansion(seed=seed, trials=trials)
    else:
        report = verify.conjecture_scan(seed=seed, samples=trials, num_modes=modes or (2, 3))
    click.echo(json.dumps(report.to_dict(), indent=2))
    ctx.exit(EXIT_OK if report.passed else EXIT_MISMATCH)


def main(argv=None) -> int:
    """Entry point mapping library errors onto the documented exit codes."""
    try:
        return cli.main(args=argv, standalone_mode=False) or EXIT_OK
    except SystemExit as exc:  # raised by ctx.exit
        return int(exc.code or 0)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return EXIT_INTERNAL
    except click.ClickException as exc:
        exc.show()
        return EXIT_INTERNAL
    except (StateValidationError, ParityError, LayoutError) as exc:
        click.echo(f"validation error: {exc}", err=True)
        return EXIT_VALIDATION
    except FnegError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - defensive
        click.echo(f"internal error: {exc!r}", err=True)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
