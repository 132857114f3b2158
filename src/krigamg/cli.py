"""Command-line front end: generate | variogram | coarsen | solve | table.

All outputs are CSV or Matrix Market files in --out; bodies are
byte-identical across runs with the same configuration and seed.  A
config file (flat key=value lines, keys naming RunConfig fields such as
q_max or nc_fraction) can preset any option; explicit flags win.

Exit codes: 0 success, 1 usage error (an output path that cannot be
written included), 2 numerical failure.
"""

from __future__ import annotations

import csv
import errno
import functools
import sys
from dataclasses import fields
from pathlib import Path

import click

from . import covariance as cov
from .coarsen import write_interpolation_mtx, write_splitting_csv
from .errors import NumericalError
from .metric import distance_correlation
from .pipeline import (
    MODELS,
    RunConfig,
    build_problem,
    coarsen_run,
    embeddability_failure_fraction,
    parse_config_file,
    run_solve,
    setup,
)
from .problems import CASE_LABELS, save_matrix_market
from .twogrid import REPORT_COLUMNS, SolveReport, write_report_csv


def _run_options(func):
    # each option's destination is the RunConfig field it sets
    opts = [
        click.option("--config", "config_path", type=click.Path(exists=True),
                     default=None, help="key=value config file; flags override it."),
        click.option("--case", type=click.Choice(CASE_LABELS), default=None),
        click.option("--matrix", type=click.Path(exists=True), default=None,
                     help="External Matrix Market file instead of a named case."),
        click.option("--coords", type=click.Path(exists=True), default=None,
                     help="Coordinates file (1-based 'i x y' lines)."),
        click.option("--model", type=click.Choice(MODELS), default=None),
        click.option("--K", "K", type=int, default=None, help="Number of test vectors."),
        click.option("--nu", type=int, default=None, help="Smoothing sweeps per test vector."),
        click.option("--seed", type=int, default=None),
        click.option("--qmax", "q_max", type=int, default=None, help="Interpolation caliber."),
        click.option("--radius", type=float, default=None, help="Localization radius."),
        click.option("--nc-fraction", type=float, default=None),
        click.option("--tolerance", type=float, default=None,
                     help="Stop coarsening at this max remaining variance."),
        click.option("--grid-m", type=int, default=None, help="FD grid side (square cases)."),
        click.option("--rings", type=int, default=None, help="Mesh rings (circle cases)."),
        click.option("--vario-max-distance", type=float, default=None),
        click.option("--bin-width", type=float, default=None),
        click.option("--pair-budget", type=int, default=None),
        click.option("--out", type=click.Path(), default=None, help="Output directory."),
    ]
    for opt in reversed(opts):
        func = opt(func)
    return functools.wraps(func)(func)


def _make_config(config_path, **flags) -> RunConfig:
    values = {}
    if config_path is not None:
        values.update(parse_config_file(config_path))
    values.update({f.name: flags[f.name] for f in fields(RunConfig)
                   if flags[f.name] is not None})
    cfg = RunConfig(**values)
    try:
        cfg.validate()
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    _check_out(cfg.out)
    return cfg


def _check_out(out) -> None:
    """Refuse an output directory that cannot be made, before any stage runs:
    its nearest existing path (itself or an ancestor) must be a directory.
    The directory itself is made after the run, so a failed run leaves none."""
    path = Path(out)
    existing = next((p for p in (path, *path.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, "output path is not a directory", str(existing))


def _outdir(out) -> Path:
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


@click.group()
def cli():
    """Gaussian-process (Kriging) coarsening for algebraic multigrid."""


@cli.command("generate")
@_run_options
def cmd_generate(config_path, **flags):
    """Write the selected case as .mtx plus a coordinates file."""
    cfg = _make_config(config_path, **flags)
    if cfg.case is None:
        raise click.UsageError("generate needs --case")
    problem = build_problem(cfg)
    out = _outdir(cfg.out)
    mtx = out / f"{cfg.case}.mtx"
    coords = out / f"{cfg.case}.coords"
    save_matrix_market(problem, mtx, coords)
    click.echo(f"wrote {mtx} and {coords} (n={problem.n})")


@cli.command("variogram")
@_run_options
def cmd_variogram(config_path, **flags):
    """Fit a semivariogram model and dump the empirical and fitted curves as CSV."""
    cfg = _make_config(config_path, **flags)
    if cfg.model == "emp":
        raise click.UsageError("variogram needs --model sph or exp")
    run = setup(cfg)
    out = _outdir(cfg.out)
    stem = f"{cfg.case_label}_{cfg.model_name()}"
    emp_path = out / f"{stem}_empirical.csv"
    fit_path = out / f"{stem}_fit.csv"
    cov.write_semivariogram_csv(run.emp, emp_path)
    cov.write_model_curve_csv(run.model, run.emp.centers, fit_path)
    if run.model.fit_warning:
        click.echo(f"warning: semivariogram {run.model.fit_warning}", err=True)
    click.echo(
        f"wrote {emp_path} and {fit_path} "
        f"(sill={run.model.sigma2:.6g}, range={run.model.eta:.6g})"
    )


@cli.command("coarsen")
@_run_options
def cmd_coarsen(config_path, **flags):
    """Coarsen only: write the splitting CSV and P as .mtx; print the graph-metric diagnostics."""
    cfg = _make_config(config_path, **flags)
    run = setup(cfg)
    state, interp = coarsen_run(cfg, run)
    out = _outdir(cfg.out)
    stem = f"{cfg.case_label}_{cfg.model_name()}"
    split_path = out / f"{stem}_splitting.csv"
    p_path = out / f"{stem}_interpolation.mtx"
    write_splitting_csv(run.problem, state, split_path)
    write_interpolation_mtx(interp, p_path)
    if run.problem.coords is not None:
        corr = distance_correlation(run.problem, seed=cfg.seed)
        click.echo(f"graph/coordinate distance correlation: {corr:.4f}")
    fraction = embeddability_failure_fraction(state, run.oracle)
    click.echo(f"embeddability failures={fraction:.3f}")
    click.echo(
        f"wrote {split_path} and {p_path} "
        f"(n_c={interp.n_c}, empty stencils={state.diagnostics.empty_stencils})"
    )


@cli.command("solve")
@_run_options
def cmd_solve(config_path, **flags):
    """Full pipeline: coarsen, estimate the rate, run preconditioned CG."""
    cfg = _make_config(config_path, **flags)
    report, state, interp, _op, problem = run_solve(cfg)
    out = _outdir(cfg.out)
    stem = f"{cfg.case_label}_{cfg.model_name()}"
    report_path = out / f"{stem}_report.csv"
    split_path = out / f"{stem}_splitting.csv"
    write_report_csv([report], report_path)
    write_splitting_csv(problem, state, split_path)
    diags = state.diagnostics
    click.echo(
        f"rho={report.rho:.4f}, pcg k={report.pcg_iterations}"
        f"{'' if report.converged else ' (NOT converged)'}"
    )
    click.echo(
        f"diagnostics: negative variances={diags.negative_variance_events}, "
        f"regularized={diags.regularized_events}, "
        f"qmax reductions={diags.qmax_reductions}, "
        f"empty stencils={diags.empty_stencils}"
    )
    click.echo(f"wrote {report_path} and {split_path}")
    if not report.converged:
        raise NumericalError("PCG did not reach the requested residual reduction")


@cli.command("table")
@click.option("--which", type=click.Choice(["iso", "aniso"]), required=True)
@click.option("--cases", default=None, help="Comma list restricting the case axis.")
@click.option("--models", default=None, help="Comma list restricting model-K combos, e.g. sph-1,exp-10.")
@click.option("--seed", type=int, default=1)
@click.option("--out", type=click.Path(), default=".")
def cmd_table(which, cases, models, seed, out):
    """Run a (case x model x K) matrix and emit one aggregate CSV."""
    default_cases = ["s-iso", "c-iso"] if which == "iso" else ["s-aniso", "c-aniso"]
    default_models = [
        "emp-10", "emp-100", "sph-1", "sph-10", "sph-100", "exp-1", "exp-10", "exp-100",
    ]
    case_list = cases.split(",") if cases else default_cases
    combos = [_parse_combo(c) for c in (models.split(",") if models else default_models)]
    cells = [(case, combo, RunConfig(case=case, model=family, K=k, seed=seed, out=out))
             for case in case_list for combo, family, k in combos]
    for *_, cfg in cells:
        cfg.validate()  # an unknown case or model family exits 1 before any cell runs
    _check_out(out)
    reports = []
    for case, combo, cfg in cells:
        try:
            report, *_ = run_solve(cfg)
        except (NumericalError, ValueError) as exc:
            report = SolveReport(
                case=cfg.case, model=cfg.model_name(), K=cfg.K, n_c=0,
                q_max=cfg.resolved_q_max(), radius=cfg.radius, rho=float("nan"),
                pcg_iterations=-1, converged=False, error=str(exc),
            )
            click.echo(f"cell {case}/{combo} failed: {exc}", err=True)
        reports.append(report)
        click.echo(f"{case} {combo}: rho={report.rho:.3f} k={report.pcg_iterations}")
    table_path = _outdir(out) / f"table_{which}.csv"
    _write_table_csv(reports, table_path)
    click.echo(f"wrote {table_path}")


def _parse_combo(combo: str) -> tuple[str, str, int]:
    """A --models entry 'family-K' (K defaults to 1) as (entry, family, K)."""
    family, _, k_str = combo.partition("-")
    try:
        return combo, family, int(k_str or 1)
    except ValueError:
        raise click.BadParameter(
            f"K in {combo!r} is not an integer", param_hint="'--models'"
        ) from None


def _write_table_csv(reports, path):
    with open(path, "w") as handle:
        handle.write(",".join((*REPORT_COLUMNS, "error")) + "\n")
        rows = csv.writer(handle, lineterminator="\n")  # quotes an error message with commas
        for rep in reports:
            rows.writerow([*rep.csv_row().split(","), rep.error])


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except click.exceptions.Abort:
        sys.exit(1)
    except NumericalError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(2)
    except (ValueError, OSError) as exc:  # bad input, or an output path that cannot be written
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    sys.exit(0)


if __name__ == "__main__":
    main()
