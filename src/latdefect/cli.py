"""Command line surface.

Subcommands cover defect invariants, characteristic minima, gluing,
correction terms of Seifert expressions, filling and surgery obstructions,
and the randomized verification suites. Exit codes: 0 success, 1 usage or
parse error, 2 mathematical precondition violation, 3 node budget
exhausted, 4 suite failure.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sys

import click

from .defects import defects, min_char_norm
from .dinvariant import evaluate_expression
from .errors import EXIT_OK, EXIT_USAGE, ToolkitError, UnsupportedExpressionError
from .formats import format_fraction, gram_from_json, gram_to_json, parse_fraction
from .glue import glue_overlattice
from .lattice import validate_lattice
from .obstruction import report_verdict, surgery_cobordism_obstruction, surgery_difference
from .verify import DEFAULT_RANK_BOUND, DEFAULT_TRIALS, SUITE_NAMES, verify_suite


@dataclasses.dataclass
class Settings:
    json: bool
    node_budget: int | None
    seed: int


@click.group()
@click.option("--json", "as_json", is_flag=True, help="Emit machine-readable JSON.")
@click.option("--node-budget", type=click.IntRange(min=1), default=None,
              help="Abort enumeration after this many search nodes.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Master seed for randomized suites.")
@click.pass_context
def cli(ctx, as_json, node_budget, seed):
    """Exact defect invariants, correction terms, and filling obstructions."""
    ctx.obj = Settings(json=as_json, node_budget=node_budget, seed=seed)


def _read_lattice(path: str):
    return validate_lattice(gram_from_json(pathlib.Path(path).read_bytes()))


def _emit(settings: Settings, payload: dict, lines):
    if settings.json:
        click.echo(json.dumps(payload))
    else:
        for line in lines:
            click.echo(line)


@cli.command()
@click.option("--gram", "gram_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Gram matrix JSON file.")
@click.pass_obj
def defect(settings: Settings, gram_path):
    """Defect invariant(s) of a definite lattice from its Gram matrix."""
    lat = _read_lattice(gram_path)
    pair = defects(lat, node_budget=settings.node_budget)
    if abs(lat.determinant) == 1:
        value = format_fraction(pair.d_plus)
        _emit(settings, {"determinant": lat.determinant, "defect": value},
              [f"defect = {value}"])
        return
    d_plus, d_minus = format_fraction(pair.d_plus), format_fraction(pair.d_minus)
    _emit(settings,
          {"determinant": lat.determinant, "d_plus": d_plus, "d_minus": d_minus},
          [f"d_plus = {d_plus}", f"d_minus = {d_minus}"])


@cli.command()
@click.option("--gram", "gram_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Gram matrix JSON file.")
@click.option("--sign", type=click.Choice(["plus", "minus", "any"]), default="any",
              show_default=True, help="Restrict to one characteristic class.")
@click.option("--radius", default=None, help="Only search squares up to this rational.")
@click.pass_obj
def charmin(settings: Settings, gram_path, sign, radius):
    """Minimal characteristic square and all minimizing covectors."""
    lat = _read_lattice(gram_path)
    bound = parse_fraction(radius) if radius is not None else None
    result = min_char_norm(lat, sign, radius=bound, node_budget=settings.node_budget)
    lines = [f"min = {format_fraction(result.min_norm)}"]
    lines += [f"minimizer: ({', '.join(str(x) for x in p)})" for p in result.minimizers]
    lines.append(f"nodes = {result.nodes_visited}")
    _emit(settings,
          {"min": format_fraction(result.min_norm),
           "minimizers": [list(p) for p in result.minimizers],
           "nodes": result.nodes_visited},
          lines)


@cli.command()
@click.option("--left", "left_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Left Gram JSON file.")
@click.option("--right", "right_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Right Gram JSON file.")
@click.pass_obj
def glue(settings: Settings, left_path, right_path):
    """Unimodular overlattice glued from two determinant-2 lattices."""
    over = glue_overlattice(_read_lattice(left_path), _read_lattice(right_path))
    payload = {
        "rank": over.rank,
        "gram": [list(row) for row in over.gram],
        "determinant": over.determinant,
        "index": over.sublattice_index,
        "basis": [[format_fraction(x) for x in row] for row in over.basis_change],
    }
    _emit(settings, payload, [gram_to_json(over.gram)])


@cli.group()
def seifert():
    """Invariants of Seifert expressions like '3*P + Y(2;15/13,17/3,23/22)'."""


def _evaluated(settings: Settings, expression: str):
    return evaluate_expression(expression, node_budget=settings.node_budget)


@seifert.command("d")
@click.argument("expression")
@click.pass_obj
def seifert_d(settings: Settings, expression):
    """Correction terms, one per spin-c class, with the labelled pair."""
    report = _evaluated(settings, expression)
    payload = {
        "h1": report.h1,
        "class_values": [format_fraction(v) for v in report.class_values],
        "pair": None,
    }
    if report.h1 == 1:
        lines = [f"d = {format_fraction(report.class_values[0])}"]
    else:
        lines = [f"class values: {', '.join(format_fraction(v) for v in report.class_values)}"]
    if report.pair is not None:
        payload["pair"] = {
            "d_1/4": format_fraction(report.pair.d_quarter),
            "d_-1/4": format_fraction(report.pair.d_minus_quarter),
        }
        lines.append(f"d_{{1/4}} = {format_fraction(report.pair.d_quarter)}")
        lines.append(f"d_{{-1/4}} = {format_fraction(report.pair.d_minus_quarter)}")
    _emit(settings, payload, lines)


@cli.command()
@click.argument("expression")
@click.pass_obj
def obstruct(settings: Settings, expression):
    """Definite filling verdicts for both orientations."""
    verdict = report_verdict(_evaluated(settings, expression))
    _emit(settings,
          {"positive_definite": str(verdict.positive_definite),
           "negative_definite": str(verdict.negative_definite),
           "reason": verdict.reason},
          [f"positive definite filling: {verdict.positive_definite}",
           f"negative definite filling: {verdict.negative_definite}",
           f"reason: {verdict.reason}"])


@cli.command()
@click.argument("expression")
@click.pass_obj
def surgery(settings: Settings, expression):
    """Obstruction to homology cobordism with +-2/q surgeries on knots."""
    report = _evaluated(settings, expression)
    if report.pair is None:
        raise UnsupportedExpressionError(
            "surgery obstruction needs a labelled pair of classes"
        )
    verdict = surgery_cobordism_obstruction(report.pair)
    difference = surgery_difference(report.pair)
    _emit(settings,
          {"difference": format_fraction(difference), "obstructed": verdict},
          [f"difference = {format_fraction(difference)}",
           f"verdict = {'true' if verdict else 'false'}"])


@cli.command()
@click.argument("suite", required=False, type=click.Choice(SUITE_NAMES))
@click.option("--rank-bound", type=click.IntRange(min=1), default=DEFAULT_RANK_BOUND, show_default=True)
@click.option("--trials", type=click.IntRange(min=1), default=DEFAULT_TRIALS, show_default=True)
@click.pass_obj
def verify(settings: Settings, suite, rank_bound, trials):
    """Run one randomized verification suite, or all of them."""
    names = [suite] if suite else list(SUITE_NAMES)
    reports = [
        verify_suite(
            name,
            rank_bound=rank_bound,
            trials=trials,
            seed=settings.seed,
            node_budget=settings.node_budget,
        )
        for name in names
    ]
    payload = [dataclasses.asdict(r) for r in reports]
    lines = [
        f"suite {r.name}: {r.trials} trials, {r.checks} checks, 0 violations"
        for r in reports
    ]
    _emit(settings, {"suites": payload}, lines)


def main(argv=None) -> int:
    """Run the CLI, mapping every failure mode onto its exit code."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except ToolkitError as err:
        click.echo(f"error: {err}", err=True)
        return err.exit_code
    except click.UsageError as err:  # no option is a click.File, so every click error is one
        click.echo(f"usage error: {err.format_message()}", err=True)
        return EXIT_USAGE
    except click.exceptions.Abort:
        return EXIT_USAGE
    return EXIT_OK


def entrypoint():
    sys.exit(main(sys.argv[1:]))
