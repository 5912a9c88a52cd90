"""Command-line experiment runner.

Every acceptance-style experiment is a subcommand producing CSV data, a
JSON mirror, and a machine-readable report file.  Exit codes: 0 success,
1 experiment failure, 2 configuration or input error.
"""

import json
import sys
from pathlib import Path

import click

from . import __version__
from .errors import KernelSpaceError, ReportError
from .experiments import (EXPERIMENTS, ExperimentConfig, emit_report,
                          load_config_file, run_experiment)

OUT_DIR_ENVVAR = "KREINGEO_OUT"


def _parse_tolerance_overrides(pairs) -> dict[str, float]:
    overrides = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise click.BadParameter(f"expected NAME=VALUE, got {pair!r}")
        try:
            overrides[name] = float(value)
        except ValueError:
            raise click.BadParameter(f"tolerance {name!r} needs a numeric value")
    return overrides


def _experiment_options(func):
    options = [
        click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
                     default=None, help="JSON config file for this experiment."),
        click.option("--seed", type=int, default=None,
                     help="Random seed; overrides the config value."),
        click.option("--out", "out_dir", type=click.Path(file_okay=False),
                     envvar=OUT_DIR_ENVVAR, default=None,
                     help=f"Output directory (env {OUT_DIR_ENVVAR}; default 'results')."),
        click.option("--tolerance", "tolerances", multiple=True, metavar="NAME=VAL",
                     help="Override one tolerance; repeatable."),
        click.option("--dump-elements", is_flag=True, default=False,
                     help="Serialize the experiment's key elements to JSON."),
    ]
    for option in reversed(options):
        func = option(func)
    return func


def _run(name: str, config_path, seed, out_dir, tolerances, dump_elements):
    try:
        record = load_config_file(config_path, name) if config_path else {}
        overrides = _parse_tolerance_overrides(tolerances)
        merged_tols = dict(record.get("tolerances", {}))
        merged_tols.update(overrides)
        cfg = ExperimentConfig.build(
            name,
            parameters=record.get("parameters"),
            tolerances=merged_tols,
            seed=seed if seed is not None else record.get("seed", 0),
            out_dir=out_dir or record.get("output") or "results",
            dump_elements=dump_elements,
        )
    except (ValueError, OSError, json.JSONDecodeError, click.BadParameter) as ex:
        click.echo(f"config error: {ex}", err=True)
        sys.exit(2)

    try:
        report = run_experiment(cfg)
    except KernelSpaceError as ex:
        click.echo(f"experiment error: {ex}", err=True)
        sys.exit(1)

    for m in report.measurements:
        status = "ok" if m.passed else "FAIL"
        click.echo(f"  {m.name}: {m.value:.6e} (tolerance {m.tolerance:.6e}) {status}")
    click.echo(f"{name}: {'PASS' if report.passed else 'FAIL'} "
               f"[{report.wall_time:.2f} s, seed {report.seed}, out {cfg.out_dir}]")
    sys.exit(0 if report.passed else 1)


@click.group()
@click.version_option(version=__version__, prog_name="kreingeo")
def main():
    """Kernel-space geometry experiments: run each verification as a subcommand."""


for _name, _experiment in EXPERIMENTS.items():
    @main.command(name=_name, help=_experiment.help)
    @_experiment_options
    def _cmd(config_path, seed, out_dir, tolerances, dump_elements, _name=_name):
        _run(_name, config_path, seed, out_dir, tolerances, dump_elements)


@main.command()
@click.option("--results", "results_dir", type=click.Path(file_okay=False),
              envvar=OUT_DIR_ENVVAR, default="results", show_default=True,
              help="Directory holding *_report.json files.")
@click.option("--out", "out_file", type=click.Path(dir_okay=False), default=None,
              help="Write the markdown report here instead of stdout.")
def report(results_dir, out_file):
    """Aggregate all report files into one markdown document."""
    try:
        document = emit_report(results_dir)
    except ReportError as ex:
        click.echo(f"report error: {ex}", err=True)
        sys.exit(2)
    if out_file:
        Path(out_file).write_text(document, encoding="utf-8")
        click.echo(f"wrote {out_file}")
    else:
        click.echo(document)
    sys.exit(0)


if __name__ == "__main__":
    main()
