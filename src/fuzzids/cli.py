"""Command-line entry points: ingest, preprocess, select, train, predict, run, report.

``preprocess``, ``select`` and ``train`` take the same config as ``run`` and
run the pipeline's stages up to their own, writing the same artifacts into
its ``output_dir``. ``predict`` applies one trained cell of that run to a new
file with the run's saved encoder and scaler states.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import click

from .dataset import DatasetSchema, class_distribution, load_csv
from .errors import FuzzidsError, LoadError
from .pipeline import (
    ExperimentConfig,
    fit_cells,
    load_partitions,
    predict_file,
    preprocess_partitions,
    rank_features,
    run_experiment,
    write_json,
)

def _typed_errors(command):
    """Report a package error as ``error: ...`` and exit with its code; an
    output path that cannot be written exits 1."""
    @functools.wraps(command)
    def wrapper(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except FuzzidsError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(exc.exit_code)
        except OSError as exc:
            click.echo(f"error: {exc.filename}: {exc.strerror}" if exc.filename
                       else f"error: {exc}", err=True)
            sys.exit(1)
    return wrapper


def _config_option(command):
    return click.option("--config", "config_path", required=True,
                        type=click.Path(), help="experiment config, as for run")(command)


def _scaled(config: ExperimentConfig):
    """Stages 1 and 2: the scaled partitions and their transform reports."""
    timings: dict[str, float] = {}
    return preprocess_partitions(config, load_partitions(config, timings), timings)


def _save_matrix_csv(path: Path, ds) -> None:
    header = ",".join(ds.schema.feature_names + [ds.schema.label_column])
    rows = [header]
    for row, label in zip(ds.numeric_features(), ds.labels):
        cells = [f"{v:.10g}" for v in row]
        rows.append(",".join(cells + [ds.schema.decode_label(int(label))]))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


@click.group()
def main():
    """Fuzzy-logic feature selection IDS toolkit."""


@main.command()
@click.option("--data", "data_path", required=True, type=click.Path())
@click.option("--schema", "schema_path", required=True, type=click.Path())
@click.option("--report", "report_path", required=True, type=click.Path())
@_typed_errors
def ingest(data_path, schema_path, report_path):
    """Load a dataset and emit a class-distribution report."""
    schema = DatasetSchema.from_file(schema_path)
    ds = load_csv(data_path, schema)
    dist = class_distribution(ds)
    write_json(report_path, {
        "dataset": schema.name,
        "rows": len(ds),
        "class_distribution": {
            schema.decode_label(k): v for k, v in sorted(dist.items())
        },
    })
    click.echo(f"loaded {len(ds)} rows from {data_path}")


@main.command()
@_config_option
@_typed_errors
def preprocess(config_path):
    """Fit encoder and scaler on the train partition; save states and scaled partitions."""
    config = ExperimentConfig.from_file(config_path)
    scaled, reports = _scaled(config)
    out = Path(config.output_dir)
    for name, ds in scaled.items():
        _save_matrix_csv(out / f"{name}_scaled.csv", ds)
    write_json(out / "transform_report.json",
               {name: r.to_dict() for name, r in reports.items()})
    click.echo(f"wrote states and scaled partitions to {out}")


@main.command()
@_config_option
@_typed_errors
def select(config_path):
    """Rank features on the train partition and save ranking.json."""
    config = ExperimentConfig.from_file(config_path)
    _, vectors = rank_features(config, _scaled(config)[0]["train"], {})
    click.echo(f"wrote ranking and {len(vectors)} vectors to {config.output_dir}")


@main.command()
@_config_option
@_typed_errors
def train(config_path):
    """Fit and save every (model, vector) cell of the config under models/."""
    config = ExperimentConfig.from_file(config_path)
    train_part = _scaled(config)[0]["train"]
    _, vectors = rank_features(config, train_part, {})
    n_cells = sum(1 for _ in fit_cells(config, train_part, vectors))
    click.echo(f"trained {n_cells} cells; models saved to {config.output_dir}/models")


@main.command()
@_config_option
@click.option("--model", "model_name", required=True,
              help="model name in the run, e.g. dt, or dt2 for a second dt")
@click.option("--vector", "vector_name", required=True, help="vector name, e.g. v1")
@click.option("--data", "data_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
@_typed_errors
def predict(config_path, model_name, vector_name, data_path, out_path):
    """Predict labels for a file with one trained cell and the run's saved states."""
    config = ExperimentConfig.from_file(config_path)
    labels = predict_file(config, model_name, vector_name, data_path)
    Path(out_path).write_text("".join(f"{int(v)}\n" for v in labels), encoding="utf-8")
    click.echo(f"wrote {len(labels)} predictions to {out_path}")


@main.command()
@_config_option
@_typed_errors
def run(config_path):
    """Run the full experiment described by a config file."""
    config = ExperimentConfig.from_file(config_path)
    report = run_experiment(config)
    click.echo(
        f"run complete: {len(report.cells)} cells written to {config.output_dir}"
    )


@main.command()
@click.option("--run", "run_dir", required=True, type=click.Path())
@click.option("--format", "fmt", default="table",
              type=click.Choice(["table", "roc", "cm"]))
@_typed_errors
def report(run_dir, fmt):
    """Print artifacts of a finished run."""
    run_dir = Path(run_dir)
    if fmt == "table":
        path = run_dir / "metrics_table.csv"
        if not path.exists():
            raise LoadError(f"no metrics table in {run_dir}")
        click.echo(path.read_text(encoding="utf-8"), nl=False)
    else:
        sub = run_dir / fmt
        if not sub.is_dir():
            raise LoadError(f"no {fmt} directory in {run_dir}")
        for path in sorted(sub.iterdir()):
            click.echo(f"== {path.name}")
            click.echo(path.read_text(encoding="utf-8"), nl=False)


if __name__ == "__main__":
    main()
