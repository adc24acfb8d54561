"""Command-line front end for training, simulation and exploration.

Every command takes a JSON experiment config plus overriding flags,
writes its artifacts (model files, CSV tables) into the output
directory, and records a manifest with the config hash and seeds so a
run can be reproduced exactly.

Exit codes (the README's table lists what each covers): 0 success, 2
``ConfigError``, 3 ``TrainingError``, 4 ``ModelRefError``, 5 any other
``NnadcError``.  Each error prints ``error: <message>`` to standard
error.  Any other exception is a bug and ends in a traceback.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import click

from . import dse as _dse
from . import metrics as _metrics
from . import modelio, pipeline as _pipe, sweep as _sweep
from .config import ExperimentConfig, split_seed
from .errors import ConfigError, ModelRefError, NnadcError, TrainingError
from .signal_core import SineStimulus, StageSpec, sine_stimulus
from .trainer import train_stage

EXIT_CONFIG = 2
EXIT_TRAINING = 3
EXIT_MODEL_REF = 4
EXIT_INPUT = 5


# first match wins, so the NnadcError base class comes last
_EXIT_CODES = ((ConfigError, EXIT_CONFIG), (TrainingError, EXIT_TRAINING),
               (ModelRefError, EXIT_MODEL_REF), (NnadcError, EXIT_INPUT))


class _Cli(click.Group):
    """Command group that ends every ``NnadcError`` with its exit code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except NnadcError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(next(code for cls, code in _EXIT_CODES
                          if isinstance(exc, cls)))


def _parse_ints(text: str):
    """'1..7' or '1,2,3' -> non-empty list of ints, else ``ConfigError``."""
    lo, dots, hi = text.partition("..")
    try:
        values = (list(range(int(lo), int(hi) + 1)) if dots
                  else [int(t) for t in text.split(",") if t])
    except ValueError:
        values = []
    if not values:
        raise ConfigError(f"not a list of integers like 1..7 or 1,2: {text!r}")
    return values


def _write_manifest(cfg: ExperimentConfig, command: str, outputs) -> None:
    manifest = {
        "command": command,
        "config_hash": cfg.run_hash(),
        "seed": cfg.seed,
        "schema_version": modelio.SCHEMA_VERSION,
        "outputs": [str(o) for o in outputs],
    }
    (cfg.out_dir() / f"manifest_{command}.json").write_text(
        json.dumps(manifest, indent=1))


def _load_pipeline(cfg: ExperimentConfig, path, force: bool):
    """Pipeline file whose stages must come from ``cfg`` unless ``force``."""
    return modelio.load_pipeline(path,
                                 check_hash=None if force else cfg.run_hash())


def _stimulus(cfg: ExperimentConfig, enc) -> SineStimulus:
    """Near-full-scale tone in the encoding's normalized domain."""
    return sine_stimulus(cfg.stimulus_n, cfg.stimulus_bin, 0.4999, enc,
                         cfg.vdd)


@click.group(cls=_Cli)
def main() -> None:
    """Pipelined RRAM-crossbar ADC training and simulation toolkit."""


@main.command("train-stage")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--n", "n_bits", type=int, default=1, help="stage resolution")
@click.option("--ar", type=int, default=None, help="RRAM weight precision")
@click.option("--seed", type=int, default=None, help="training seed override")
@click.option("--terminal", is_flag=True, help="sub-ADC only, no residue")
def cmd_train_stage(config_path, n_bits, ar, seed, terminal):
    """Train one stage and write its model file."""
    cfg = ExperimentConfig.from_file(config_path)
    grid = cfg.grid
    if ar is not None:
        grid = dataclasses.replace(grid, precision_bits=ar)
    train_cfg = dataclasses.replace(
        cfg.train, seed=seed if seed is not None
        else split_seed(cfg.seed, f"train-n{n_bits}"))
    spec = StageSpec(resolution_bits=n_bits, vdd=cfg.vdd)
    stage = train_stage(spec, cfg.encoding, cfg.family(), grid, train_cfg,
                        train_residue=not terminal)
    out = cfg.out_dir()
    path = out / f"stage_n{n_bits}_ar{grid.precision_bits}_s{train_cfg.seed}.json"
    modelio.save_stage(stage, path, run_hash=cfg.run_hash())
    metrics_path = out / "stage_metrics.csv"
    modelio.write_csv(metrics_path,
                      ["model", "n", "ar", "seed", "subadc_enob",
                       "residue_mse"],
                      [[path.name, n_bits, grid.precision_bits,
                        train_cfg.seed,
                        stage.train_metrics.get("subadc_enob", ""),
                        stage.train_metrics.get("residue_mse", "")]])
    _write_manifest(cfg, "train-stage", [path, metrics_path])
    click.echo(f"wrote {path}")


@main.command("sweep-precision")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--n", "n_list", default="1,2", help="resolutions, e.g. 1..3")
@click.option("--ar", "ar_list", default="1..7", help="precisions, e.g. 1..7")
@click.option("--runs", type=int, default=None)
@click.option("--sigma", type=float, default=None)
def cmd_sweep_precision(config_path, n_list, ar_list, runs, sigma):
    """Median accuracy vs RRAM precision under resistance perturbation."""
    cfg = ExperimentConfig.from_file(config_path)
    rows = _sweep.precision_sweep(
        cfg, _parse_ints(n_list), _parse_ints(ar_list),
        runs if runs is not None else cfg.mc_runs,
        sigma if sigma is not None else cfg.mc_sigma)
    path = cfg.out_dir() / "sweep_precision.csv"
    modelio.write_csv(path, ["n", "ar", "median_subadc_enob",
                             "median_residue_mse"], rows)
    _write_manifest(cfg, "sweep-precision", [path])
    click.echo(f"wrote {path}")


@main.command("build-pipeline")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--stages", "stage_list", required=True,
              help="comma-separated stage model files, first stage first")
@click.option("--out", "out_name", default="pipeline.json")
def cmd_build_pipeline(config_path, stage_list, out_name):
    """Assemble a pipeline description from stage model files."""
    cfg = ExperimentConfig.from_file(config_path)
    paths = [Path(p) for p in stage_list.split(",") if p]
    # stage files, total resolution and residues are checked before
    # anything is written, so a failed build leaves no pipeline file
    _pipe.PipelineConfig(stages=tuple(map(modelio.load_stage, paths)),
                         enc=cfg.encoding)
    out = cfg.out_dir() / out_name
    modelio.save_pipeline(out, paths, cfg.encoding,
                          run_hash=cfg.run_hash())
    _write_manifest(cfg, "build-pipeline", [out])
    click.echo(f"wrote {out}")


@main.command("simulate")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--pipeline", "pipeline_path", required=True, type=click.Path())
@click.option("--mode", type=click.Choice(["ideal", "behavioral"]),
              default="behavioral")
@click.option("--force", is_flag=True,
              help="accept stage models built from another config")
def cmd_simulate(config_path, pipeline_path, mode, force):
    """Convert a coherent sine and export the conversion trace."""
    cfg = ExperimentConfig.from_file(config_path)
    p = _load_pipeline(cfg, pipeline_path, force)
    stim = _stimulus(cfg, p.enc)
    codes = _pipe.convert(p, stim.samples, mode)
    rec = _pipe.reconstruct(codes, p.enc, width=p.reso)
    _, enob = _metrics.enob_of_codes(codes, p.reso, stim.f_s, stim.f_in)
    path = cfg.out_dir() / "trace.csv"
    modelio.write_csv(path, ["input_v", "code", "reconstructed_v"],
                      zip(stim.samples.tolist(), codes.tolist(), rec.tolist()))
    _write_manifest(cfg, "simulate", [path])
    click.echo(f"ENOB {enob:.3f} bits; wrote {path}")


@main.command("mc-eval")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--pipeline", "pipeline_path", required=True, type=click.Path())
@click.option("--runs", type=int, default=None)
@click.option("--sigma", type=float, default=None)
@click.option("--force", is_flag=True)
def cmd_mc_eval(config_path, pipeline_path, runs, sigma, force):
    """Monte Carlo resistance-perturbation evaluation of a pipeline."""
    cfg = ExperimentConfig.from_file(config_path)
    p = _load_pipeline(cfg, pipeline_path, force)
    mc = _pipe.McEvalSpec(
        runs=runs if runs is not None else cfg.mc_runs,
        sigma=sigma if sigma is not None else cfg.mc_sigma,
        seed=split_seed(cfg.seed, "mc-eval"))
    summary = _pipe.monte_carlo_eval(p, mc, _stimulus(cfg, p.enc))
    path = cfg.out_dir() / "mc_eval.csv"
    modelio.write_csv(path, ["run", "enob"],
                      list(enumerate(summary.enobs)))
    _write_manifest(cfg, "mc-eval", [path])
    click.echo(f"median ENOB {summary.median_enob:.3f} bits over "
               f"{mc.runs} runs; wrote {path}")


@main.command("dse")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--reso", type=int, required=True)
@click.option("--table", "table_path", default=None, type=click.Path(),
              help="cost table JSON (defaults to the config's table)")
def cmd_dse(config_path, reso, table_path):
    """Rank all stage compositions by figure of merit and area."""
    cfg = ExperimentConfig.from_file(config_path)
    if table_path is not None:
        table = modelio.load_cost_table(table_path)
    elif cfg.cost_table is not None:
        table = cfg.cost_table
    else:
        raise ConfigError("cost_table: missing from config and no "
                          "--table given")
    ranked = _dse.optimize(reso, table)
    path = cfg.out_dir() / "dse_ranked.csv"
    modelio.write_csv(
        path,
        ["rank", "composition", "power_w", "rate_sps", "area_mm2",
         "enob", "fom_j_per_conv"],
        [[i, "-".join(map(str, r.composition)), r.power, r.rate, r.area,
          r.enob, r.fom_w] for i, r in enumerate(ranked)])
    _write_manifest(cfg, "dse", [path])
    best = ranked[0]
    click.echo(f"best composition {best.composition} "
               f"FoM {best.fom_w * 1e15:.2f} fJ/conv; wrote {path}")


@main.command("export")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--pipeline", "pipeline_path", required=True, type=click.Path())
@click.option("--mode", type=click.Choice(["ideal", "behavioral"]),
              default="behavioral")
@click.option("--force", is_flag=True)
def cmd_export(config_path, pipeline_path, mode, force):
    """Export the output spectrum of a pipeline conversion as CSV."""
    cfg = ExperimentConfig.from_file(config_path)
    p = _load_pipeline(cfg, pipeline_path, force)
    stim = _stimulus(cfg, p.enc)
    codes = _pipe.convert(p, stim.samples, mode)
    rec = _metrics.code_midpoints(codes, p.reso)
    res = _metrics.spectrum(rec, stim.f_s)
    path = cfg.out_dir() / "spectrum.csv"
    modelio.write_csv(path, ["freq", "power_db"],
                      _metrics.spectrum_csv_rows(res))
    _write_manifest(cfg, "export", [path])
    click.echo(f"wrote {path}")


if __name__ == "__main__":
    main()
