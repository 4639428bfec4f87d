"""Command-line entry point: index / highlight / eval / sweep."""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, NoReturn

import click

from .config import RunConfig
from .errors import MissingSource, RagmarkError
from .evaluation import (
    PipelineHandles,
    RunReport,
    RunSetting,
    load_dataset,
    run_setting,
    sweep_csv,
    sweep_settings,
    topk_sweep,
)
from .pipeline import select_evidence
from .stepback import (
    CachingChatClient,
    ChatClient,
    HttpChatClient,
    LlmClientConfig,
    RecordedChatClient,
    ReplyCache,
)
from .store import build_index, load_passages, load_precomputed_results

EXIT_OK = 0
EXIT_RUN_ERROR = 1
EXIT_CONFIG_ERROR = 2


def _fail(message: str, code: int = EXIT_CONFIG_ERROR) -> NoReturn:
    click.echo(message, err=True)
    sys.exit(code)


@contextmanager
def _exit_codes() -> Iterator[None]:
    """A `MissingSource` ends the command as a config error, any other `RagmarkError` as a run error."""
    try:
        yield
    except MissingSource as exc:
        _fail(f"config error: {exc}")
    except RagmarkError as exc:
        _fail(f"error: {exc}", EXIT_RUN_ERROR)


def _load_config(config_path: str | None, **overrides) -> RunConfig:
    try:
        cfg = RunConfig.load(config_path) if config_path else RunConfig()
        return dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        _fail(f"config error: {exc}")


def _baseline_accuracy(baseline_path: str) -> float:
    """The `accuracy` of a prior report.json; a config error if the file does not hold one."""
    try:
        base = json.loads(Path(baseline_path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        _fail(f"config error: baseline {baseline_path}: {exc}")
    accuracy = base.get("accuracy") if isinstance(base, dict) else None
    if type(accuracy) not in (int, float) or not math.isfinite(accuracy):  # bool is not a number here
        _fail(f"config error: baseline {baseline_path} has no numeric accuracy")
    return float(accuracy)


def _reply_cache(cfg: RunConfig) -> ReplyCache | None:
    """The one reply cache that a command's chat clients share."""
    return ReplyCache(cfg.reply_cache_path) if cfg.reply_cache_path else None


def _chat_client(cfg: RunConfig, model_name: str, cache: ReplyCache | None) -> ChatClient | None:
    if cfg.llm_endpoint:
        client = HttpChatClient(LlmClientConfig(endpoint=cfg.llm_endpoint, model_name=model_name))
        return CachingChatClient(client, cache) if cache is not None else client
    if cache is not None:
        return RecordedChatClient(cache, model_name=model_name)
    return None


def _handles(cfg: RunConfig) -> PipelineHandles:
    cache = _reply_cache(cfg)
    qa = _chat_client(cfg, cfg.qa_model, cache)
    if qa is None:
        _fail(f"config error: {click.get_current_context().info_name} needs an LLM endpoint or a reply cache")
    return PipelineHandles(
        qa_client=qa,
        embedding_provider=cfg.provider.build(),
        stepback_client=_chat_client(cfg, cfg.stepback_model, cache) if cfg.stepback else None,
        retriever_params=cfg.retriever,
        bm25_index=build_index(load_passages(cfg.kb_path), cfg.bm25) if cfg.kb_path else None,
        precomputed=load_precomputed_results(cfg.results_path) if cfg.results_path else None,
    )


def _setting(cfg: RunConfig) -> RunSetting:
    return RunSetting(**{f.name: getattr(cfg, f.name) for f in dataclasses.fields(RunSetting)})


def _run_reports(cfg: RunConfig, run: Callable[..., dict[str, RunReport]]) -> dict[str, RunReport]:
    """The path `eval` and `sweep` share: load the dataset, build the handles, take the named reports
    of `run(records, handles)`, then write config.json and each `<name>.json` and `<name>.records.jsonl`."""
    if not cfg.dataset_path:
        _fail(f"config error: {click.get_current_context().info_name} needs dataset_path")
    reports = run(load_dataset(cfg.dataset_path), _handles(cfg))
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg.save(out_dir / "config.json")
    for name, report in reports.items():
        (out_dir / f"{name}.json").write_text(
            json.dumps(report.to_summary(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        with (out_dir / f"{name}.records.jsonl").open("w", encoding="utf-8") as fh:
            for o in report.outcomes:
                record = {"query_id": o.query_id, "generation": o.generation, "correct": o.correct, "error": o.error}
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    return reports


@click.group()
def main() -> None:
    """Evidence selection and highlighting for retrieval-augmented generation."""


@main.command("index")
@click.option("--kb", "kb_path", required=True, type=click.Path(exists=True), help="KB JSONL file.")
@click.option("--out", "out_path", required=True, type=click.Path(), help="Index output path.")
def cmd_index(kb_path: str, out_path: str) -> None:
    """Build and persist a BM25 index; print corpus statistics."""
    with _exit_codes():
        passages = load_passages(kb_path)
        index = build_index(passages)
        payload = {
            "params": {"k1": index.params.k1, "b": index.params.b},
            "n_docs": index.n_docs,
            "avg_doc_length": index.avg_doc_length,
            "vocabulary_size": len(index.doc_freq),
            "passages": [{"id": p.id, "title": p.title, "text": p.text} for p in passages],
        }
        Path(out_path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", "utf-8")
        click.echo(f"indexed {index.n_docs} passages, vocabulary {len(index.doc_freq)}, "
                   f"avg length {index.avg_doc_length:.1f} terms")


@main.command("highlight")
@click.option("--query", required=True, help="The question to select evidence for.")
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--kb", "kb_path", type=click.Path(exists=True))
@click.option("--out", "out_path", type=click.Path(), default="highlighted.jsonl")
@click.option("--k", "k_max_hops", type=int, default=None, help="Override hop cap.")
@click.option("--top-k", type=int, default=None, help="Passages to retrieve.")
@click.option("--no-stepback", is_flag=True, help="Disable step-back expansion.")
def cmd_highlight(query, config_path, kb_path, out_path, k_max_hops, top_k, no_stepback) -> None:
    """Retrieve passages for one query, highlight evidence, dump the result."""
    cfg = _load_config(config_path, kb_path=kb_path, top_k=top_k, stepback=False if no_stepback else None)
    if k_max_hops is not None:
        cfg = dataclasses.replace(cfg, retriever=dataclasses.replace(cfg.retriever, k_max_hops=k_max_hops))
    if not cfg.kb_path:
        _fail("config error: highlight needs --kb or kb_path in the config")
    with _exit_codes():
        passages = load_passages(cfg.kb_path)
        index = build_index(passages, cfg.bm25)
        k = cfg.top_k or index.n_docs
        retrieved = index.top_k(query, k)
        result = select_evidence(
            query,
            retrieved,
            cfg.provider.build(),
            cfg.retriever,
            stepback_client=_chat_client(cfg, cfg.stepback_model, _reply_cache(cfg)) if cfg.stepback else None,
        )
        record = result.document.to_record(query_id="adhoc")
        if cfg.stepback and result.queries[0].stepback:
            record["stepback"] = result.queries[0].stepback
        Path(out_path).write_text(json.dumps(record, sort_keys=True) + "\n", "utf-8")
        click.echo(result.document.rendered())
        click.echo("")
        for i, chain in enumerate(result.chains, 1):
            sizes = [len(h.remainder_after) for h in chain.hops]
            click.echo(
                f"chain {i}: {len(chain.hops)} hops, terminated by {chain.terminated_by}, "
                f"remainder sizes {sizes}"
            )
        click.echo(f"wrote {out_path} ({result.document.evidence_count} evidence sentences)")


@main.command("eval")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--baseline", "baseline_path", type=click.Path(exists=True),
              help="Prior report.json to compute relative change against.")
def cmd_eval(config_path: str, baseline_path: str | None) -> None:
    """Run one evaluation setting and write its report."""
    cfg = _load_config(config_path)
    baseline = (
        RunReport(setting=_setting(cfg), outcomes=(), accuracy=_baseline_accuracy(baseline_path))
        if baseline_path else None
    )
    with _exit_codes():
        report = _run_reports(cfg, lambda records, handles: {
            "report": run_setting(records, _setting(cfg), handles, baseline=baseline)
        })["report"]
        line = f"accuracy: {report.accuracy:.2f} over {len(report.outcomes)} records"
        if report.relative_change is not None:
            line += f" (relative change {report.relative_change:+.2f}%)"
        click.echo(line)
        failures = [o for o in report.outcomes if o.error]
        if failures:
            click.echo(f"{len(failures)} records failed and were scored incorrect", err=True)


@main.command("sweep")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--k-values", required=True, help="Comma-separated, strictly ascending k values of at least 1, e.g. 5,10,20.")
def cmd_sweep(config_path: str, k_values: str) -> None:
    """Run the top-k sweep and write a plot-ready CSV."""
    cfg = _load_config(config_path)
    try:
        ks = [int(v) for v in k_values.split(",")]
        sweep_settings(_setting(cfg), ks)
    except ValueError as exc:
        _fail(f"config error: --k-values {k_values}: {exc}")
    with _exit_codes():
        reports = _run_reports(cfg, lambda records, handles: {
            f"report_k{rep.setting.top_k}": rep for rep in topk_sweep(records, _setting(cfg), ks, handles)
        })
        (Path(cfg.output_dir) / "sweep.csv").write_text(sweep_csv(list(reports.values())), encoding="utf-8")
        for rep in reports.values():
            click.echo(f"k={rep.setting.top_k}: accuracy {rep.accuracy:.2f}")


if __name__ == "__main__":
    main()
