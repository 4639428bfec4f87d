"""Command-line entry point: index / highlight / eval / sweep."""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import click

from .config import RunConfig
from .errors import RagmarkError
from .evaluation import (
    PipelineHandles,
    RunReport,
    RunSetting,
    load_dataset,
    run_setting,
    sweep_csv,
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


def _load_config(config_path: str | None, **overrides) -> RunConfig:
    try:
        cfg = RunConfig.load(config_path) if config_path else RunConfig()
        return dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG_ERROR)


def _chat_client(cfg: RunConfig, model_name: str) -> ChatClient | None:
    cache = ReplyCache(cfg.reply_cache_path) if cfg.reply_cache_path else None
    if cfg.llm_endpoint:
        client = HttpChatClient(LlmClientConfig(endpoint=cfg.llm_endpoint, model_name=model_name))
        return CachingChatClient(client, cache) if cache is not None else client
    if cache is not None:
        return RecordedChatClient(cache, model_name=model_name)
    return None


def _handles(cfg: RunConfig) -> PipelineHandles:
    qa = _chat_client(cfg, cfg.qa_model)
    if qa is None:
        click.echo("config error: eval needs an LLM endpoint or a reply cache", err=True)
        sys.exit(EXIT_CONFIG_ERROR)
    return PipelineHandles(
        qa_client=qa,
        embedding_provider=cfg.provider.build(),
        stepback_client=_chat_client(cfg, cfg.stepback_model) if cfg.stepback else None,
        retriever_params=cfg.retriever,
        bm25_index=build_index(load_passages(cfg.kb_path), cfg.bm25) if cfg.kb_path else None,
        precomputed=load_precomputed_results(cfg.results_path) if cfg.results_path else None,
    )


def _setting(cfg: RunConfig) -> RunSetting:
    return RunSetting(**{f.name: getattr(cfg, f.name) for f in dataclasses.fields(RunSetting)})


def _write_report(report: RunReport, out_dir: Path, cfg: RunConfig, name: str = "report") -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg.save(out_dir / "config.json")
    (out_dir / f"{name}.json").write_text(
        json.dumps(report.to_summary(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    with (out_dir / f"{name}.records.jsonl").open("w", encoding="utf-8") as fh:
        for o in report.outcomes:
            fh.write(
                json.dumps(
                    {
                        "query_id": o.query_id,
                        "generation": o.generation,
                        "correct": o.correct,
                        "error": o.error,
                    },
                    sort_keys=True,
                )
                + "\n"
            )


@click.group()
def main() -> None:
    """Evidence selection and highlighting for retrieval-augmented generation."""


@main.command("index")
@click.option("--kb", "kb_path", required=True, type=click.Path(exists=True), help="KB JSONL file.")
@click.option("--out", "out_path", required=True, type=click.Path(), help="Index output path.")
def cmd_index(kb_path: str, out_path: str) -> None:
    """Build and persist a BM25 index; print corpus statistics."""
    try:
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
    except RagmarkError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_RUN_ERROR)


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
        click.echo("config error: highlight needs --kb or kb_path in the config", err=True)
        sys.exit(EXIT_CONFIG_ERROR)
    try:
        passages = load_passages(cfg.kb_path)
        index = build_index(passages, cfg.bm25)
        k = cfg.top_k or index.n_docs
        retrieved = index.top_k(query, k)
        result = select_evidence(
            query,
            retrieved,
            cfg.provider.build(),
            cfg.retriever,
            stepback_client=_chat_client(cfg, cfg.stepback_model) if cfg.stepback else None,
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
    except RagmarkError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_RUN_ERROR)


@main.command("eval")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--baseline", "baseline_path", type=click.Path(exists=True),
              help="Prior report.json to compute relative change against.")
def cmd_eval(config_path: str, baseline_path: str | None) -> None:
    """Run one evaluation setting and write its report."""
    cfg = _load_config(config_path)
    if not cfg.dataset_path:
        click.echo("config error: eval needs dataset_path", err=True)
        sys.exit(EXIT_CONFIG_ERROR)
    try:
        records = load_dataset(cfg.dataset_path)
        handles = _handles(cfg)
        baseline = None
        if baseline_path:
            base = json.loads(Path(baseline_path).read_text(encoding="utf-8"))
            baseline = RunReport(
                setting=_setting(cfg), outcomes=(), accuracy=float(base["accuracy"])
            )
        report = run_setting(records, _setting(cfg), handles, baseline=baseline)
        _write_report(report, Path(cfg.output_dir), cfg)
        line = f"accuracy: {report.accuracy:.2f} over {len(report.outcomes)} records"
        if report.relative_change is not None:
            line += f" (relative change {report.relative_change:+.2f}%)"
        click.echo(line)
        failures = [o for o in report.outcomes if o.error]
        if failures:
            click.echo(f"{len(failures)} records failed and were scored incorrect", err=True)
    except RagmarkError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_RUN_ERROR)


@main.command("sweep")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--k-values", required=True, help="Comma-separated ascending k values, e.g. 5,10,20.")
def cmd_sweep(config_path: str, k_values: str) -> None:
    """Run the top-k sweep and write a plot-ready CSV."""
    cfg = _load_config(config_path)
    try:
        ks = [int(v) for v in k_values.split(",")]
    except ValueError:
        click.echo("config error: --k-values must be integers", err=True)
        sys.exit(EXIT_CONFIG_ERROR)
    if not cfg.dataset_path:
        click.echo("config error: sweep needs dataset_path", err=True)
        sys.exit(EXIT_CONFIG_ERROR)
    try:
        records = load_dataset(cfg.dataset_path)
        handles = _handles(cfg)
        reports = topk_sweep(records, _setting(cfg), ks, handles)
        out_dir = Path(cfg.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        cfg.save(out_dir / "config.json")
        (out_dir / "sweep.csv").write_text(sweep_csv(reports), encoding="utf-8")
        for rep in reports:
            _write_report(rep, out_dir, cfg, name=f"report_k{rep.setting.top_k}")
            click.echo(f"k={rep.setting.top_k}: accuracy {rep.accuracy:.2f}")
    except (RagmarkError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_RUN_ERROR)


if __name__ == "__main__":
    main()
