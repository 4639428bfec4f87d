"""One serializable configuration object per run.

Every CLI run resolves its flags into a RunConfig, writes it next to the
outputs, and can be reproduced bit-exactly from that file (given the same
fixture clients and seed).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .embeddings import ProviderConfig
from .evaluation import RunSetting
from .retriever import RetrieverParams
from .store import Bm25Params


@dataclass(frozen=True)
class RunConfig(RunSetting):
    """A `RunSetting` (its fields come first) plus the run's parameters, paths and models."""

    retriever: RetrieverParams = field(default_factory=RetrieverParams)
    bm25: Bm25Params = field(default_factory=Bm25Params)
    provider: ProviderConfig = field(default_factory=ProviderConfig)
    context_window_tokens: int = 4096

    # inputs and outputs
    kb_path: str | None = None
    dataset_path: str | None = None
    results_path: str | None = None
    reply_cache_path: str | None = None
    output_dir: str = "runs"

    # LLM access (endpoints are optional: fixture clients need none)
    stepback_model: str = "mistral-7b-instruct-v0.1"
    qa_model: str = "recorded"
    llm_endpoint: str | None = None

    seed: int = 0

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        data = json.loads(text)
        kwargs = {}
        nested = {"retriever": RetrieverParams, "bm25": Bm25Params, "provider": ProviderConfig}
        names = {f.name for f in fields(cls)}
        for key, value in data.items():
            if key not in names:
                raise ValueError(f"unknown config field {key!r}")
            kwargs[key] = nested[key](**value) if key in nested and value is not None else value
        return cls(**kwargs)

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")
