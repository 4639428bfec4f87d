"""One serializable configuration object per run.

Every CLI run resolves its flags into a RunConfig, writes it next to the
outputs, and can be reproduced bit-exactly from that file (given the same
fixture clients and seed).
"""

from __future__ import annotations

import json
import sys
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

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("a config must be a JSON object")
        retired = sorted({"context_window_tokens", "seed"} & data.keys())  # fields no code read
        if retired:
            print(f"note: ignoring retired config fields {', '.join(retired)}", file=sys.stderr)
        kwargs = {}
        factories = {f.name: f.default_factory for f in fields(cls)}  # a class for a nested section
        for key, value in data.items():
            if key in retired:
                continue
            if key not in factories:
                raise ValueError(f"unknown config field {key!r}")
            if isinstance(section := factories[key], type):
                if not isinstance(value, dict):
                    raise ValueError(f"config field {key!r} must be an object")
                value = section(**value)
            kwargs[key] = value
        return cls(**kwargs)

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")
