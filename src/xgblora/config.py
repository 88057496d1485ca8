"""Run configuration: a flat key=value text format with # comments.

`RunConfig` is `boosting.TrainConfig` plus the fields only the shell
reads. Every field round-trips losslessly through serialize/parse. CLI
flags override file values; unknown keys are rejected by name so typos fail
loudly instead of silently training the wrong thing. A bad key, value or
line raises `boosting.ConfigError`, as a bad training field does.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from xgblora.boosting import ConfigError, TrainConfig


@dataclass
class RunConfig(TrainConfig):
    # the schedule stays None until cli._schedule fills in its defaults
    method: str = "xgblora"  # xgblora | lora | full-ft
    # task
    task: str = "teacher-matrix"  # teacher-matrix | teacher-mlp | parity-seq
    dims: str = "8,8"  # mlp dims, comma separated
    noise: float = 0.0
    n_examples: int = 128
    seq_len: int = 8
    # model (transformer tasks)
    d_model: int = 32
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 64
    # run plumbing
    out_dir: str = "runs/out"

    def validate(self):
        if self.method not in _READS["method"]:
            raise ConfigError(f"method: unknown value {self.method!r}")
        if self.task not in _READS["task"]:
            raise ConfigError(f"task: unknown value {self.task!r}")
        if self.n_examples < 1:
            raise ConfigError(f"n_examples: must be >= 1, got {self.n_examples}")
        super().validate()
        for kind, reads in _READS.items():
            value = getattr(self, kind)
            for name in (n for names in reads.values() for n in names if n not in reads[value]):
                default = _FIELDS[name].default
                if getattr(self, name) != default:
                    raise ConfigError(f"{name}: {kind} {value} does not read it; leave it at {default}")

    def dims_list(self) -> list[int]:
        try:
            return [int(tok) for tok in self.dims.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"dims: expected comma-separated ints, got {self.dims!r}") from exc


# the fields each task and each method reads, of those that not all read; a
# run rejects a non-default value of a field its task or method does not
# read instead of recording it as run
_ADAPTER_FIELDS = ("rank", "sample_layers", "lam", "policy")
_READS = {
    "task": {
        "teacher-matrix": ("dims", "noise"),
        "teacher-mlp": ("dims", "noise"),
        "parity-seq": ("seq_len", "d_model", "n_layers", "n_heads", "d_ff"),
    },
    "method": {"xgblora": _ADAPTER_FIELDS, "lora": _ADAPTER_FIELDS, "full-ft": ()},
}
_FIELDS = {f.name: f for f in fields(RunConfig)}


def _parse_value(name: str, raw: str):
    optional = _FIELDS[name].type.startswith("Optional[")
    base = _FIELDS[name].type.removeprefix("Optional[").rstrip("]")
    raw = raw.strip()
    if raw == "none" and optional:
        return None
    if base == "int":
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{name}: expected int, got {raw!r}") from exc
    if base == "float":
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"{name}: expected float, got {raw!r}") from exc
    return raw


def serialize_config(cfg: RunConfig) -> str:
    lines = ["# run configuration (key=value)"]
    for f in fields(RunConfig):
        v = getattr(cfg, f.name)
        lines.append(f"{f.name}={'none' if v is None else v}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        setattr(cfg, key, _parse_value(key, raw))
    cfg.validate()
    return cfg


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def save_config(cfg: RunConfig, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_config(cfg))
