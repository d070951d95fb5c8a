"""Parameter accounting: per-module counts, totals, and percentages.

The two published presets ("bloomz", "qwen") reproduce the reference
parameter tables exactly.  Adapter counts are derived from their stated
MLP shapes via the closed form; the large frozen components and the two
bridge modules are recorded constants (their internal layer geometry is
not derivable from the published shapes alone).  The tied LM head is
listed but excluded from the grand total, which is how the published
totals add up.

The "toy" preset counts the entries of an assembled pipeline's parameter
store by name prefix, so it follows whatever shapes the backbones and
the trainable parts were built with.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

from .nn import AdapterSpec, ParamStore, adapter_param_count


@dataclass(frozen=True)
class ModuleRow:
    name: str
    total: int
    trainable: int
    note: str = ""
    tied: bool = False  # listed, but not added to the grand total


@dataclass(frozen=True)
class ParamReport:
    preset: str
    rows: tuple
    total: int
    trainable: int
    llm_only: int

    @property
    def trainable_pct(self) -> str:
        return percent(self.trainable, self.total, 2)

    @property
    def llm_only_pct(self) -> str:
        return percent(self.llm_only, self.total, 1)


def percent(part: int, whole: int, decimals: int) -> str:
    """Round-half-up percentage string at the requested precision."""
    q = Decimal(1).scaleb(-decimals)
    value = (Decimal(part) / Decimal(whole) * 100).quantize(q, ROUND_HALF_UP)
    return f"{value}%"


def _finish(preset: str, rows: list[ModuleRow],
            llm_rows: tuple[str, str]) -> ParamReport:
    total = sum(r.total for r in rows if not r.tied)
    trainable = sum(r.trainable for r in rows if not r.tied)
    by_name = {r.name: r for r in rows}
    llm_only = sum(by_name[n].total for n in llm_rows)
    return ParamReport(preset, tuple(rows), total, trainable, llm_only)


def _mlp_note(d_in: int, d_hidden: int, d_out: int) -> str:
    return f"Two-layer MLP ({d_in} -> {d_hidden}, {d_hidden} -> {d_out})"


def _published_rows(adapter1: AdapterSpec, adapter2: AdapterSpec,
                    llm_embeddings: int, decoder1: int,
                    main_llm: int) -> list[ModuleRow]:
    """A published preset's rows; the presets differ only in these five
    values."""
    def adapter(name: str, spec: AdapterSpec) -> ModuleRow:
        n = adapter_param_count(spec)
        return ModuleRow(name, n, n,
                         _mlp_note(spec.d_in, spec.d_hidden, spec.d_out))

    return [
        ModuleRow("HE-EN Encoder", 138_341_376, 0, "Frozen encoder"),
        ModuleRow("LLM Embeddings", llm_embeddings, 0, "Frozen embedding layer"),
        adapter("Autoencoder 1", adapter1),
        ModuleRow("Custom Decoder 1", decoder1, decoder1,
                  "Trainable decoder module"),
        ModuleRow("Main LLM", main_llm, 0, "Frozen main LLM"),
        adapter("Autoencoder 2", adapter2),
        ModuleRow("Custom Encoder 2", 19_176_448, 19_176_448,
                  "Trainable encoder module"),
        ModuleRow("EN-HE Decoder", 59_195_904, 0, "Frozen decoder module"),
        ModuleRow("LM Head", 33_709_568, 0, "Final linear mapping (tied)",
                  tied=True),
    ]


_PUBLISHED = {
    "bloomz": (AdapterSpec(1024, 2048, 1024), AdapterSpec(1024, 1024, 512),
               256_901_120, 101_828_608, 302_313_472),
    "qwen": (AdapterSpec(1024, 1792, 896), AdapterSpec(896, 1024, 512),
             136_134_656, 83_598_080, 357_898_112),
}


def toy_rows(store: ParamStore) -> list[ModuleRow]:
    """Module rows of an assembled toy pipeline, counted from its store."""

    def row(name: str, prefix: str, note: str, exclude: str = "",
            tied: bool = False) -> ModuleRow:
        entries = [(n, t) for n, t in store.items()
                   if n.startswith(prefix) and n != exclude]
        return ModuleRow(name, sum(t.size for _, t in entries),
                         sum(t.size for n, t in entries
                             if not store.is_frozen(n)), note, tied)

    def mlp(part: str) -> str:
        d_in, d_hidden = store[f"{part}.linear1.weight"].shape
        return _mlp_note(d_in, d_hidden, store[f"{part}.linear2.weight"].shape[1])

    return [
        row("LR-HR Encoder", "encoder.", "Frozen encoder"),
        row("LM Embeddings", "llm.tok_embed", "Frozen embedding layer"),
        row("Adapter 1", "adapter1.", mlp("adapter1")),
        row("Bridge Decoder 1", "bridge1.", "Trainable decoder module"),
        row("Main LM", "llm.", "Frozen main LM", exclude="llm.tok_embed"),
        row("Adapter 2", "adapter2.", mlp("adapter2")),
        row("Bridge Encoder 2", "bridge2.", "Trainable encoder module"),
        row("HR-LR Decoder", "decoder.", "Frozen decoder module"),
        row("LM Head", "decoder.tgt_embed", "Final linear mapping (tied)",
            tied=True),
    ]


def param_report(preset: str, store: ParamStore | None = None) -> ParamReport:
    if preset in _PUBLISHED:
        rows = _published_rows(*_PUBLISHED[preset])
        llm_rows = ("LLM Embeddings", "Main LLM")
    elif preset == "toy":
        if store is None:
            raise ValueError("toy preset needs an assembled pipeline's store")
        rows, llm_rows = toy_rows(store), ("LM Embeddings", "Main LM")
    else:
        raise ValueError(f"unknown preset {preset!r}")
    return _finish(preset, rows, llm_rows)


EXPECTED = {
    "bloomz": {
        "total": 883_537_920,
        "trainable": 126_786_048,
        "trainable_pct": "14.35%",
        "llm_only": 559_214_592,
        "llm_only_pct": "63.3%",
        "rows": {
            "HE-EN Encoder": (138_341_376, 0),
            "LLM Embeddings": (256_901_120, 0),
            "Autoencoder 1": (4_203_520, 4_203_520),
            "Custom Decoder 1": (101_828_608, 101_828_608),
            "Main LLM": (302_313_472, 0),
            "Autoencoder 2": (1_577_472, 1_577_472),
            "Custom Encoder 2": (19_176_448, 19_176_448),
            "EN-HE Decoder": (59_195_904, 0),
            "LM Head": (33_709_568, 0),
        },
    },
    "qwen": {
        "total": 799_239_680,
        "trainable": 107_669_632,
        "trainable_pct": "13.47%",
        "llm_only": 494_032_768,
        "llm_only_pct": "61.8%",
        "rows": {
            "HE-EN Encoder": (138_341_376, 0),
            "LLM Embeddings": (136_134_656, 0),
            "Autoencoder 1": (3_448_704, 3_448_704),
            "Custom Decoder 1": (83_598_080, 83_598_080),
            "Main LLM": (357_898_112, 0),
            "Autoencoder 2": (1_446_400, 1_446_400),
            "Custom Encoder 2": (19_176_448, 19_176_448),
            "EN-HE Decoder": (59_195_904, 0),
            "LM Head": (33_709_568, 0),
        },
    },
}


def check_report(report: ParamReport) -> list[str]:
    """Deviations of a preset report from the recorded expected values."""
    expected = EXPECTED.get(report.preset)
    if expected is None:
        raise ValueError(f"no recorded expectations for preset {report.preset!r}")
    problems = []
    got_rows = {r.name: (r.total, r.trainable) for r in report.rows}
    for name, want in expected["rows"].items():
        if got_rows.get(name) != want:
            problems.append(f"row {name}: got {got_rows.get(name)}, want {want}")
    for attr in ("total", "trainable", "llm_only", "trainable_pct",
                 "llm_only_pct"):
        if getattr(report, attr) != expected[attr]:
            problems.append(
                f"{attr}: got {getattr(report, attr)}, want {expected[attr]}")
    return problems


def format_report(report: ParamReport) -> str:
    """Three-part text layout: overall statistics, then the module table."""
    lines = [
        f"Overall Model Statistics ({report.preset})",
        f"  Total Parameters      {report.total:>15,}",
        f"  LLM Only Parameters   {report.llm_only:>15,} ({report.llm_only_pct})",
        f"  Trainable Parameters  {report.trainable:>15,} ({report.trainable_pct})",
        "",
        f"Module-wise Breakdown ({report.preset})",
        f"  {'Module':<18} {'Total Params':>14} {'Trainable':>14}  Notes",
    ]
    for r in report.rows:
        lines.append(
            f"  {r.name:<18} {r.total:>14,} {r.trainable:>14,}  {r.note}")
    return "\n".join(lines)
