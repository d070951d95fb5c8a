"""Smoke tests of the benchmark: each workload at a tiny size, the metric
names, the tracer's install/uninstall, failure isolation and the refusal
to run without the package source.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from tall import config  # noqa: E402

END_TO_END = ["setup_s", "peak_rss_mb", "phase1_examples_per_s",
              "phase2_examples_per_s", "phase1_loss", "phase2_loss"]

LEAVES = ["tensor.matmul", "tensor.softmax", "tensor.layer_norm",
          "tensor.gelu", "tensor.embedding", "tensor.cross_entropy_last_token",
          "tensor.cross_entropy_sum", "tensor.backward"]
WITH_CHILDREN = [
    "nn.multi_head_attention", "nn.ffn_forward", "nn.transformer_layer_forward",
    "models.greedy_translate", "models.encoder_forward",
    "models.decoder_forward", "models.logits_for",
    "models.hidden_from_embeddings", "pipeline.s1_encode",
    "pipeline.s2_adapter1", "pipeline.s3_bridge1", "pipeline.s4_llm",
    "pipeline.s5_adapter2", "pipeline.s6_bridge2", "pipeline.s7_decode",
    "pipeline.translate_prefixes"]


def expected_per_layer() -> set:
    names = set()
    for fn in LEAVES + ["pipeline.make_batch", "optim.AdamW.step",
                        "optim.clip_grad_norm", "world.generate_corpus"]:
        names |= {f"{fn}.calls", f"{fn}.s"}
    for fn in WITH_CHILDREN + ["pipeline.evaluate_tall",
                               "pretrain.llm_perplexity"]:
        names |= {f"{fn}.calls", f"{fn}.s", f"{fn}.self_s"}
    return names | {"tensor.tape_nodes", "models.greedy.rows",
                    "models.greedy.steps", "models.greedy.tokens_per_s",
                    "trace.overhead_s"}


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(capsys, workload: str, trace: int) -> dict:
    code = bench.main(["--workload", workload, "--seed", "1", "--seconds", "1",
                       "--trace", str(trace)], sizes=workloads.TINY)
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_metric_names_are_the_documented_ones():
    s = spec()
    assert [m["name"] for m in s["end_to_end"]] == END_TO_END
    assert {m["name"] for m in s["per_layer"]} == expected_per_layer()
    assert len(s["per_layer"]) == len(expected_per_layer())
    assert [w["name"] for w in s["workloads"]] == list(workloads.WORKLOADS)
    setup = next(m for m in s["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in s["end_to_end"])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_end_to_end_run_is_correct(capsys, workload):
    result = run_tiny(capsys, workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == END_TO_END
    for metric in result["metrics"].values():
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_reports_every_layer(capsys, workload):
    result = run_tiny(capsys, workload, 1)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == expected_per_layer()
    assert metrics["tensor.matmul.calls"] > 0
    assert metrics["world.generate_corpus.calls"] == 1
    assert spans.wrapped_attributes() == []
    assert metrics["tensor.backward.calls"] > 0
    assert metrics["tensor.tape_nodes"] > 0
    if workload == "pretrain":
        assert metrics["pipeline.s1_encode.calls"] == 0
        assert metrics["pretrain.llm_perplexity.calls"] == 1
        assert metrics["models.greedy_translate.calls"] == 0
    else:
        assert metrics["pipeline.s2_adapter1.calls"] > 0
        assert metrics["pipeline.s5_adapter2.calls"] > 0
        # untrained translators decode every row to the cap
        assert metrics["models.greedy.steps"] == 31


def test_tracer_wraps_copies_and_restores_originals():
    from tall import optim, pipeline, tensor

    before = spans.original_functions()
    tracer = spans.Tracer()
    with tracer:
        assert pipeline.clip_grad_norm is optim.clip_grad_norm
        assert hasattr(pipeline.clip_grad_norm, spans.MARKER)
        a = tensor.Tensor([[1.0, 2.0]])
        tensor.matmul(a, tensor.Tensor([[1.0], [1.0]]))
        assert len(spans.wrapped_attributes()) > len(spans.TARGETS)
    assert spans.original_functions() == before
    assert spans.wrapped_attributes() == []
    assert tracer.summary()["tensor.matmul"]["calls"] == 1


def test_a_failing_phase_is_recorded_and_the_next_phase_runs():
    def boom(state):
        raise ValueError("bad input")

    def fine(state):
        return workloads.Outcome(examples=3, loss=1.0)

    def wrong(state):
        return workloads.Outcome(examples=3, loss=1.0, problems=["off by one"])

    wl = workloads.Workload("fake", None, (workloads.Phase("boom", boom),
                                           workloads.Phase("fine", fine),
                                           workloads.Phase("wrong", wrong)))
    run = bench.Run()
    samples = {"boom": [], "fine": [], "wrong": []}
    bench.play_rounds(run, wl, {}, 0.0, samples, [])
    assert run.attempted == 3
    assert [(f["phase"], f["type"]) for f in run.failures] == [
        ("boom", "ValueError"), ("wrong", "CheckFailed")]
    assert "bad input" in run.failures[0]["message"]
    assert len(samples["fine"]) == 1 and not samples["boom"]


def test_slices_have_the_same_length_profile_for_every_seed():
    profiles = set()
    for seed in (0, 7):
        cfg = config.benchmark_config(seed)
        world = config.build_world(cfg)
        pairs = workloads.corpus_slice(cfg, world, 20)
        profiles.add(tuple(len(p.lr_tokens) for p in pairs))
    assert len(profiles) == 1


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "adapt", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
