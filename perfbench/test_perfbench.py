"""Tests of the benchmark itself: its checks fire and its metrics match BENCHMARK.json.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
The workloads run here at small shapes of the same kinds.
"""

import json

import pytest

import harness
import run
import workloads
from spans import PER_LAYER

SMALL = {
    "train": lambda: workloads.Train(300, 5, batch=4, pool=3),
    "beam": lambda: workloads.Infer(workloads.beam_batch, 200, 4, batch=6, pool=2),
    "lev": lambda: workloads.Infer(workloads.lev_batch, 200, 4, batch=6, pool=2),
    "ingest": lambda: workloads.Ingest(300, 5),
}


def corrupt_loss(out):
    return out + 1e-3


def corrupt_ranking(out):
    # Swap the first two paths of every sample.
    return [[sample[1], sample[0], *sample[2:]] for sample in out]


def corrupt_read_back(out):
    taxonomy, enc, _ = out
    other = workloads.PUBLIC.encode(
        workloads.PUBLIC.generate_synthetic(workloads.PUBLIC.SyntheticTreeSpec(300, 5, seed=99))
    )
    return taxonomy, enc, other


CORRUPT = {
    "train": corrupt_loss,
    "beam": corrupt_ranking,
    "lev": corrupt_ranking,
    "ingest": corrupt_read_back,
}


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_correct_outputs_pass_their_checks(kind, tmp_path):
    tally = harness.Tally()
    metrics, op_s, _ = harness.end_to_end(SMALL[kind](), 3, 0.2, tmp_path, tally)
    assert tally.failed == 0 and tally.attempted == len(op_s) + 1
    assert all(metrics[name] > 0 for name, _ in harness.END_TO_END)


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_corrupted_result_is_counted_as_failed(kind, tmp_path, monkeypatch):
    wl = SMALL[kind]()
    real_op = wl.op
    monkeypatch.setattr(wl, "op", lambda api, i: CORRUPT[kind](real_op(api, i)))
    tally = harness.Tally()
    harness.end_to_end(wl, 3, 0.2, tmp_path, tally)
    assert tally.attempted > 0 and tally.failed == tally.attempted


def test_command_exits_nonzero_on_a_wrong_result(monkeypatch, capsys):
    wl = SMALL["train"]()
    real_op = wl.op
    monkeypatch.setattr(wl, "op", lambda api, i: corrupt_loss(real_op(api, i)))
    monkeypatch.setitem(workloads.WORKLOADS, "small-train", wl)
    argv = ["--workload", "small-train", "--seed", "1", "--seconds", "0.2", "--trace", "0"]
    assert run.main(argv) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False and result["failed"] == result["attempted"]


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    tally = harness.Tally()
    values, _ = harness.traced(SMALL["train"](), 3, 0.2, tmp_path, tally)
    assert tally.failed == 0
    assert set(values) == {name for name, _, _ in PER_LAYER}
    assert values["transforms.share"] > 0.5
    assert values["inference.share"] == values["ingestion.share"] == 0
    assert values["transforms.partition_scores.useful_ratio"] == 1 / 5


def test_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
